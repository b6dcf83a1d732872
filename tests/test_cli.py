import hashlib
import json
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from hxpw import cli
from hxpw.certify import canonical_json
from hxpw.cli import graph6_bytes, main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hxpw", *map(str, args)],
                          capture_output=True, text=True)


def test_build_hx_h2(tmp_path):
    out = tmp_path / "t.json"
    assert main(["build", "--h", "2", "--family", "hx", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["n"] == 120
    assert doc["header"]["valencies"] == [17, 34, 68]
    assert len(doc["classes"]) == 120
    assert doc["classes"][0][0] == 0


def test_build_fine_h2(tmp_path):
    out = tmp_path / "fine.json"
    assert main(["build", "--h", "2", "--family", "fine", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["class_count"] == 7


# sha256 of `build --family fine` at h = 2 and 3; the fine table is one byte
# per entry, and the files must not show it
FINE_BUILD_SHA256 = {
    (2, "json"): "c48653c7c434191a8d9c534d57cffcd989a21cdde01b1ab6d295baf1acbc7fb2",
    (2, "csv"): "c814fbcfd2748c2caf87fee5894b12e53d9c9557922e8bce517f09e2729b7361",
    (3, "json"): "cfbf17d6561e2f847dbd62c8bf87b0c96c6f53a83bb8801ed8c5c1ae8adcf8fe",
    (3, "csv"): "b7528995f23283e779111ac9418340d90979920547367951735b16d9da178825",
}


@pytest.mark.parametrize("h", [2, 3])
def test_build_fine_bytes(h, tmp_path, monkeypatch, hx_bundle_2, hx_bundle_3):
    bundle = {2: hx_bundle_2, 3: hx_bundle_3}[h]
    assert bundle["fine_table"].dtype == np.uint8
    monkeypatch.setattr(cli.conic, "table_bundle", lambda ctx: bundle)  # the session's own
    for fmt in ("json", "csv"):
        out = tmp_path / f"fine.{fmt}"
        assert main(["build", "--h", str(h), "--family", "fine", "--format", fmt,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FINE_BUILD_SHA256[h, fmt]


def test_build_pw_matches_hx(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--h", "1", "--family", "hx", "--out", str(a)]) == 0
    # the pw family reads the Klein table alone
    monkeypatch.setattr(cli.conic, "table_bundle",
                        lambda ctx: pytest.fail("build --family pw built the conic tables"))
    assert main(["build", "--h", "1", "--family", "pw", "--out", str(b)]) == 0
    assert (json.loads(a.read_text())["classes"]
            == json.loads(b.read_text())["classes"])


def test_build_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["build", "--h", "1", "--family", "hx", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 6


def test_usage_errors(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_certify", lambda *a, **k: pytest.fail("certify was reached"))
    assert main(["build", "--h", "0", "--family", "hx"]) == 2
    assert main(["certify", "--h", "2", "--seed", "1"]) == 2  # no sampled check to seed
    assert main(["certify", "--h", "2", "--depth", "bogus"]) == 2
    assert main(["build", "--h", "4", "--family", "hx"]) == 2
    assert main(["build"]) == 2  # missing --h
    for argv in (["build", "--h", "1"], ["certify", "--h", "1"], ["export", "--h", "1"]):
        assert main([*argv, "--threads", "1"]) == 2  # the BLAS pool is set by the environment
    capsys.readouterr()
    for h in ("7", "8"):  # refused before any 2^(4h)-entry tower is built
        assert main(["certify", "--h", h]) == 2
        assert capsys.readouterr().err == "--h must be an integer in 1..6\n"
    assert main(["export", "--h", "1", "--format", "graph6", "--classes", "a,b"]) == 2
    assert capsys.readouterr().err == "--classes must name classes in 1..3\n"
    for fmt in ("csv", "json"):  # only graph6 reads --classes
        assert main(["export", "--h", "2", "--format", fmt, "--classes", "1,3"]) == 2
        assert capsys.readouterr().err == "--classes works only with --format graph6\n"


def test_certify_h4_needs_no_depth_or_seed(monkeypatch, tmp_path):
    calls = []

    def fake(*args, **kwargs):
        calls.append((args, kwargs))
        return {"verdict": "pass"}

    monkeypatch.setattr(cli, "run_certify", fake)
    for h in (4, 6):  # 6 is the largest --h accepted
        assert main(["certify", "--h", str(h), "--out", str(tmp_path / "c.json")]) == 0
    assert calls == [((4,), {}), ((6,), {})]


def test_depth_is_ignored_with_a_note(tmp_path, capsys):
    outs = []
    for extra in ([], ["--depth", "full"], ["--depth", "sampled"]):
        out = tmp_path / f"cert{len(outs)}.json"
        assert main(["certify", "--h", "1", "--out", str(out), *extra]) == 0
        note = "--depth ignored: every check is exhaustive at every h\n" if extra else ""
        assert capsys.readouterr().err == note
        outs.append(canonical_json(json.loads(out.read_text())))
    assert outs[0] == outs[1] == outs[2]


def test_certify_h1_cli(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--h", "1", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "pass"
    assert cert["degenerate"]


def test_certify_hash_stable_across_processes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli("certify", "--h", "1", "--out", out)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(out.read_text())["canonical_sha256"])
    assert outs[0] == outs[1]


def test_export_graph6_matches_networkx(tmp_path):
    out = tmp_path / "srg.g6"
    assert main(["export", "--h", "2", "--family", "hx", "--format", "graph6",
                 "--classes", "1,2", "--out", str(out)]) == 0
    G = nx.read_graph6(str(out))
    assert G.number_of_nodes() == 120
    assert {d for _, d in G.degree()} == {51}
    A = nx.to_numpy_array(G, dtype=bool, nodelist=sorted(G.nodes()))
    assert graph6_bytes(A) == nx.to_graph6_bytes(G, nodes=sorted(G.nodes()),
                                                 header=False)
    default = tmp_path / "default.g6"  # graph6 merges classes 1,2 unless told otherwise
    assert main(["export", "--h", "2", "--format", "graph6", "--out", str(default)]) == 0
    assert default.read_bytes() == out.read_bytes()


def test_export_k6(tmp_path):
    out = tmp_path / "k6.g6"
    assert main(["export", "--h", "1", "--family", "hx", "--format", "graph6",
                 "--classes", "2", "--out", str(out)]) == 0
    G = nx.read_graph6(str(out))
    assert G.number_of_nodes() == 6
    assert nx.density(G) == 1.0


def test_export_empty_class_fails(tmp_path):
    # class 1 is empty at q = 2
    assert main(["export", "--h", "1", "--family", "hx", "--format", "graph6",
                 "--classes", "1", "--out", str(tmp_path / "x.g6")]) == 1


def test_export_bad_classes():
    assert main(["export", "--h", "2", "--format", "graph6",
                 "--classes", "9"]) == 2


def test_export_csv_contains_eigen_rows(tmp_path):
    out = tmp_path / "an.csv"
    assert main(["export", "--h", "2", "--family", "hx", "--format", "csv",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "1/1,17/1,34/1,68/1" in text
    assert "krein k=0" in text
    assert "p-numbers k=0" in text


def test_export_json_analytics(tmp_path):
    out = tmp_path / "an.json"
    assert main(["export", "--h", "2", "--family", "hx", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["P"][0] == ["1/1", "17/1", "34/1", "68/1"]
    assert doc["multiplicities"] == [1, 68, 34, 17]


def test_graph6_encoder_against_networkx_random():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 30, 62, 63, 80, 517):
        A = rng.random((n, n)) < 0.3
        A = np.triu(A, 1)
        A = A | A.T
        G = nx.from_numpy_array(A)
        assert graph6_bytes(A) == nx.to_graph6_bytes(G, nodes=range(n),
                                                     header=False)
