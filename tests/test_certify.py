import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from hxpw import conic, geometry, hemisystem, schemes
from hxpw.certify import canonical_hash, canonical_json, certify
from hxpw.cli import main
from hxpw.conic import pair_reps
from hxpw.fields import tower
from hxpw.hemisystem import StructureError
from hxpw.schemes import RelationTable, frac_str

import scalar_oracles as so

# the package re-exports the function `certify` under the submodule's name
certify_mod = importlib.import_module("hxpw.certify")


@pytest.fixture(scope="module")
def cert1():
    return certify(1)


@pytest.fixture(scope="module")
def cert2_run():
    """certify(2), with (function, class count d) for every verify_scheme and
    structure_report call."""
    calls = []
    real, report = schemes.verify_scheme, RelationTable.structure_report

    def counting(table):
        calls.append(("verify_scheme", table.d))
        return real(table)

    def counting_report(table):
        calls.append(("structure_report", table.d))
        return report(table)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "verify_scheme", counting)
        mp.setattr(RelationTable, "structure_report", counting_report)
        cert = certify(2)
    return cert, calls


@pytest.fixture(scope="module")
def cert2(cert2_run):
    return cert2_run[0]


def test_h2_verifies_the_3_class_table_once(cert2_run):
    cert, calls = cert2_run
    assert cert["verdict"] == "pass"
    # one verify_scheme, and inside it the table's one structure report
    assert calls.count(("verify_scheme", 3)) == calls.count(("structure_report", 3)) == 1
    # the pw table is the hx table (routes), so its scheme is not verified again
    assert cert["blocks"]["routes"]["pass"] and "scheme_pw" not in cert["blocks"]


def test_srg_block_matches_srg_check(cert2, cert_h3_cli, hx_bundle_2, hx_bundle_3):
    for cert, bundle in ((cert2, hx_bundle_2), (cert_h3_cli["cert"], hx_bundle_3)):
        block = cert["blocks"]["srg"]
        oracle = so.srg_check(RelationTable(bundle["table"], d=3),
                                   block["merged_classes"])
        assert block["result"] == oracle


def test_h1_passes_and_flags_degeneracy(cert1):
    assert cert1["verdict"] == "pass"
    assert cert1["degenerate"]
    assert cert1["blocks"]["routes"]["pairs"] == 15
    assert cert1["blocks"]["routes"]["pass"]
    assert "skipped" in cert1["blocks"]["eigenmatrix"]


def test_h1_degenerate_class_counts(cert1):
    counts = cert1["blocks"]["class_counts"]["unordered_pairs"]["hx"]
    assert counts == {"1": 0, "2": 15, "3": 0}


def test_h2_passes_everything(cert2):
    assert cert2["verdict"] == "pass"
    assert not cert2["degenerate"]
    for name, block in cert2["blocks"].items():
        assert block.get("pass") or "skipped" in block, name
    assert cert2["blocks"]["routes"]["geometric"]["mode"] == "full"


def test_h2_block_contents(cert2):
    blocks = cert2["blocks"]
    assert blocks["class_counts"]["unordered_pairs"]["hx"] == {
        "1": 1020, "2": 2040, "3": 4080}
    assert blocks["hemisystem"]["external_points"] == 1020
    assert blocks["hemisystem"]["cover"] == 2
    assert blocks["eigenmatrix"]["multiplicities"] == [1, 68, 34, 17]
    assert blocks["krein"]["q_polynomial_orderings"]
    assert blocks["krein"]["p_polynomial_orderings"] == []
    assert blocks["srg"]["merged_classes"] == [1, 2]
    assert blocks["srg"]["result"]["v"] == 120
    assert blocks["fine"]["classes"] == 7
    assert blocks["orbit"]["orbit_size"] == 120


def test_certificate_reproducible(cert2):
    again = certify(2)
    assert canonical_hash(again) == canonical_hash(cert2)
    assert canonical_json(again) == canonical_json(cert2)


def test_canonical_hash_ignores_timings(cert2):
    mutated = json.loads(json.dumps(cert2))
    mutated["timings"] = {"total_s": 99999.0}
    assert canonical_hash(mutated) == canonical_hash(cert2)
    mutated["timings"] = {**cert2["timings"], "routes_rss_mb": 99999.0, "total_rss_mb": 0.0}
    assert canonical_hash(mutated) == canonical_hash(cert2)


# Starts `certify --h H` and prints the kernel's ru_maxrss of it, in MB, which
# covers the sweep workers it reaped.  It runs in a launcher without numpy,
# since on Linux a child's ru_maxrss starts from its parent's RSS at spawn,
# and the test process is far larger.
WAIT4_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "hxpw", "certify", "--h", sys.argv[2],
                          "--out", sys.argv[1]])
print(os.wait4(child.pid, 0)[2].ru_maxrss / 1024)
"""


@pytest.mark.parametrize("h", [2, 3])  # at h = 3 the sweep forks where there are 2 CPUs
def test_self_reported_peak_matches_wait4(h, tmp_path):
    out = tmp_path / "cert.json"
    proc = subprocess.run([sys.executable, "-c", WAIT4_LAUNCHER, str(out), str(h)],
                          capture_output=True, text=True, check=True)
    outside = round(float(proc.stdout), 1)
    total = json.loads(out.read_text())["timings"]["total_rss_mb"]
    # the CLI only serializes and writes the certificate after `certify` returns
    assert total <= outside <= total + 1


# A sweep whose worker, and not the parent, touches 64 MB: the ledger's peak
# must show it.  Prints the ledger's peak and the parent's own, in MB.  It is
# started from a launcher without numpy, for the reason given at WAIT4_LAUNCHER.
OUTGROWN = """
import resource
import numpy as np
from hxpw import conic
from hxpw.certify import _peak_rss_mb
conic.sweep_rows(8, 2, lambda lo, hi: np.ones(64 << 20 if lo else 1, dtype=np.uint8).sum())
print(_peak_rss_mb(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
LAUNCHER = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"


def test_peak_covers_a_worker_that_outgrows_the_parent():
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, OUTGROWN], capture_output=True,
                          text=True, check=True)
    ledger, parent = map(float, proc.stdout.split())
    assert ledger >= 64 > parent


def test_certificate_json_serializable(cert1, cert2):
    for cert in (cert1, cert2):
        json.dumps(cert)


def test_certificate_depends_on_h_alone():
    assert list(inspect.signature(certify).parameters) == ["h"]
    with pytest.raises(TypeError):
        certify(2, depth="full")


def test_header_fields(cert2):
    h = cert2["header"]
    assert set(h) == {"version", "h", "q", "n", "modulus_hex", "omega"}
    assert h["h"] == 2 and h["q"] == 4 and h["n"] == 120
    assert h["modulus_hex"] == "0x11b"
    assert cert2["canonical_sha256"] == canonical_hash(cert2)


def test_golden_hashes(cert1, cert2, cert_h3_cli):
    # a change to the hashed content must come with a bump of `format`
    cert3 = cert_h3_cli["cert"]
    assert cert1["format"] == cert2["format"] == cert3["format"] == "hxpw-certificate/7"
    assert cert1["canonical_sha256"] == "225b2c84c960185e8bd7412dee363858c137dc2825e826579c72c1d9f8c07da6"
    assert cert2["canonical_sha256"] == "fdb683023e1d70db9f3332b7493a4366b01a6bf23b84925054ffe392643c84d5"
    assert cert3["canonical_sha256"] == "44481ea344f69f6e97d2e9d7f77fd936ce08c290d66eda71625b7e883cd1eff7"


# ---------------------------------------------------------------------------
# the table-free sweep that runs above TABLE_MAX_H

def test_sweep_blocks_match_table_path(cert2, cert_h3_cli):
    for h, cert, workers in ((2, cert2, 1), (3, cert_h3_cli["cert"], 1),
                             (3, cert_h3_cli["cert"], 3)):
        ctx = tower(h)
        tallies = conic.sweep_rows(len(pair_reps(ctx)), workers, lambda lo, hi: (
            certify_mod._route_tally(ctx, certify_mod._classified_chunks(ctx, lo, hi))))
        routes, identities = certify_mod._route_blocks(ctx, tallies)
        assert identities == cert["blocks"]["identities"]
        table_routes = dict(cert["blocks"]["routes"], geometric=None)
        assert table_routes.pop("table_sha256") == hashlib.sha256(
            conic.table_bundle(ctx)["table"].tobytes()).hexdigest()
        assert routes == table_routes
    # the table path, tallied over 1, 2 and 3 row ranges
    for h, cert in ((2, cert2), (3, cert_h3_cli["cert"])):
        for workers in (1, 2, 3):
            st = SimpleNamespace(ctx=tower(h), workers=workers, hx=None)
            out = certify_mod._algebraic_routes(st)
            assert out["identities"] == cert["blocks"]["identities"]
            assert out["routes"] == dict(cert["blocks"]["routes"], geometric=None)


def _both_paths(monkeypatch, tmp_path, h):
    """CLI certificates of h through the table path, then through the sweep.

    Returns [(exit code, certificate)] for each path.
    """
    runs = []
    for max_h in (certify_mod.TABLE_MAX_H, h - 1):
        monkeypatch.setattr(certify_mod, "TABLE_MAX_H", max_h)
        out = tmp_path / f"cert_{max_h}.json"
        code = main(["certify", "--h", str(h), "--out", str(out)])
        runs.append((code, json.loads(out.read_text())))
    return runs


def _class_2_pair(ctx):
    table = conic.table_bundle(ctx)["table"]
    i = 5
    return i, int(np.flatnonzero(table[i, i + 1:] == 2)[0]) + i + 1


def test_misclassified_pair_fails_with_witness(monkeypatch, tmp_path, capsys):
    ctx = tower(2)
    i, j = _class_2_pair(ctx)
    real = hemisystem._bt_arrays

    def swapped(ctx, A, si, ti):
        # exchanging the two pairings at (i, j) turns its class 2 into class 1
        b1, b2 = real(ctx, A, si, ti)
        hit = (si == i) & (ti == j)
        return np.where(hit, b2, b1), np.where(hit, b1, b2)

    monkeypatch.setattr(hemisystem, "_bt_arrays", swapped)
    reps = pair_reps(ctx)
    s, t = reps[i], reps[j]
    for code, cert in _both_paths(monkeypatch, tmp_path, 2):
        assert code == 1
        assert cert["verdict"] == "fail"
        routes = cert["blocks"]["routes"]
        assert not routes["pass"]
        wit = routes["first_discrepancy"]
        assert wit["pair_indices"] == [i, j] and wit["reps"] == [s, t]
        assert (wit["class_hx"], wit["class_klein"]) == (2, 1)
        assert wit["rho"] == conic.rho(ctx, s, t)
        assert wit["nu"] == conic.nu(ctx, s, t)
        assert wit["rho_hat"] == conic.rho_hat(ctx, s, t)
        # by hand: both values recompute the true class, 2, not the reported 1
        assert hemisystem.klein_class_scalar(ctx, s, t) == (2, wit["bt_w"], wit["bt_w_prime"])
        assert conic.trace_sets(ctx)["cls"][wit["rho_hat"]] == 2
    assert "Traceback" not in capsys.readouterr().err


def test_rho_one_fails_without_traceback(monkeypatch, tmp_path, capsys):
    ctx = tower(2)
    i, j = _class_2_pair(ctx)
    real = conic.rho_of_pairs

    def rho_one(ctx, si, ti):
        r = real(ctx, si, ti)
        r[(si == i) & (ti == j)] = 1
        return r

    monkeypatch.setattr(conic, "rho_of_pairs", rho_one)
    for code, cert in _both_paths(monkeypatch, tmp_path, 2):
        assert code == 1
        assert cert["verdict"] == "fail"
        assert cert["witness"]["block"] == "conic_table"
        assert cert["blocks"]["routes"] == {
            "pass": False, "error": f"rho = 1 at pair indices ({i}, {j})"}
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the block runner

BLOCKS = {"routes", "identities", "class_counts", "hemisystem", "line_census",
          "tau_consistency", "klein_images", "scheme_hx", "eigenmatrix", "krein",
          "srg", "fine", "orbit", "automorphisms", "passants"}


def _assert_layout(cert):
    assert set(cert["blocks"]) == BLOCKS
    for name, block in cert["blocks"].items():
        assert ("pass" in block) != ("skipped" in block), name
    _assert_ledger(cert["timings"])


def _assert_ledger(timings):
    """Each stage that ran has its wall time and peak RSS, and the peaks, a
    high-water mark, never fall in STAGES order or past the total."""
    ran = [name for name, *_ in certify_mod.STAGES if f"{name}_s" in timings]
    assert set(timings) == {name + key for name in [*ran, "total"]
                            for key in ("_s", "_rss_mb")} | {"sweep_workers"}
    assert timings["sweep_workers"] >= 1
    peaks = [timings[f"{name}_rss_mb"] for name in [*ran, "total"]]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert all(timings["total_s"] >= timings[f"{name}_s"] for name in ran)


def test_every_certificate_has_every_block(cert1, cert2, cert_h3_cli, monkeypatch, tmp_path):
    for cert in (cert1, cert2, cert_h3_cli["cert"]):
        _assert_layout(cert)
    monkeypatch.setattr(certify_mod, "TABLE_MAX_H", 1)
    out = tmp_path / "sweep.json"
    assert main(["certify", "--h", "2", "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())
    _assert_layout(sweep)
    # the group and the passants are checked without tables too
    assert sweep["blocks"]["orbit"] == cert2["blocks"]["orbit"]
    assert sweep["blocks"]["passants"] == cert2["blocks"]["passants"]
    assert sweep["blocks"]["automorphisms"] == {
        **cert2["blocks"]["automorphisms"], "table_failures": "skipped"}


def test_blocks_after_failed_routes_are_skipped(monkeypatch, tmp_path):
    real = hemisystem.klein_classify_pairs

    def shifted(ctx, A, si, ti):
        cls, fact, shift = real(ctx, A, si, ti)
        cls = cls.copy()
        cls[0] = cls[0] % 3 + 1
        return cls, fact, shift

    monkeypatch.setattr(hemisystem, "klein_classify_pairs", shifted)
    for code, cert in _both_paths(monkeypatch, tmp_path, 2):
        assert code == 1
        _assert_layout(cert)
        assert cert["witness"]["block"] == "routes"
        assert cert["blocks"]["routes"]["pass"] is False
        assert cert["blocks"]["identities"]["pass"]
        for name in BLOCKS - {"routes", "identities"}:
            assert cert["blocks"][name] == {"skipped": "routes failed"}, name


def _raises(exc_type, message):
    def fake(*args, **kwargs):
        raise exc_type(message)
    return fake


# block -> (module, attribute, replacement, text the witness must carry)
FAULTS = {
    "orbit": (hemisystem, "verify_automorphisms",
              _raises(StructureError, "orbit closure broken"), "orbit closure broken"),
    "klein_images": (geometry, "pattern_scalars", lambda ctx, V: np.zeros(len(V), dtype=np.int64),
                     "left the pattern space"),
    "line_census": (hemisystem, "line_census",
                    _raises(RuntimeError, "census broken"), "census broken"),
}


@pytest.mark.parametrize("block", FAULTS)
def test_exception_in_a_block_fails_that_block(block, monkeypatch, tmp_path, capsys):
    module, attr, fake, message = FAULTS[block]
    monkeypatch.setattr(module, attr, fake)
    out = tmp_path / "cert.json"
    assert main(["certify", "--h", "2", "--out", str(out)]) == 1
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    _assert_layout(cert)
    witness = cert["witness"]
    assert witness["block"] == block and message in witness["error"]
    assert cert["blocks"][block] == {"pass": False, "error": witness["error"]}
    if block == "orbit":  # the automorphisms stage writes both blocks
        assert cert["blocks"]["automorphisms"] == cert["blocks"]["orbit"]
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# faults in the geometric route

def _certify_h2_fails(tmp_path, capsys):
    """The CLI certificate of h = 2, which must fail without a traceback."""
    out = tmp_path / "cert.json"
    assert main(["certify", "--h", "2", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    _assert_layout(cert)
    return cert


def _tangent_line(ctx, line):
    """(a line meeting the hermitian surface only in x, x) for an external point x of `line`."""
    wset = so.w_point_set(ctx)
    x = next(p for p in geometry.line_points(ctx, line) if p not in wset)
    z = next(p for p in so.projective_points(ctx, 4)
             if geometry.hermitian(ctx, x, p) == 0 and not geometry.is_isotropic(ctx, p))
    return geometry.line_through(ctx, x, z), x


def test_point_on_two_w_lines_fails_routes(monkeypatch, tmp_path, capsys):
    ctx = tower(2)
    real = geometry.w_lines(ctx)
    tangent, x = _tangent_line(ctx, so.line_tuple(real[0]))
    assert [p for p in geometry.line_points(ctx, tangent)
            if geometry.is_isotropic(ctx, p)] == [x]
    monkeypatch.setattr(geometry, "w_lines", lambda ctx: np.concatenate([real, [tangent]]))
    geometry.w_line_index.cache_clear()
    try:
        cert = _certify_h2_fails(tmp_path, capsys)
    finally:
        geometry.w_line_index.cache_clear()
    error = f"StructureError: external point {x} lies on extended lines 0 and {len(real)}"
    assert cert["blocks"]["routes"] == {"pass": False, "error": error}
    assert cert["witness"] == {"block": "routes", "error": error}


def test_flipped_geometric_entry_names_the_pair(monkeypatch, tmp_path, capsys):
    i, j = _class_2_pair(tower(2))
    real = hemisystem.geometric_table

    def flipped(ctx, lines, S):
        table = real(ctx, lines, S)
        table[i, j] = table[j, i] = 3
        return table

    monkeypatch.setattr(hemisystem, "geometric_table", flipped)
    cert = _certify_h2_fails(tmp_path, capsys)
    geo = cert["blocks"]["routes"]["geometric"]
    assert geo == {"pass": False, "mode": "full", "checked": 7140,
                   "first_discrepancy": {"pair_indices": [i, j], "geometric": 3, "table": 2}}
    assert cert["witness"] == {"block": "routes", "geometric": geo}


def test_corrupted_row_zero_spread_is_caught_by_the_scalar_check(monkeypatch, tmp_path, capsys):
    """Line 0 is given the spread of a line it meets.  Meeting lines share one
    member, so every bulk count stays 1 or q + 1 and only the scalar row 0
    can tell."""
    real = hemisystem.spread_map

    def corrupted(ctx, lines):
        S, codes = real(ctx, lines), lines["codes"]
        k = next(k for k in range(1, len(codes)) if np.intersect1d(codes[k], codes[0]).size)
        S[0] = S[k]
        return S

    monkeypatch.setattr(hemisystem, "spread_map", corrupted)
    cert = _certify_h2_fails(tmp_path, capsys)
    geo = cert["blocks"]["routes"]["geometric"]
    assert geo["first_discrepancy"] == {
        "line_index": 0, "rep": pair_reps(tower(2))[0], "scalar_spread_size": 17,
        "bulk_spread_size": 17, "shared_members": 1}
    assert cert["witness"] == {"block": "routes", "geometric": geo}


# ---------------------------------------------------------------------------
# the census and the Klein images

def test_h3_runs_the_census_and_the_klein_images(cert_h3_cli):
    cert = cert_h3_cli["cert"]
    assert cert["format"] == "hxpw-certificate/7" and "seed" not in cert["header"]
    blocks = cert["blocks"]
    assert blocks["line_census"] == {
        "pass": True, "total_lines": 4617, "expected_total": 4617, "w_extended": 585,
        "orbit": 2016, "tau_orbit": 2016, "disjoint": True, "covers": True}
    assert blocks["klein_images"] == {
        "pass": True, "projective_mismatches": 0, "nonsingular_images": 0,
        "w0_not_on_secant": 0, "spread_image_mismatches": 0}
    assert blocks["orbit"] == {"pass": True, "orbit_size": 2016, "expected": 2016, "escaped": 0}


def test_line_counted_twice_fails_the_census(monkeypatch, tmp_path, capsys):
    """The census is handed tau(m_k) in place of m_k: that line is counted
    twice and the points of m_k lose one of their q + 1 lines."""
    k = 7
    real = hemisystem.line_census
    monkeypatch.setattr(hemisystem, "line_census", lambda ctx, lines, tau: real(
        ctx, {key: np.concatenate([a[:k], tau[key][k:k + 1], a[k + 1:]])
              for key, a in lines.items()}, tau))
    cert = _certify_h2_fails(tmp_path, capsys)
    ctx = tower(2)
    census = cert["blocks"]["line_census"]
    assert census == {"pass": False, "total_lines": 324, "expected_total": 325,
                      "w_extended": 85, "orbit": 120, "tau_orbit": 120, "disjoint": False,
                      "covers": False, "first_discrepancy": {
                          "line_index": k, "rep": pair_reps(ctx)[k], "check": "disjoint"}}
    assert cert["witness"] == {"block": "line_census",
                               "first_discrepancy": census["first_discrepancy"]}
    # by hand: row k of the census is the tau twin of m_k, which the twins hold too
    lines = hemisystem.build_hemisystem(ctx)
    assert so.tau_line(ctx, so.line_tuple(lines["rows"][k])) == so.line_tuple(
        hemisystem.tau_lines(ctx, lines)["rows"][k])


def test_perturbed_klein_image_fails_klein_images(monkeypatch, tmp_path, capsys):
    """The Klein image K of extended line 0 is replaced by K + W0."""
    ctx = tower(2)
    line, image = so.perturb_klein_image(monkeypatch, ctx, 0)
    cert = _certify_h2_fails(tmp_path, capsys)
    # by hand: the lines to which the new image is bt-orthogonal are not those
    # whose spread holds extended line 0 (24 spreads hold it, and the image
    # is orthogonal to 32 other lines and to none of those 24)
    lines = hemisystem.build_hemisystem(ctx)
    S = hemisystem.spread_map(ctx, lines)
    assert geometry.w_line_index(ctx)["lines"][0] == line
    wrong = [i for i, (w, w_prime) in enumerate(zip(lines["w"].tolist(),
                                                     lines["w_prime"].tolist()))
             if (geometry.bt(ctx, image, w) == geometry.bt(ctx, image, w_prime) == 0)
             != (S[i, 0] == 1)]
    assert len(wrong) == 56
    block = cert["blocks"]["klein_images"]
    assert block == {"pass": False, "projective_mismatches": 0, "nonsingular_images": 0,
                     "w0_not_on_secant": 0, "spread_image_mismatches": len(wrong),
                     "first_discrepancy": {"line_index": wrong[0],
                                           "rep": int(lines["reps"][wrong[0]]),
                                           "check": "spread_image_mismatches"}}
    assert cert["witness"] == {"block": "klein_images",
                               "first_discrepancy": block["first_discrepancy"]}


@pytest.mark.parametrize("block, attr", [("line_census", "h_lines_through"),
                                         ("klein_images", "klein_map")])
def test_scalar_cross_check_fails_its_block(block, attr, monkeypatch, tmp_path, capsys):
    """The scalar derivation at line 0 loses its first entry."""
    real = getattr(geometry, attr)
    monkeypatch.setattr(geometry, attr, lambda ctx, x: real(ctx, x)[1:])
    cert = _certify_h2_fails(tmp_path, capsys)
    first = {"line_index": 0, "rep": pair_reps(tower(2))[0], "check": attr}
    assert cert["blocks"][block]["first_discrepancy"] == first
    assert cert["witness"] == {"block": block, "first_discrepancy": first}
    assert [name for name, b in cert["blocks"].items() if b.get("pass") is False] == [block]


# ---------------------------------------------------------------------------
# faults in the group action

def test_non_primitive_lambda_is_not_transitive(monkeypatch, tmp_path, capsys):
    ctx = tower(2)
    lam = ctx.subfield(ctx.h)[2]  # in GF(q), so of order dividing q - 1
    real = hemisystem.mobius_generators
    gens = {**real(ctx), "t -> lambda t": ((1, 0), (0, lam))}
    monkeypatch.setattr(hemisystem, "mobius_generators", lambda ctx: gens)
    cert = _certify_h2_fails(tmp_path, capsys)
    orbit = so.moebius_orbit(ctx, gens.values())
    assert len(orbit) < 120
    outside = min(set(range(120)) - orbit)
    first = {"check": "transitive", "index": outside, "rep": pair_reps(ctx)[outside],
             "generators": {name: [list(r) for r in g] for name, g in gens.items()}}
    assert cert["blocks"]["orbit"] == {"pass": False, "orbit_size": len(orbit), "expected": 120,
                                       "escaped": 0, "first_discrepancy": first}
    assert cert["witness"] == {"block": "orbit", "first_discrepancy": first}
    assert [name for name, b in cert["blocks"].items() if b.get("pass") is False] == ["orbit"]


def test_chi_without_frobenius_fails_the_diagram(monkeypatch, tmp_path, capsys):
    """chi(g) = g (x) g: right for the generators over GF(2), wrong for lambda."""
    ctx = tower(2)

    def g_tensor_g(ctx, g):
        G = np.array(g, dtype=np.int64)
        return ctx.mul_arr(G[:, None, :, None], G[None, :, None, :]).reshape(4, 4)

    monkeypatch.setattr(hemisystem, "chi_matrix", g_tensor_g)
    cert = _certify_h2_fails(tmp_path, capsys)
    auto = cert["blocks"]["automorphisms"]
    assert (auto["form_failures"], auto["symplectic_failures"]) == (1, 1)
    assert auto["twin_failures"] == cert["blocks"]["orbit"]["escaped"] == 120
    # by hand: theta(t) = (1, t^q, t, t^(q+1)) goes to (1, lam t^q, lam t,
    # lam^2 t^(q+1)), which is theta(lam t) = (1, lam^q t^q, lam t, lam^(q+1) t^(q+1))
    # only at t = 0, as lam^q != lam; t = inf is fixed
    lam = hemisystem.mobius_generators(ctx)["t -> lambda t"][1][1]
    assert ctx.frob_q(lam) != lam
    assert auto["diagram_failures"] == ctx.size - 1
    assert auto["first_discrepancy"] == {"generator": "t -> lambda t", "check": "diagram",
                                         "point": 1}
    assert cert["witness"] == {"block": "orbit",
                               "first_discrepancy": cert["blocks"]["orbit"]["first_discrepancy"]}
    assert cert["witness"]["first_discrepancy"] == {
        "generator": "t -> lambda t", "check": "lines", "index": 0, "rep": pair_reps(ctx)[0]}


def test_line_swapped_for_its_twin_fails_the_line_mapping(monkeypatch, tmp_path, capsys):
    ctx, k = tower(2), 7
    hemisystem.build_hemisystem(ctx)  # the lines of record stay as they are
    real = hemisystem._rational_rows

    def swapped(ctx):
        R1, R2 = (R.copy() for R in real(ctx))
        R1[k], R2[k] = hemisystem._tau_rows(ctx, R1[k]), hemisystem._tau_rows(ctx, R2[k])
        return R1, R2

    monkeypatch.setattr(hemisystem, "_rational_rows", swapped)
    cert = _certify_h2_fails(tmp_path, capsys)
    failed = {name for name, b in cert["blocks"].items() if b.get("pass") is False}
    assert failed == {"orbit", "automorphisms"}
    first = cert["blocks"]["orbit"]["first_discrepancy"]
    assert cert["witness"] == {"block": "orbit", "first_discrepancy": first}
    # by hand: generator g moves row i off the line of record at pi_g(i), and i
    # is k or a preimage of k
    g = hemisystem.mobius_generators(ctx)[first["generator"]]
    reps = pair_reps(ctx)
    u = hemisystem.moebius(ctx, g, first["rep"])
    image = reps.index(min(u, ctx.conj(u)))
    assert first["check"] == "lines" and k in (first["index"], image)
    assert cert["blocks"]["automorphisms"]["twin_failures"] > 0


# ---------------------------------------------------------------------------
# value faults in the table-reading blocks

def _swap_two_twins(monkeypatch):
    real = hemisystem.tau_lines
    monkeypatch.setattr(hemisystem, "tau_lines", lambda ctx, lines: so.take(
        real(ctx, lines), [0, 1, 2, 4, 3, *range(5, len(lines["reps"]))]))


def _dropped_line(monkeypatch):
    real = hemisystem.verify_hemisystem
    monkeypatch.setattr(hemisystem, "verify_hemisystem", lambda ctx, lines: real(
        ctx, so.take(lines, range(1, len(lines["reps"])))))


def _asymmetric_hx_entry(monkeypatch):
    real = certify_mod.RelationTable

    def table(classes, d):
        if d == 3:  # the hx table; the fine table has more classes
            classes = classes.copy()
            classes[1, 0] = classes[1, 0] % 3 + 1
        return real(classes, d=d)

    monkeypatch.setattr(certify_mod, "RelationTable", table)


def _wrong_expected_p(monkeypatch):
    real = schemes.expected_p_matrix

    def wrong(q):
        P = [list(row) for row in real(q)]
        P[1][1] += 1
        return P

    monkeypatch.setattr(schemes, "expected_p_matrix", wrong)


def _fine_key_fault(monkeypatch, edit):
    """classify_pairs hands out edit(key, si, ti) as the fine keys of a block."""
    real = conic.classify_pairs

    def edited(ctx, si, ti):
        cls, key, closed = real(ctx, si, ti)
        return cls, edit(key, si, ti), closed

    monkeypatch.setattr(conic, "classify_pairs", edited)


def _merged_fine_labels(monkeypatch):
    """At every pair the key of fine label b becomes that of a smaller label a
    of the same coarse class, so label b is left unused."""
    lut, f2c = conic.fine_labels(tower(2))
    a, b = next((a, b) for a in f2c for b in f2c if a < b and f2c[a] == f2c[b])
    keys = np.flatnonzero(lut)
    _fine_key_fault(monkeypatch, lambda key, si, ti: np.where(key == keys[b - 1], keys[a - 1], key))


def _fine_key_off_the_keys(monkeypatch):
    """Pair (40, 50), in row range 1 of two, gets max(rho, 1/rho) as its key."""
    ctx = tower(2)
    _fine_key_fault(monkeypatch, lambda key, si, ti: np.where(
        (si == 40) & (ti == 50), ctx.inv_arr(key), key))


def _false_identity_flag(monkeypatch):
    """The pairing shift is reported failing at position 0 of every chunk."""
    real = hemisystem.klein_classify_pairs
    monkeypatch.setattr(hemisystem, "klein_classify_pairs", lambda ctx, A, si, ti: (
        *real(ctx, A, si, ti)[:2], [int(si[0]), int(ti[0])]))


VALUE_FAULTS = {"tau_consistency": _swap_two_twins, "scheme_hx": _asymmetric_hx_entry,
                "eigenmatrix": _wrong_expected_p, "fine": _merged_fine_labels,
                "identities": _false_identity_flag, "hemisystem": _dropped_line}


@pytest.mark.parametrize("block", VALUE_FAULTS)
def test_value_fault_fails_its_block(block, monkeypatch, tmp_path, capsys):
    VALUE_FAULTS[block](monkeypatch)
    cert = _certify_h2_fails(tmp_path, capsys)
    ctx = tower(2)
    assert cert["witness"]["block"] == block
    assert cert["blocks"][block]["pass"] is False
    if block == "tau_consistency":
        # by hand: the twin in row 3 is tau(m_4), which subtends the spread of m_4
        first = {"line_index": 3, "rep": pair_reps(ctx)[3], "check": "same_subtended_spreads"}
        assert cert["blocks"][block]["first_discrepancy"] == first
        assert cert["witness"] == {"block": block, "first_discrepancy": first}
    if block == "hemisystem":
        # by hand: the 17 points of m_0 lose one of their q/2 = 2 lines
        report = cert["blocks"][block]
        line_0 = so.points_of(ctx, hemisystem.build_hemisystem(ctx)["codes"][0])
        assert report["violation_count"] == 17 and len(report["violations"]) == 16
        for v in report["violations"]:
            assert (v["count"], v["expected"]) == (1, 2) and tuple(v["point"]) in line_0
        assert cert["witness"] == {"block": "hemisystem", "violation_count": 17}
    if block == "eigenmatrix":
        # by hand: computed row 2 is the family's row 1, which the fault moved
        first = {"P_row": 2, "row": ["1/1", "-3/1", "-6/1", "8/1"],
                 "check": "not_in_family_formula"}
        assert cert["blocks"][block]["first_discrepancy"] == first
        assert cert["witness"] == {"block": block, "first_discrepancy": first}
        faulted = [[frac_str(x) for x in row] for row in schemes.expected_p_matrix(ctx.q)]
        assert first["row"] not in faulted and faulted[1][1] == "-2/1"
    if block == "identities":
        first = {"identity": "pairing_shift", "pair_indices": [0, 1],
                 "reps": list(pair_reps(ctx)[:2])}
        assert cert["blocks"][block]["first_discrepancy"] == first
        assert cert["witness"] == {"block": block, "first_discrepancy": first}


def test_tau_table_fault_names_the_pair(monkeypatch, tmp_path, capsys):
    """The twins keep their spreads, but their table has one entry flipped."""
    i, j = _class_2_pair(tower(2))
    real = hemisystem.geometric_table
    calls = []

    def flipped_for_twins(ctx, lines, S):
        table = real(ctx, lines, S)
        calls.append(len(calls))
        if len(calls) == 2:  # the first call is the geometric route, the second the twins'
            table[i, j] = table[j, i] = 3
        return table

    monkeypatch.setattr(hemisystem, "geometric_table", flipped_for_twins)
    cert = _certify_h2_fails(tmp_path, capsys)
    first = {"pair_indices": [i, j], "tau": 3, "table": 2}
    assert cert["blocks"]["tau_consistency"] == {
        "pass": False, "same_subtended_spreads": True, "first_discrepancy": first}
    assert cert["witness"] == {"block": "tau_consistency", "first_discrepancy": first}


# ---------------------------------------------------------------------------
# faults in the passants

@pytest.mark.parametrize("check", ["not_a_passant", "shared_line"])
def test_passant_fault_fails_the_block(check, monkeypatch, tmp_path, capsys):
    """Pair 0's line is made to hold the conic point (1, 1, 1), or pair 1 is
    given pair 0's line."""
    ctx = tower(2)
    (a0, *_), (b0, *_) = conic.pair_lines(ctx)
    if check == "not_a_passant":  # (a, b, 1) holds (1, 1, 1) when a = 1 + b
        edit, k, line = (lambda a, b: a.__setitem__(0, 1 ^ b[0])), 0, [1 ^ int(b0), int(b0), 1]
    else:
        edit, k, line = (lambda a, b: (a.__setitem__(1, a0), b.__setitem__(1, b0))), 1, [
            int(a0), int(b0), 1]
    so.fault_pair_lines(monkeypatch, edit)
    cert = _certify_h2_fails(tmp_path, capsys)
    first = {"index": k, "rep": pair_reps(ctx)[k], "line": line, "check": check}
    assert cert["blocks"]["passants"] == {
        "pass": False, "lines": 120 - k, "passants": 120, "joins_conjugate_points": False,
        "first_discrepancy": first}
    assert cert["witness"] == {"block": "passants", "first_discrepancy": first}
    assert [name for name, b in cert["blocks"].items() if b.get("pass") is False] == ["passants"]
    # by hand: the named line holds (1, 1, 1), or is the line of pair 0
    if check == "not_a_passant":
        assert so.line_misses_conic(ctx, so.pair_line(ctx, pair_reps(ctx)[0]))
        assert ctx.mul(line[0], 1) ^ ctx.mul(line[1], 1) ^ 1 == 0
    else:
        assert so.line_dual(ctx, so.pair_line(ctx, pair_reps(ctx)[0])) == \
            geometry.normalize_point(ctx, tuple(line))


# ---------------------------------------------------------------------------
# the sweep over row ranges in forked workers

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_pinned_and_unpinned_h3_certificates_agree(cert_h3_cli, tmp_path):
    out = tmp_path / "pinned.json"
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run([sys.executable, "-m", "hxpw", "certify", "--h", "3", "--out", str(out)],
                          capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    pinned, unpinned = json.loads(out.read_text()), cert_h3_cli["cert"]
    assert pinned["canonical_sha256"] == unpinned["canonical_sha256"]
    assert canonical_json(pinned) == canonical_json(unpinned)
    # h = 3 sweeps its 2,031,120 pairs in 63 PAIR_CHUNK blocks
    assert pinned["timings"]["sweep_workers"] == 1
    assert unpinned["timings"]["sweep_workers"] == min(len(os.sched_getaffinity(0)), 63)


def test_forked_certify_leaves_no_child(cert_h3_cli, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cert = certify(3)
    _assert_no_child_left()
    assert cert["timings"]["sweep_workers"] == 2
    assert cert["canonical_sha256"] == cert_h3_cli["cert"]["canonical_sha256"]


def _split_h2(monkeypatch, cpus):
    """h = 2 in 15 blocks of 8 rows, on `cpus` CPUs: the sweep gets up to two
    workers, and row range 1 is rows 35..119.  Returns its first row."""
    monkeypatch.setattr(conic, "PAIR_CHUNK", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert conic.split_rows(120, 2) == [0, 35, 120]
    return 35


def _runs_with_one_and_two_workers(monkeypatch, tmp_path, capsys):
    """[(exit code, certificate)] of the table path and the sweep at h = 2,
    with one worker and then with two."""
    runs, max_h = [], certify_mod.TABLE_MAX_H
    for cpus in (1, 2):
        _split_h2(monkeypatch, cpus)
        monkeypatch.setattr(certify_mod, "TABLE_MAX_H", max_h)  # _both_paths lowers it
        runs += _both_paths(monkeypatch, tmp_path, 2)
    assert [cert["timings"]["sweep_workers"] for _, cert in runs] == [1, 1, 2, 2]
    assert "Traceback" not in capsys.readouterr().err
    _assert_no_child_left()
    return runs


@pytest.mark.parametrize("pairs", [[(60, 70), (40, 50)], [(60, 70), (20, 30)]])
def test_identity_failing_in_a_worker_gives_the_first_pair(pairs, monkeypatch, tmp_path, capsys):
    """The pairing shift is reported failing at two pairs in different
    blocks: both in row range 1, or one in each range.  The certificate names
    the earlier, as with one worker."""
    real = hemisystem.klein_classify_pairs

    def flagged(ctx, A, si, ti):
        cls, fact, shift = real(ctx, A, si, ti)
        hit = np.zeros(si.size, dtype=bool)
        for i, j in pairs:
            hit |= (si == i) & (ti == j)
        return cls, fact, shift or conic.first_pair(si, ti, hit)

    monkeypatch.setattr(hemisystem, "klein_classify_pairs", flagged)
    runs = _runs_with_one_and_two_workers(monkeypatch, tmp_path, capsys)
    i, j = min(pairs)
    first = {"identity": "pairing_shift", "pair_indices": [i, j],
             "reps": [pair_reps(tower(2))[i], pair_reps(tower(2))[j]]}
    for code, cert in runs:
        assert code == 1 and cert["witness"] == {"block": "identities", "first_discrepancy": first}
    for (_, one), (_, two) in zip(runs[:2], runs[2:]):  # each path, with one and two workers
        assert canonical_json(one) == canonical_json(two)


@pytest.mark.parametrize("fault", [_merged_fine_labels, _fine_key_off_the_keys])
def test_fine_fault_fails_with_one_and_two_workers(fault, monkeypatch, tmp_path, capsys):
    """A label left unused is one class short; a key that is none has label 0,
    so the fine table no longer fuses to the class table.  The sweep, which
    builds no fine table, still passes."""
    fault(monkeypatch)
    runs = _runs_with_one_and_two_workers(monkeypatch, tmp_path, capsys)
    assert [code for code, _ in runs] == [1, 0, 1, 0]
    unused = fault is _merged_fine_labels
    for _, cert in runs[::2]:
        fine = cert["blocks"]["fine"]
        assert fine["pass"] is False and fine["expected_classes"] == 7
        assert (fine["classes"], fine["fusion_matches"]) == ((6, True) if unused else (7, False))
    assert canonical_json(runs[0][1]) == canonical_json(runs[2][1])


def test_classification_error_in_a_worker_keeps_its_message(monkeypatch, tmp_path, capsys):
    real = conic.rho_of_pairs

    def rho_one(ctx, si, ti):
        r = real(ctx, si, ti)
        r[(si == 40) & (ti == 50)] = 1
        return r

    monkeypatch.setattr(conic, "rho_of_pairs", rho_one)
    for code, cert in _runs_with_one_and_two_workers(monkeypatch, tmp_path, capsys):
        assert code == 1 and cert["witness"]["block"] == "conic_table"
        assert cert["blocks"]["routes"] == {
            "pass": False, "error": "rho = 1 at pair indices (40, 50)"}


def test_worker_that_dies_fails_routes_naming_its_rows(monkeypatch, tmp_path, capsys):
    first = _split_h2(monkeypatch, 2)
    real = hemisystem.klein_classify_pairs

    def dies_in_range_1(ctx, A, si, ti):
        if si[0] >= first:
            os._exit(3)
        return real(ctx, A, si, ti)

    monkeypatch.setattr(hemisystem, "klein_classify_pairs", dies_in_range_1)
    runs = _both_paths(monkeypatch, tmp_path, 2)
    assert "Traceback" not in capsys.readouterr().err
    _assert_no_child_left()
    error = "RuntimeError: the sweep worker of rows 35..119 sent no result (exit code 3)"
    for code, cert in runs:
        assert code == 1 and cert["verdict"] == "fail"
        _assert_layout(cert)
        assert cert["blocks"]["routes"] == {"pass": False, "error": error}
        assert cert["blocks"]["orbit"] == {"skipped": "routes failed"}
