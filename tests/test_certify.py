import json

import pytest

from hxpw import schemes
from hxpw.certify import canonical_hash, canonical_json, certify
from hxpw.schemes import RelationTable


@pytest.fixture(scope="module")
def cert1():
    return certify(1)


@pytest.fixture(scope="module")
def cert2_run():
    """certify(2), with the class count d of every verify_scheme call."""
    calls = []
    real = schemes.verify_scheme

    def counting(table):
        calls.append(table.d)
        return real(table)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "verify_scheme", counting)
        cert = certify(2)
    return cert, calls


@pytest.fixture(scope="module")
def cert2(cert2_run):
    return cert2_run[0]


def test_h2_verifies_the_3_class_table_once(cert2_run):
    cert, calls = cert2_run
    assert cert["verdict"] == "pass"
    assert calls.count(3) == 1
    assert cert["blocks"]["scheme_pw"] == cert["blocks"]["scheme_hx"]


def test_srg_block_matches_srg_check(cert2, cert_h3_cli, hx_bundle_2, hx_bundle_3):
    for cert, bundle in ((cert2, hx_bundle_2), (cert_h3_cli["cert"], hx_bundle_3)):
        block = cert["blocks"]["srg"]
        oracle = schemes.srg_check(RelationTable(bundle["table"], d=3),
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


def test_certificate_json_serializable(cert1, cert2):
    for cert in (cert1, cert2):
        json.dumps(cert)


def test_depth_validation():
    with pytest.raises(ValueError):
        certify(2, depth="sampled")  # missing seed
    with pytest.raises(ValueError):
        certify(4, depth="full")
    with pytest.raises(ValueError):
        certify(2, depth="bogus")


def test_header_fields(cert2):
    h = cert2["header"]
    assert h["h"] == 2 and h["q"] == 4 and h["n"] == 120
    assert h["modulus_hex"] == "0x11b"
    assert h["depth"] == "full"
    assert cert2["canonical_sha256"] == canonical_hash(cert2)
