"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with -s to see them);
the h=2 and h=3 certificates are produced by real CLI runs in fresh
processes, wall-clock included, so the runtime budgets are honest.
"""

import numpy as np
import pytest

from hxpw import conic, schemes
from hxpw.fields import tower
from hxpw.schemes import RelationTable, SchemeAxiomError, verify_scheme


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_full_agreement_q4(cert_h2_cli):
    cert = cert_h2_cli["cert"]
    assert cert["verdict"] == "pass"
    routes = cert["blocks"]["routes"]
    assert routes["pairs"] == 7140
    assert routes["pass"]
    assert routes["geometric"]["mode"] == "full"
    assert routes["geometric"]["checked"] == 7140
    assert cert_h2_cli["elapsed"] < 30, f"took {cert_h2_cli['elapsed']:.1f}s"
    _report(1, f"q=4 full certification of 7140 pairs across all three routes "
               f"in {cert_h2_cli['elapsed']:.1f}s")


def test_criterion_2_full_agreement_q8(cert_h3_cli):
    cert = cert_h3_cli["cert"]
    assert cert["verdict"] == "pass"
    routes = cert["blocks"]["routes"]
    assert routes["pairs"] == 2_031_120
    assert routes["pass"]
    geo = routes["geometric"]
    assert geo["checked"] >= 10_000
    assert geo["pass"]
    assert cert_h3_cli["elapsed"] < 600, f"took {cert_h3_cli['elapsed']:.1f}s"
    _report(2, f"q=8 exhaustive algebraic and geometric routes over "
               f"{geo['checked']} pairs in {cert_h3_cli['elapsed']:.1f}s")


def test_criterion_3_eigenmatrix(cert_h2_cli, cert_h3_cli):
    for bundle, q in ((cert_h2_cli, 4), (cert_h3_cli, 8)):
        block = bundle["cert"]["blocks"]["eigenmatrix"]
        assert block["pass"]
        assert block["matches_family_formula"]
        # the pw table equals the hx table, so this is its eigenmatrix too
        assert bundle["cert"]["blocks"]["routes"]["pass"] and "hx_equals_pw" not in block
        got = {tuple(row) for row in block["P"]}
        expected = {tuple(schemes.frac_str(x) for x in row)
                    for row in schemes.expected_p_matrix(q)}
        assert got == expected
    _report(3, "computed first eigenmatrices match the family formula at q=4 and q=8")


def test_criterion_4_scheme_axioms(cert_h2_cli, cert_h3_cli, hx_bundle_2):
    for bundle in (cert_h2_cli, cert_h3_cli):
        blocks = bundle["cert"]["blocks"]
        assert blocks["scheme_hx"]["pass"]
        # the pw table equals the hx table, so the axioms hold for it too
        assert blocks["routes"]["pass"] and "scheme_pw" not in blocks
    assert cert_h2_cli["cert"]["blocks"]["fine"]["scheme_verified"] is True
    bad = hx_bundle_2["table"].copy()
    bad[0, 1] = bad[1, 0] = bad[0, 1] % 3 + 1
    with pytest.raises(SchemeAxiomError) as exc:
        verify_scheme(RelationTable(bad, d=3))
    assert exc.value.witness["base_pair"] is not None
    _report(4, "axioms verified for both tables at q=4,8 and the 7-class "
               "refinement; one-flip mutation rejected with witness")


def test_criterion_5_hemisystem(cert_h2_cli, cert_h3_cli):
    for bundle, cover, externals in ((cert_h2_cli, 2, 1020),
                                     (cert_h3_cli, 4, 32760)):
        block = bundle["cert"]["blocks"]["hemisystem"]
        assert block["pass"]
        assert block["cover"] == cover
        assert block["external_points"] == externals
        assert block["violation_count"] == 0
    _report(5, "every external point lies on exactly q/2 lines (exhaustive at q=4, q=8)")


def test_criterion_6_cometric_not_metric(cert_h2_cli, cert_h3_cli):
    for bundle in (cert_h2_cli, cert_h3_cli):
        block = bundle["cert"]["blocks"]["krein"]
        assert block["pass"]
        assert block["nonnegative"]
        assert block["q_polynomial_orderings"]
        assert block["p_polynomial_orderings"] == []
        # one table, so its orderings are those of both
        assert bundle["cert"]["blocks"]["routes"]["pass"]
        assert "orderings_match_across_tables" not in block
        assert block["primitive"]
    _report(6, "Krein parameters nonnegative, a cometric ordering exists, no "
               "metric ordering, all class graphs connected (q=4, q=8)")


def test_criterion_7_srg_fusion(cert_h2_cli, cert_h3_cli):
    for bundle, expected in ((cert_h2_cli, (120, 51, 18, 24)),
                             (cert_h3_cli, (2016, 455, 70, 112))):
        block = bundle["cert"]["blocks"]["srg"]
        assert block["pass"]
        assert block["merged_classes"] == [1, 2]
        res = block["result"]
        assert (res["v"], res["k"], res["lambda"], res["mu"]) == expected
    # classes 1 and 2 are exactly the pairs whose invariant lands in GF(q)*
    for h in (2, 3):
        ctx = tower(h)
        ts = conic.trace_sets(ctx)
        gq_star = set(ctx.subfield(ctx.h)) - {0}
        assert ts["s0_star"] | ts["s1"] == gq_star
    _report(7, "merging the GF(q)*-invariant classes gives strongly regular "
               "graphs (120,51,18,24) and (2016,455,70,112)")


def test_criterion_8_fine_fusion(cert_h2_cli):
    block = cert_h2_cli["cert"]["blocks"]["fine"]
    assert block["pass"]
    assert block["classes"] == 7
    assert block["fusion_matches"]
    _report(8, "the 7-class refinement at q=4 fuses exactly to the 3-class table")


def test_criterion_9_identity_sweeps(cert_h2_cli, cert_h3_cli):
    cert1 = __import__("hxpw").certify(1)
    for cert, minimum in ((cert1, 15), (cert_h2_cli["cert"], 7140),
                          (cert_h3_cli["cert"], 100_000)):
        block = cert["blocks"]["identities"]
        assert block["pass"]
        assert block["pairs_swept"] >= minimum
        assert block["closed_form_ok"]
    assert cert_h2_cli["cert"]["blocks"]["identities"]["factorization_ok"]
    assert cert_h3_cli["cert"]["blocks"]["identities"]["factorization_ok"]
    _report(9, "closed-form and radical-factorization identities hold on every "
               "swept pair (exhaustive at q=2,4,8)")


def test_criterion_10_orbit_and_equivariance(cert_h2_cli, cert_h3_cli):
    cert1 = __import__("hxpw").certify(1)
    for cert, n in ((cert1, 6), (cert_h2_cli["cert"], 120), (cert_h3_cli["cert"], 2016)):
        orbit = cert["blocks"]["orbit"]
        assert orbit == {"pass": True, "orbit_size": n, "expected": n, "escaped": 0}
        auto = cert["blocks"]["automorphisms"]
        assert auto["pass"] and auto["points"] == cert["header"]["q"] ** 4 + 1
        assert all(auto[k] == 0 for k in ("diagram_failures", "form_failures",
                                          "symplectic_failures", "twin_failures",
                                          "table_failures"))
    _report(10, "the hemisystem is one orbit of sizes 6, 120 and 2016, never "
                "reaching a tau twin; three generators commute with theta on "
                "every point and keep both forms and the fine table (q=2,4,8)")


def test_criterion_11_degenerate_base(cert_h2_cli):
    cert = __import__("hxpw").certify(1)
    assert cert["verdict"] == "pass"
    assert cert["degenerate"]
    counts = cert["blocks"]["class_counts"]["unordered_pairs"]["hx"]
    assert counts["1"] == 0 and counts["3"] == 0 and counts["2"] == 15
    routes = cert["blocks"]["routes"]
    assert routes["pass"] and routes["pairs"] == 15
    assert routes["geometric"]["checked"] == 15
    _report(11, "q=2 pipeline completes, flags the empty classes, and still "
                "certifies route agreement on all 15 pairs")
