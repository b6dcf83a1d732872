import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hxpw import schemes
from hxpw.fields import tower
from hxpw.schemes import (RelationTable, SchemeAnalytics, SchemeAxiomError, expected_p_matrix,
                          fuse, srg_check, verify_scheme)


@pytest.fixture(scope="module")
def analytics_2(hx_bundle_2):
    return verify_scheme(RelationTable(hx_bundle_2["table"], d=3))


@pytest.fixture(scope="module")
def analytics_3(hx_bundle_3):
    return verify_scheme(RelationTable(hx_bundle_3["table"], d=3))


def _brute_force_p(table, d):
    """p-numbers from all (d+1)(d+2)/2 products A_i A_j, 0 <= i <= j <= d,
    each asserted constant on every class (float64, exact below 2^53)."""
    A = [(table == k).astype(np.float64) for k in range(d + 1)]
    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            C = A[i] @ A[j]
            for k in range(d + 1):
                vals = np.unique(C[table == k])
                assert vals.size == 1, (i, j, k)
                p[k][i][j] = p[k][j][i] = int(vals[0])
    return p


# ---------------------------------------------------------------------------
# axiom verification

def test_verify_passes_h2(analytics_2):
    assert analytics_2.d == 3
    assert analytics_2.valencies == [1, 17, 34, 68]


def test_verify_passes_h3(analytics_3):
    assert analytics_3.valencies == [1, 195, 260, 1560]


def test_fine_scheme_verifies(hx_bundle_2):
    an = verify_scheme(RelationTable(hx_bundle_2["fine_table"], d=7))
    assert an.valencies == [1] + [17] * 7


def test_one_flip_fails_with_witness(hx_bundle_2):
    bad = hx_bundle_2["table"].copy()
    orig = bad[0, 1]
    bad[0, 1] = bad[1, 0] = orig % 3 + 1
    with pytest.raises(SchemeAxiomError) as exc:
        verify_scheme(RelationTable(bad, d=3))
    w = exc.value.witness
    assert {"i", "j", "k", "base_pair", "other_pair"} <= set(w)


def test_p_numbers_match_all_products(hx_bundle_2, hx_bundle_3, analytics_2, analytics_3):
    assert analytics_2.p == _brute_force_p(hx_bundle_2["table"], 3)
    assert analytics_3.p == _brute_force_p(hx_bundle_3["table"], 3)
    fine = hx_bundle_2["fine_table"]
    assert verify_scheme(RelationTable(fine, d=7)).p == _brute_force_p(fine, 7)


def test_fault_in_derived_class_fails_with_witness(hx_bundle_2):
    # swap one pair of class d-1 with one of class d: class d is never a
    # factor of a product, only derived from the others
    bad = hx_bundle_2["fine_table"].copy()
    d = 7
    (x, y), (u, v) = (np.argwhere(np.triu(bad == k))[0] for k in (d - 1, d))
    bad[x, y] = bad[y, x] = d
    bad[u, v] = bad[v, u] = d - 1
    with pytest.raises(SchemeAxiomError) as exc:
        verify_scheme(RelationTable(bad, d=d))
    w = exc.value.witness
    assert set(w) == {"i", "j", "k", "base_pair", "count", "other_pair", "other_count"}
    assert 1 <= w["i"] <= w["j"] < d

    def walks(a, b):  # recount by hand: z with bad[a, z] = i and bad[z, b] = j
        return int(np.count_nonzero((bad[a] == w["i"]) & (bad[:, b] == w["j"])))

    assert bad[tuple(w["base_pair"])] == bad[tuple(w["other_pair"])] == w["k"]
    assert walks(*w["base_pair"]) == w["count"]
    assert walks(*w["other_pair"]) == w["other_count"] != w["count"]


def test_float32_limit_refused():
    class Huge:
        n = schemes.FLOAT32_EXACT
        d = 3
    with pytest.raises(SchemeAxiomError, match="float32"):
        verify_scheme(Huge())


def test_degenerate_table_rejected():
    ctx = tower(1)
    from hxpw.conic import table_bundle
    table = __import__("hxpw.conic", fromlist=["table_bundle"]).table_bundle(ctx)["table"]
    with pytest.raises(SchemeAxiomError, match="empty"):
        verify_scheme(RelationTable(table, d=3))


def test_structure_checks():
    asym = np.array([[0, 1], [2, 0]], dtype=np.int8)
    rep = RelationTable(asym, d=2).structure_report()
    assert not rep["symmetric"]
    diag = np.array([[1, 1], [1, 0]], dtype=np.int8)
    assert not RelationTable(diag, d=1).structure_report()["diagonal_ok"]


# ---------------------------------------------------------------------------
# intersection numbers

def test_p_number_identities(analytics_2):
    an = analytics_2
    d1 = an.d + 1
    k = an.valencies
    for i, j, kk in itertools.product(range(d1), repeat=3):
        assert an.p[kk][i][j] == an.p[kk][j][i]
        assert k[kk] * an.p[kk][i][j] == k[i] * an.p[i][kk][j]
    for i in range(d1):
        for j in range(d1):
            assert sum(an.p[kk][i][j] * k[kk] for kk in range(d1)) == k[i] * k[j]


def test_p_numbers_against_direct_count(hx_bundle_2, analytics_2):
    # oracle: count two-step walks directly with set intersections
    table = hx_bundle_2["table"]
    n = table.shape[0]
    rng = random.Random(4)
    for _ in range(60):
        x, y = rng.sample(range(n), 2)
        k = int(table[x, y])
        i = rng.randrange(1, 4)
        j = rng.randrange(1, 4)
        count = sum(1 for z in range(n)
                    if table[x, z] == i and table[z, y] == j)
        assert count == analytics_2.p[k][i][j]


# ---------------------------------------------------------------------------
# exact eigen data

def test_eigenmatrix_matches_family_formula(analytics_2, analytics_3):
    for an, q in ((analytics_2, 4), (analytics_3, 8)):
        P, Q, mult = an.eigenmatrix()
        assert set(map(tuple, P)) == set(map(tuple, expected_p_matrix(q)))
        assert P[0] == list(map(Fraction, an.valencies))


def test_frozen_rows_h2(analytics_2):
    P, _, mult = analytics_2.eigenmatrix()
    rows = {tuple(int(x) for x in r) for r in P}
    assert rows == {(1, 17, 34, 68), (1, -3, -6, 8), (1, -7, 10, -4), (1, 3, 0, -4)}
    assert sorted(mult) == [1, 17, 34, 68]


def test_pq_product_and_orthogonality(analytics_2, analytics_3):
    for an in (analytics_2, analytics_3):
        P, Q, mult = an.eigenmatrix()
        n = an.n
        d1 = an.d + 1
        for i in range(d1):
            for j in range(d1):
                assert sum(P[i][l] * Q[l][j] for l in range(d1)) == (n if i == j else 0)
        k = an.valencies
        for i in range(d1):
            for j in range(d1):
                s = sum(mult[l] * P[l][i] * P[l][j] for l in range(d1))
                assert s == (n * k[i] if i == j else 0)


def test_multiplicities_sum(analytics_2):
    _, _, mult = analytics_2.eigenmatrix()
    assert sum(mult) == 120
    assert all(m > 0 for m in mult)


def test_eigen_route_reproduces_counted_p_numbers(analytics_2):
    P, Q, _ = analytics_2.eigenmatrix()
    n = analytics_2.n
    d1 = analytics_2.d + 1
    for i in range(d1):
        for j in range(d1):
            rhs = [P[l][i] * P[l][j] for l in range(d1)]
            for k in range(d1):
                val = sum(Q[k][l] * rhs[l] for l in range(d1)) / n
                assert val == analytics_2.p[k][i][j]


def test_krein_nonnegative_and_orderings(analytics_2, analytics_3, pw_bundle_2):
    for an in (analytics_2, analytics_3):
        an.krein()  # raises on any negative value
        qpoly = an.q_polynomial_orderings()
        assert qpoly, "a cometric ordering must exist"
        assert an.p_polynomial_orderings() == []
    pw_an = verify_scheme(RelationTable(pw_bundle_2["table"], d=3))
    assert pw_an.q_polynomial_orderings() == analytics_2.q_polynomial_orderings()


def test_krein_identities(analytics_2):
    q = analytics_2.krein()
    _, _, mult = analytics_2.eigenmatrix()
    d1 = analytics_2.d + 1
    for i in range(d1):
        for j in range(d1):
            assert q[0][i][j] == (mult[i] if i == j else 0)
            assert sum(q[k][i][j] * mult[k] for k in range(d1)) == mult[i] * mult[j]
            for k in range(d1):
                assert mult[k] * q[k][i][j] == mult[i] * q[i][k][j]


def _fracs(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_eigenspaces_known_matrix():
    # [[2, 1], [1, 2]] has left eigenvectors (-1, 1) for 1 and (1, 1) for 3
    B = _fracs([[2, 1], [1, 2]])
    spaces = schemes._eigenspaces(B, [3, 1], schemes._frac_identity(2))
    assert spaces == [[[-1, 1]], [[1, 1]]]
    # within a span only its own eigenvalue is found; a wrong proposal finds nothing
    assert schemes._eigenspaces(B, [1, 2, 3], _fracs([[1, 1]])) == [[[1, 1]]]


def test_non_integer_eigenvalue_aborts():
    B = _fracs([[0, 2], [1, 0]])  # x^2 - 2
    lams = [round(x.real) for x in np.linalg.eigvals(np.array(B, dtype=float))]
    with pytest.raises(SchemeAxiomError, match="non-integer eigenvalue"):
        schemes._eigenspaces(B, lams, schemes._frac_identity(2))
    # integer eigenvalues 1 and 3, but 3 is not proposed
    with pytest.raises(SchemeAxiomError, match="non-integer eigenvalue"):
        schemes._eigenspaces(_fracs([[2, 1], [1, 2]]), [1], schemes._frac_identity(2))


def test_huge_irrational_eigenvalues_refused_promptly():
    # eigenvalues 2 and +-sqrt(10^12 + 1): the proposals +-10^6 have empty
    # exact nullspaces, whatever the size of the constant term
    B = _fracs([[2, 0, 0], [0, 0, 10 ** 12 + 1], [0, 1, 0]])
    lams = [round(x.real) for x in np.linalg.eigvals(np.array(B, dtype=float))]
    assert sorted(lams) == [-10 ** 6, 2, 10 ** 6]
    with pytest.raises(SchemeAxiomError, match="non-integer eigenvalue"):
        schemes._eigenspaces(B, lams, schemes._frac_identity(3))


def test_shifted_eigenvalue_proposal_refused(hx_bundle_2, monkeypatch):
    # floats only propose: with every proposal off by one, no P comes out
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigvals(M) + 1)
    an = verify_scheme(RelationTable(hx_bundle_2["table"], d=3))
    with pytest.raises(SchemeAxiomError, match="non-integer eigenvalue"):
        an.eigenmatrix()
    assert an._eigen is None


def test_unsplit_eigenspace_refused():
    # p-numbers whose intersection matrices are all the identity: no B_i
    # splits the space, so there is no basis of common eigenvectors
    p = [[[int(j == k) for j in range(4)] for _ in range(4)] for k in range(4)]
    an = SchemeAnalytics(RelationTable(np.zeros((4, 4), dtype=np.int8), d=3), p)
    with pytest.raises(SchemeAxiomError, match="exhausted the algebra: found 1 common"):
        an.eigenmatrix()


def test_fine_scheme_eigen_data_not_integral(hx_bundle_2):
    # the 7-class refinement is a genuine scheme but its character table is
    # not integral; eigen computation must abort rather than approximate
    an = verify_scheme(RelationTable(hx_bundle_2["fine_table"], d=7))
    with pytest.raises(SchemeAxiomError, match="non-integer"):
        an.eigenmatrix()


def test_repeated_eigenvalue_split_by_second_matrix():
    # xor scheme on 4 points: B_1 has +-1 twice, so the common eigenvectors
    # need the second intersection matrix; P is the (Z/2)^2 character table
    t = np.array([[i ^ j for j in range(4)] for i in range(4)], dtype=np.int8)
    an = verify_scheme(RelationTable(t, d=3))
    P, _, mult = an.eigenmatrix()
    rows = {tuple(int(x) for x in r) for r in P}
    assert rows == {(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)}
    assert mult == [1, 1, 1, 1]
    an.krein()


# ---------------------------------------------------------------------------
# primitivity

def test_primitive_small(analytics_2, analytics_3):
    assert analytics_2.primitivity()["pass"]
    assert analytics_3.primitivity()["pass"]


def test_class3_regular_connected(hx_bundle_2):
    table = hx_bundle_2["table"]
    adj = table == 3
    assert set(adj.sum(axis=1).tolist()) == {68}
    assert schemes._connected(adj)


def test_disjoint_union_imprimitive(hx_bundle_2):
    t = hx_bundle_2["table"]
    n = t.shape[0]
    dbl = np.full((2 * n, 2 * n), 4, dtype=np.int8)
    dbl[:n, :n] = t
    dbl[n:, n:] = t
    report = schemes.primitivity(RelationTable(dbl, d=4))
    assert not report["pass"]
    assert not report["class_1_connected"]


# ---------------------------------------------------------------------------
# fusion and the strongly regular graph

def test_fuse_identity_noop(hx_bundle_2):
    rt = RelationTable(hx_bundle_2["table"], d=3)
    fused = fuse(rt, [[1], [2], [3]])
    assert np.array_equal(fused.classes, rt.classes)


def test_fuse_rejects_bad_partition(hx_bundle_2):
    rt = RelationTable(hx_bundle_2["table"], d=3)
    with pytest.raises(ValueError):
        fuse(rt, [[1], [2]])
    with pytest.raises(ValueError):
        fuse(rt, [[1, 2], [2, 3]])


def test_fine_fuses_to_coarse(hx_bundle_2):
    fine = RelationTable(hx_bundle_2["fine_table"], d=7)
    f2c = hx_bundle_2["fine_to_coarse"]
    parts = [[k for k, c in f2c.items() if c == cls] for cls in (1, 2, 3)]
    fused = fuse(fine, parts)
    assert np.array_equal(fused.classes, hx_bundle_2["table"])


def test_srg_fusion_selected_by_degree(analytics_2):
    # oracle: brute-force the three 2-class merges for the expected degree
    q = 4
    target = (q * q + 1) * (q - 1)
    hits = [m for m in ([1, 2], [1, 3], [2, 3])
            if sum(analytics_2.valencies[c] for c in m) == target]
    assert hits == [[1, 2]]


def test_srg_parameters(hx_bundle_2, hx_bundle_3):
    for bundle, expected in ((hx_bundle_2, (120, 51, 18, 24)),
                             (hx_bundle_3, (2016, 455, 70, 112))):
        rt = RelationTable(bundle["table"], d=3)
        res = srg_check(rt, {1, 2})
        assert res["pass"] and not res["degenerate"]
        assert (res["v"], res["k"], res["lambda"], res["mu"]) == expected


def test_srg_parameters_match_srg_check(analytics_2):
    xor = np.array([[i ^ j for j in range(4)] for i in range(4)], dtype=np.int8)
    for an in (analytics_2, verify_scheme(RelationTable(xor, d=3))):
        for r in (1, 2, 3):
            for merged in itertools.combinations(range(1, 4), r):
                assert an.srg_parameters(merged) == srg_check(an.table, merged), merged


def test_srg_against_direct_neighbor_count(hx_bundle_2):
    # oracle: common-neighbor counts via explicit set intersections
    table = hx_bundle_2["table"]
    adj = np.isin(table, (1, 2))
    np.fill_diagonal(adj, False)
    neigh = [set(np.nonzero(adj[v])[0].tolist()) for v in range(120)]
    rng = random.Random(10)
    for _ in range(80):
        x, y = rng.sample(range(120), 2)
        common = len(neigh[x] & neigh[y])
        assert common == (18 if adj[x, y] else 24)


def test_srg_degenerate_complete_graph():
    ctx = tower(1)
    from hxpw.conic import table_bundle
    rt = RelationTable(table_bundle(ctx)["table"], d=3)
    res = srg_check(rt, {1, 2})
    assert res["pass"] and res["degenerate"]
    assert res["k"] == 5 and res["mu"] is None


def test_srg_non_regular_reported():
    t = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int8)
    res = srg_check(RelationTable(t, d=2), {1})
    assert not res["pass"]
    assert res["reason"] == "not regular"
