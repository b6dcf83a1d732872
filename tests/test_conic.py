import itertools
import random
import tracemalloc

import numpy as np
import pytest

from hxpw import conic, geometry
from hxpw.conic import ClassificationError, classify, pair_reps, rho, rho_hat, trace_sets
from hxpw.fields import tower

import scalar_oracles as so
from scalar_oracles import fine_label


def test_pair_census():
    for h in (1, 2, 3):
        ctx = tower(h)
        reps = pair_reps(ctx)
        assert len(reps) == (ctx.q4 - ctx.q2) // 2
        for t in reps:
            c = ctx.conj(t)
            assert c != t and t < c
        assert list(reps) == sorted(reps)


def test_trace_set_sizes():
    for h in (1, 2, 3):
        ctx = tower(h)
        q = ctx.q
        ts = trace_sets(ctx)
        assert len(ts["s0_star"]) == q // 2 - 1
        assert len(ts["s1"]) == q // 2
        # GF(q) sits inside the zero-trace set of GF(q^2) wholesale
        assert len(ts["t0_outside"]) == q * q // 2 - q
        union = ts["s0_star"] | ts["s1"] | ts["t0_outside"]
        assert union == ts["t0_q2"] - {0}
        assert not ts["s0_star"] & ts["s1"]
        assert not ts["s0_star"] & ts["t0_outside"]
        assert not ts["s1"] & ts["t0_outside"]


def test_rho_symmetry_and_inverse_swap():
    for h in (1, 2):
        ctx = tower(h)
        reps = pair_reps(ctx)
        for s, t in itertools.combinations(reps, 2):
            r = rho(ctx, s, t)
            assert r != 0
            assert rho(ctx, t, s) == r
            assert rho(ctx, s, ctx.conj(t)) == ctx.inv(r)


def test_rho_rejects_equal_or_conjugate():
    ctx = tower(2)
    reps = pair_reps(ctx)
    t = reps[0]
    with pytest.raises(ValueError):
        rho(ctx, t, t)
    with pytest.raises(ValueError):
        rho(ctx, t, ctx.conj(t))


def test_rho_hat_symmetric_and_in_trace_zero():
    ctx = tower(2)
    reps = pair_reps(ctx)
    t0 = trace_sets(ctx)["t0_q2"]
    for s, t in itertools.combinations(reps, 2):
        v = rho_hat(ctx, s, t)
        assert v == rho_hat(ctx, t, s)
        assert v in t0 and v != 0


def test_closed_form_equality_exhaustive():
    """rhat from the reciprocal-sum definition equals nu^2 + nu everywhere."""
    for h in (1, 2):
        ctx = tower(h)
        reps = pair_reps(ctx)
        for s, t in itertools.combinations(reps, 2):
            nu = conic.nu(ctx, s, t)
            assert rho_hat(ctx, s, t) == ctx.mul(nu, nu) ^ nu
        assert conic.table_bundle(ctx)["closed_form_failure"] is None


def test_classify_row_valencies(hx_bundle_2):
    table = hx_bundle_2["table"]
    for i in range(table.shape[0]):
        row = table[i]
        counts = {k: int(np.count_nonzero(row == k)) for k in (1, 2, 3)}
        assert counts == {1: 17, 2: 34, 3: 68}


def test_h1_all_pairs_class_two():
    ctx = tower(1)
    reps = pair_reps(ctx)
    assert len(list(itertools.combinations(reps, 2))) == 15
    for s, t in itertools.combinations(reps, 2):
        assert classify(ctx, s, t) == 2


def test_classify_symmetric():
    ctx = tower(2)
    reps = pair_reps(ctx)
    rng = random.Random(3)
    for _ in range(300):
        s, t = rng.sample(reps, 2)
        assert classify(ctx, s, t) == classify(ctx, t, s)


def test_representative_independence():
    """Swapping either representative for its conjugate changes nothing."""
    for h in (1, 2):
        ctx = tower(h)
        reps = pair_reps(ctx)
        for s, t in itertools.combinations(reps, 2):
            base = rho_hat(ctx, s, t)
            for ss, tt in ((ctx.conj(s), t), (s, ctx.conj(t)),
                           (ctx.conj(s), ctx.conj(t))):
                assert rho_hat(ctx, ss, tt) == base


def test_fine_class_counts():
    for h, expected in ((1, 1), (2, 7), (3, 31)):
        ctx = tower(h)
        bundle = conic.table_bundle(ctx)
        assert len(bundle["fine_to_coarse"]) == expected == ctx.q2 // 2 - 1


def test_fine_labels_cover_all_unit_pairs():
    """Every unordered {lam, 1/lam} with lam outside {0, 1} occurs."""
    ctx = tower(2)
    reps = pair_reps(ctx)
    seen = set()
    for s, t in itertools.combinations(reps, 2):
        seen.add(fine_label(ctx, s, t))
    expected = set()
    for lam in ctx.subfield(2 * ctx.h):
        if lam in (0, 1):
            continue
        li = ctx.inv(lam)
        expected.add((lam, li) if lam <= li else (li, lam))
    assert seen == expected


def test_fine_table_matches_scalar_labels(ctx2, hx_bundle_2):
    """Fine class k is the k-th smallest fine_label that occurs, on every pair."""
    reps = pair_reps(ctx2)
    labels = {(i, j): fine_label(ctx2, reps[i], reps[j])
              for i, j in itertools.combinations(range(len(reps)), 2)}
    rank = {lab: k for k, lab in enumerate(sorted(set(labels.values())), start=1)}
    ft = hx_bundle_2["fine_table"]
    assert not ft.diagonal().any()
    for (i, j), lab in labels.items():
        assert ft[i, j] == ft[j, i] == rank[lab]


@pytest.mark.parametrize("n", [1, 2, 6, 120])
def test_pair_chunks_cover_every_pair_once_in_row_order(monkeypatch, n):
    iu, ju = np.triu_indices(n, 1)
    for chunk, rows in ((n - 1, 1), (2 * n + 1, 2)):
        monkeypatch.setattr(conic, "PAIR_CHUNK", chunk)
        blocks = list(conic.pair_chunks(n))
        si = np.concatenate([b[0] for b in blocks] or [np.zeros(0, int)])
        ti = np.concatenate([b[1] for b in blocks] or [np.zeros(0, int)])
        assert np.array_equal(si, iu) and np.array_equal(ti, ju)
        assert all(0 < np.unique(b[0]).size <= rows for b in blocks)


def test_pair_chunks_hold_only_the_yielded_arrays():
    """Across its yield the generator keeps the two index arrays it hands
    out and nothing else: no bool mask, no unshifted row indices."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        chunks = conic.pair_chunks(2016)
        si, ti = next(chunks)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert si[0] == 0 and ti[0] == 1 and si[-1] == si.max()
    assert held <= si.nbytes + ti.nbytes + (1 << 20)


def test_fine_refines_coarse(hx_bundle_2):
    ft = hx_bundle_2["fine_table"]
    ct = hx_bundle_2["table"]
    for k, cls in hx_bundle_2["fine_to_coarse"].items():
        sel = ft == k
        assert np.all(ct[sel] == cls)


def test_pair_lines_are_passants():
    """The block passes at every h, and its lines are those of the scalar oracle."""
    for h in (1, 2, 3, 4):
        ctx = tower(h)
        n = (ctx.q4 - ctx.q2) // 2
        assert conic.passants(ctx) == {"pass": True, "lines": n, "passants": n,
                                       "joins_conjugate_points": True}
    for h in (1, 2):
        ctx = tower(h)
        a, b = conic.pair_lines(ctx)
        for t, at, bt in zip(pair_reps(ctx), a.tolist(), b.tolist()):
            line = so.pair_line(ctx, t)
            assert so.line_misses_conic(ctx, line)
            assert so.line_dual(ctx, line) == geometry.normalize_point(ctx, (at, bt, 1))


def test_pair_line_injective_h2():
    ctx = tower(2)
    lines = {so.pair_line(ctx, t) for t in pair_reps(ctx)}
    assert len(lines) == 120 == conic.passants(ctx)["lines"]


def test_passant_census_h1():
    ctx = tower(1)
    # oracle: every line of the plane, counted through its dual point
    total = sum(1 for _ in so.projective_points(ctx, 3))
    assert total == 21  # q^4 + q^2 + 1 at q = 2
    assert so.passant_census(ctx) == 6 == conic.passants(ctx)["passants"]


def test_passant_census_h2():
    ctx = tower(2)
    assert so.passant_census(ctx) == 120 == conic.passants(ctx)["passants"]


def test_unreached_passant_and_a_line_off_its_pair(monkeypatch):
    """Lines that are all distinct passants but miss their reps, and a census
    that exceeds the pairs, are named by the checks after the set checks
    (the set checks themselves fail through the CLI in test_certify)."""
    ctx = tower(2)
    reps = pair_reps(ctx)
    a, b = conic.pair_lines(ctx)
    # pairs 0 and 1 exchange their lines: still the passants, but off their reps
    so.fault_pair_lines(monkeypatch, lambda a, b: (a.__setitem__([0, 1], a[[1, 0]]),
                                                   b.__setitem__([0, 1], b[[1, 0]])))
    block = conic.passants(ctx)
    assert block["lines"] == block["passants"] == 120 and not block["joins_conjugate_points"]
    assert block["first_discrepancy"] == {"index": 0, "rep": reps[0],
                                          "line": [int(a[1]), int(b[1]), 1],
                                          "check": "joins_conjugate_points"}
    # pair 0 dropped: its line is the passant no pair reaches
    t, conj = conic.pair_arrays(ctx)
    monkeypatch.setattr(conic, "pair_arrays", lambda ctx: (t[1:], conj[1:]))
    monkeypatch.setattr(conic, "pair_lines", lambda ctx: (a[1:], b[1:]))
    block = conic.passants(ctx)
    assert block["first_discrepancy"] == {"line": [int(a[0]), int(b[0]), 1],
                                          "check": "passant_not_reached"}
    assert so.line_dual(ctx, so.pair_line(ctx, reps[0])) == geometry.normalize_point(
        ctx, tuple(block["first_discrepancy"]["line"]))


def test_valency_identity_against_family_formula():
    from hxpw.schemes import expected_p_matrix
    for h in (1, 2, 3):
        q = tower(h).q
        row0 = expected_p_matrix(q)[0]
        assert sum(row0) == (q ** 4 - q ** 2) // 2


def test_bulk_matches_scalar_classification():
    for h in (1, 2):
        ctx = tower(h)
        reps = pair_reps(ctx)
        table = conic.table_bundle(ctx)["table"]
        for i, j in itertools.combinations(range(len(reps)), 2):
            assert table[i, j] == classify(ctx, reps[i], reps[j])
    ctx = tower(3)
    reps = pair_reps(ctx)
    table = conic.table_bundle(ctx)["table"]
    rng = random.Random(8)
    for _ in range(400):
        i, j = rng.sample(range(len(reps)), 2)
        assert table[i, j] == classify(ctx, reps[i], reps[j])
