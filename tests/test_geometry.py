import itertools
import random

import numpy as np
import pytest

from hxpw import geometry as g
from hxpw import hemisystem as hs
from hxpw.fields import tower

import scalar_oracles as so


def _random_q2_vec(ctx, rng, width=4):
    F = ctx.subfield(2 * ctx.h)
    while True:
        v = tuple(rng.choice(F) for _ in range(width))
        if any(v):
            return v


def _random_wvec(ctx, rng):
    Fq = ctx.subfield(ctx.h)
    F = ctx.subfield(2 * ctx.h)
    while True:
        a, b, x = rng.choice(Fq), rng.choice(Fq), rng.choice(F)
        if a or b or x:
            return (a, ctx.frob_q(x), x, b)


def _random_line(ctx, rng):
    while True:
        u = _random_q2_vec(ctx, rng)
        v = _random_q2_vec(ctx, rng)
        try:
            return g.line_through(ctx, u, v)
        except ValueError:
            continue


def _all_lines(ctx):
    """Every line of PG(3, q^2), by point-pair spans (small q only)."""
    pts = list(so.projective_points(ctx, 4))
    seen = set()
    for i, p in enumerate(pts):
        for s in pts[i + 1:]:
            try:
                seen.add(g.line_through(ctx, p, s))
            except ValueError:
                continue
    return seen


# ---------------------------------------------------------------------------
# hermitian form

def test_hermitian_substitutions():
    ctx = tower(2)
    e1 = (1, 0, 0, 0)
    e4 = (0, 0, 0, 1)
    assert g.hermitian(ctx, e1, e1) == 0
    assert g.hermitian(ctx, e1, e4) == 1


def test_hermitian_sesquilinear_symmetry():
    ctx = tower(2)
    rng = random.Random(2)
    for _ in range(1000):
        u = _random_q2_vec(ctx, rng)
        v = _random_q2_vec(ctx, rng)
        assert g.hermitian(ctx, u, v) == ctx.frob_q(g.hermitian(ctx, v, u))


def test_isotropic_point_counts():
    for h, expected in ((1, 45), (2, 1105), (3, 33345)):
        ctx = tower(h)
        pts = so.hermitian_points(ctx)
        assert len(pts) == expected
        assert len(set(pts)) == expected


def test_isotropic_enumeration_matches_bruteforce_h1():
    ctx = tower(1)
    brute = {p for p in so.projective_points(ctx, 4) if g.is_isotropic(ctx, p)}
    assert brute == set(so.hermitian_points(ctx))


def test_hermitian_codes_match_bruteforce_h2():
    ctx = tower(2)
    codes = g.hermitian_codes(ctx)
    assert np.all(codes[1:] > codes[:-1])
    brute = [p for p in so.projective_points(ctx, 4) if g.is_isotropic(ctx, p)]
    assert np.array_equal(codes, np.sort(g.point_codes(ctx, np.array(brute))))


# ---------------------------------------------------------------------------
# pattern vectors and their forms

def test_qhat_bhat_substitutions():
    ctx = tower(2)
    assert g.qhat(ctx, (1, 0, 0, 0)) == 0
    assert so.bhat(ctx, (1, 0, 0, 0), (0, 0, 0, 1)) == 1


def test_polarization_identity():
    ctx = tower(2)
    rng = random.Random(12)
    for _ in range(1000):
        u = _random_wvec(ctx, rng)
        v = _random_wvec(ctx, rng)
        s = tuple(a ^ b for a, b in zip(u, v))
        if not any(s):
            continue
        assert g.qhat(ctx, s) == g.qhat(ctx, u) ^ g.qhat(ctx, v) ^ so.bhat(ctx, u, v)


def test_bhat_rejects_bad_pattern():
    ctx = tower(2)
    bad = (1, 1, 0, 0)  # second coordinate is not the q-power of the third
    with pytest.raises(ValueError):
        g.qhat(ctx, bad)
    with pytest.raises(ValueError):
        so.bhat(ctx, bad, (1, 0, 0, 0))


def test_w_point_set_count_and_isotropy():
    for h in (1, 2, 3):
        ctx = tower(h)
        q = ctx.q
        wset = so.w_point_set(ctx)
        assert len(wset) == (q + 1) * (q * q + 1)
        assert all(g.is_isotropic(ctx, p) for p in wset)
        W = g.w_points(ctx)
        assert [tuple(p) for p in W.tolist()] == sorted(wset)
        assert np.array_equal(g.w_point_codes(ctx), np.sort(g.point_codes(ctx, W)))


def test_is_w_point_matches_membership_exhaustively_h1():
    ctx = tower(1)
    wset = so.w_point_set(ctx)
    for p in so.projective_points(ctx, 4):
        assert g.is_w_point(ctx, p) == (p in wset), p


# ---------------------------------------------------------------------------
# lines through points

def test_h_lines_through_counts():
    for h in (1, 2):
        ctx = tower(h)
        q = ctx.q
        wset = so.w_point_set(ctx)
        pts = so.hermitian_points(ctx)
        sample = pts if h == 1 else random.Random(4).sample(pts, 60)
        for p in sample:
            lt = g.h_lines_through(ctx, p)
            assert len(lt) == q + 1
            meets = sum(1 for _, m in lt if m)
            if p not in wset:
                assert meets == 1
                assert len(lt) - meets == q
            else:
                assert meets == q + 1  # every line through an interior point


def test_h_lines_through_rejects_anisotropic():
    ctx = tower(1)
    bad = next(p for p in so.projective_points(ctx, 4) if not g.is_isotropic(ctx, p))
    with pytest.raises(ValueError):
        g.h_lines_through(ctx, bad)


def test_fast_meeting_line_matches_search():
    for h in (1, 2):
        ctx = tower(h)
        wset = so.w_point_set(ctx)
        pts = [p for p in so.hermitian_points(ctx) if p not in wset]
        sample = pts if h == 1 else random.Random(9).sample(pts, 80)
        for p in sample:
            expected = [l for l, m in g.h_lines_through(ctx, p) if m]
            assert g.w_meeting_line_through(ctx, p) == expected[0]


# ---------------------------------------------------------------------------
# points and lines on arrays

def test_bulk_line_points_match_line_points():
    for h in (1, 2, 3):
        ctx = tower(h)
        rng = random.Random(30 + h)
        lines = [_random_line(ctx, rng) for _ in range(100)]
        rows = np.array(lines)
        P = g.line_points_arr(ctx, rows[:, 0], rows[:, 1])
        assert [[tuple(p) for p in pts] for pts in P.tolist()] == [
            g.line_points(ctx, line) for line in lines]
        c = ctx.subfield(2 * h)[-1]  # a GF(q^2) scalar other than 1
        for a, b in ((0, -1), (-1, 0), (1, -1)):  # the later lead first or last, or equal
            assert [tuple(map(tuple, r)) for r in
                    g.join_rows(ctx, P[:, a], P[:, b]).tolist()] == lines
            # join_rows normalizes its inputs itself
            assert np.array_equal(g.join_rows(ctx, ctx.mul_arr(c, P[:, a]), P[:, b]),
                                  g.join_rows(ctx, P[:, a], P[:, b]))
        codes = g.point_codes(ctx, P).ravel()
        tuples = [tuple(p) for p in P.reshape(-1, 4).tolist()]
        assert [g.decode_point(ctx, c) for c in codes] == tuples
        # codes order like the coordinate tuples
        assert np.array_equal(np.argsort(codes, kind="stable"),
                              sorted(range(len(tuples)), key=tuples.__getitem__))


def test_bulk_point_helpers_match_scalar():
    ctx = tower(2)
    rng = random.Random(8)
    vecs = [_random_q2_vec(ctx, rng) for _ in range(300)]
    assert [tuple(p) for p in g.normalize_points(ctx, vecs).tolist()] == [
        g.normalize_point(ctx, v) for v in vecs]
    U, V = np.array(vecs[:150]), np.array(vecs[150:])
    assert g.hermitian_arr(ctx, U, V).tolist() == [
        g.hermitian(ctx, u, v) for u, v in zip(vecs[:150], vecs[150:])]
    with pytest.raises(ValueError):
        g.normalize_points(ctx, [(1, 2, 3, 4), (0, 0, 0, 0)])


def test_point_codes_refuse_h4():
    with pytest.raises(ValueError):
        g.point_codes(tower(4), np.zeros((1, 4), dtype=np.int64))


def _scalar_w_lines(ctx):
    """w_lines through kernels of the alternating form, one W-point at a time."""
    F = ctx.subfield(ctx.h)

    def coords(v):
        return (v[0], *g.split_q2(ctx, v[2]), v[3])

    basis = [g.w_from_coords(ctx, tuple(1 if i == j else 0 for j in range(4)))
             for i in range(4)]
    reps = [g.w_from_coords(ctx, (0,) * lead + (1,) + tail)
            for lead in range(4) for tail in itertools.product(F, repeat=3 - lead)]
    out = {}
    for p in reps:
        kern = g.nullspace(ctx, [[so.bhat(ctx, p, bv) for bv in basis]], 4)
        pc = coords(p)
        u = next(k for k in kern if len(g.rref_rows(ctx, [pc, k])[0]) == 2)
        v = next(k for k in kern if len(g.rref_rows(ctx, [pc, u, k])[0]) == 3)
        for d in [v] + [tuple(a ^ ctx.mul(c, b) for a, b in zip(u, v)) for c in F]:
            line = g.line_through(ctx, p, g.w_from_coords(ctx, d))
            span, _ = g.rref_rows(ctx, [pc, d])
            combos = [(0, 1)] + [(1, c) for c in F]
            out.setdefault(line, frozenset(
                g.normalize_point(ctx, g.w_from_coords(ctx, tuple(
                    ctx.mul(a, x) ^ ctx.mul(b, y) for x, y in zip(*span))))
                for a, b in combos))
    return out


def test_w_lines_match_scalar_kernels():
    for h in (1, 2, 3):
        ctx = tower(h)
        q = ctx.q
        lines = so.w_lines(ctx)
        assert len(lines) == (q + 1) * (q * q + 1)
        assert lines == _scalar_w_lines(ctx)
        assert [so.line_tuple(rows) for rows in g.w_lines(ctx)] == list(lines)


def test_w_line_index_covers_external_points_once():
    for h in (1, 2, 3):
        ctx = tower(h)
        q = ctx.q
        index = g.w_line_index(ctx)
        wset = so.w_point_set(ctx)
        external = [p for p in so.hermitian_points(ctx) if p not in wset]
        assert len(external) == (q * q + 1) * (q ** 3 - q)
        codes = g.point_codes(ctx, np.array(external))
        pos = np.searchsorted(index["ext_codes"], codes)
        assert np.array_equal(index["ext_codes"][pos], codes)
        assert np.unique(index["ext_codes"]).size == len(external) == index["ext_codes"].size
        assert list(index["lines"]) == list(so.w_lines(ctx))
        owner = index["ext_line"][pos]
        sample = range(len(external)) if h < 3 else random.Random(3).sample(
            range(len(external)), 200)
        for k in sample:
            line = index["lines"][owner[k]]
            assert external[k] in g.line_points(ctx, line)
            assert g.w_meeting_line_through(ctx, external[k]) == line
        K = index["incidence"]
        assert K.shape == (len(index["lines"]), len(wset))
        assert set(K.sum(axis=0)) == set(K.sum(axis=1)) == {q + 1}


# ---------------------------------------------------------------------------
# Klein correspondence

def test_klein_map_basis_line():
    ctx = tower(2)
    line = g.line_through(ctx, (1, 0, 0, 0), (0, 1, 0, 0))
    assert g.klein_map(ctx, line) == (1, 0, 0, 0, 0, 0)


def test_klein_images_on_quadric():
    ctx = tower(2)
    rng = random.Random(7)
    for _ in range(1000):
        line = _random_line(ctx, rng)
        assert so.ambient_quadric(ctx, g.klein_map(ctx, line)) == 0


def test_klein_injective_on_all_lines_h1():
    ctx = tower(1)
    lines = _all_lines(ctx)
    assert len(lines) == 357  # gaussian binomial [4 choose 2] at q^2 = 4
    images = {g.klein_map(ctx, l) for l in lines}
    assert len(images) == len(lines)


def test_line_through_rejects_rank1():
    ctx = tower(1)
    with pytest.raises(ValueError):
        g.line_through(ctx, (1, 0, 0, 0), (1, 0, 0, 0))


# ---------------------------------------------------------------------------
# the conjugate-pattern 6-space

def test_qt_substitution_and_alternating():
    ctx = tower(2)
    assert so.qt(ctx, (0, 0, 1, 1, 0, 0)) == 1
    rng = random.Random(3)
    F = ctx.subfield(2 * ctx.h)
    for _ in range(300):
        x, y, z = (rng.choice(F) for _ in range(3))
        w = (x, ctx.frob_q(x), y, ctx.frob_q(y), z, ctx.frob_q(z))
        if not any(w):
            continue
        assert g.bt(ctx, w, w) == 0
        assert ctx.in_subfield(so.qt(ctx, w), ctx.h)


def test_qt_rejects_non_pattern():
    ctx = tower(2)
    with pytest.raises(ValueError):
        so.qt(ctx, (1, 0, 0, 0, 0, 0))


def test_hemisystem_images_singular():
    ctx = tower(2)
    from hxpw.conic import pair_reps
    for t in pair_reps(ctx):
        assert so.qt(ctx, hs.w_vec(ctx, t)) == 0


def _gamma_basis(ctx):
    """Basis of the hyperplane {(x, x^q, c, c, z, z^q) : c in GF(q)}."""
    rows = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    return [so.vt_from_coords(ctx, r) for r in rows]


def _in_gamma(ctx, w):
    assert g.is_vt(ctx, w)
    return ctx.in_subfield(w[2], ctx.h)


def test_perp_of_gamma_is_w0():
    for h in (1, 2):
        ctx = tower(h)
        perp = so.vt_perp(ctx, _gamma_basis(ctx))
        assert len(perp) == 1
        assert so.vt_normalize(ctx, perp[0]) == g.W0


def test_double_perp_h1():
    ctx = tower(1)
    basis = so.vt_basis(ctx)
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randrange(1, 5)
        ws = [basis[i] for i in rng.sample(range(6), k)]
        sub, _ = g.rref_rows(ctx, [so.vt_coords(ctx, w) for w in ws])
        pp = so.vt_perp(ctx, so.vt_perp(ctx, ws))
        back, _ = g.rref_rows(ctx, [so.vt_coords(ctx, w) for w in pp])
        assert back == sub


def test_perp_dimension_of_secant_lines():
    ctx = tower(2)
    from hxpw.conic import pair_reps
    for t in pair_reps(ctx):
        perp = so.vt_perp(ctx, [hs.w_vec(ctx, t), hs.w_prime_vec(ctx, t)])
        assert len(perp) == 4


def test_parabolic_quadric_inside_hyperplane():
    for h in (1, 2):
        ctx = tower(h)
        q = ctx.q
        q4 = so.parabolic_point_set(ctx)
        assert len(q4) == (q + 1) * (q * q + 1)
        assert all(_in_gamma(ctx, w) for w in q4)
        assert all(so.qt(ctx, w) == 0 for w in q4)


def test_singular_points_are_exactly_line_images():
    """The singular pattern points coincide with the Klein images of the
    totally isotropic lines (counted: a generalized quadrangle of order
    (q, q^2))."""
    for h in (1, 2):
        ctx = tower(h)
        q = ctx.q
        singular = {p for p in so.vt_span_points(ctx, list(so.vt_basis(ctx)))
                    if so.qt(ctx, p) == 0}
        assert len(singular) == (q + 1) * (q ** 3 + 1)
        images = set()
        for p in so.hermitian_points(ctx):
            for line, _ in g.h_lines_through(ctx, p):
                images.add(so.klein_vt(ctx, line))
        assert images == singular
