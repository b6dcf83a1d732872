import itertools
import random
import tracemalloc

import numpy as np
import pytest

from hxpw import conic
from hxpw import geometry as g
from hxpw import hemisystem as hs
from hxpw.conic import pair_reps, nu
from hxpw.fields import tower
from hxpw.hemisystem import StructureError
from hxpw.schemes import WALK_ROWS

import scalar_oracles as so


def _hemi_line(ctx, t):
    """m_t through scalar linear algebra, the oracle of `build_hemisystem`:
    (rep, canonical line, point set, w, w')."""
    r1 = so.rational_vector(ctx, t, 1)
    r2 = so.rational_vector(ctx, t, ctx.omega)
    line = g.line_through(ctx, r1, r2)
    points = frozenset(g.line_points(ctx, line))
    for p in points:
        assert g.is_isotropic(ctx, p) and not g.is_w_point(ctx, p)
    return t, line, points, hs.w_vec(ctx, t), hs.w_prime_vec(ctx, t)


def _line(ctx, lines, i):
    """Line i of a line set in the form of `_hemi_line`."""
    return (int(lines["reps"][i]), so.line_tuple(lines["rows"][i]),
            so.points_of(ctx, lines["codes"][i]), tuple(lines["w"][i].tolist()),
            tuple(lines["w_prime"][i].tolist()))


def _members(S, i):
    """The extended lines in the spread of line i: the nonzero columns of S[i]."""
    return set(np.flatnonzero(S[i]).tolist())


def _trace_to_base(ctx, a):
    """Trace from GF(q^4) down to GF(q): a + a^q + a^(q^2) + a^(q^3)."""
    t = a
    for _ in range(3):
        a = ctx.frob_q(a)
        t ^= a
    return t


def _oracle_lines(h):
    """(ctx, indices) of every line at h <= 2 and of 200 seeded lines at h = 3."""
    ctx = tower(h)
    n = len(pair_reps(ctx))
    return ctx, range(n) if h < 3 else sorted(random.Random(99).sample(range(n), 200))


# ---------------------------------------------------------------------------
# the rank-1 parametrization

def test_theta_substitutions():
    ctx = tower(2)
    assert hs.theta(ctx, 0) == (1, 0, 0, 0)
    assert hs.theta(ctx, hs.INF) == (0, 0, 0, 1)


def test_theta_image_singular_on_middle_field():
    ctx = tower(2)
    for t in ctx.subfield(2 * ctx.h):
        v = hs.theta_vec(ctx, t)
        assert g.is_wvector(ctx, v)
        assert g.qhat(ctx, v) == 0
    assert g.qhat(ctx, hs.theta_vec(ctx, hs.INF)) == 0


# ---------------------------------------------------------------------------
# line construction

def test_lines_injective_and_counted(lines_2):
    assert {k: v.shape for k, v in lines_2.items()} == {
        "reps": (120,), "rows": (120, 2, 4), "codes": (120, 17), "w": (120, 6),
        "w_prime": (120, 6)}
    assert not any(v.flags.writeable for v in lines_2.values())
    assert len(set(map(so.line_tuple, lines_2["rows"]))) == 120


def test_lines_isotropic_and_external(lines_2, ctx2):
    wset = so.w_point_set(ctx2)
    for codes in lines_2["codes"]:
        points = so.points_of(ctx2, codes)
        assert len(points) == 17
        for p in points:
            assert g.is_isotropic(ctx2, p)
            assert p not in wset


def test_bulk_lines_match_scalar_oracle():
    for h in (1, 2, 3):
        ctx, idx = _oracle_lines(h)
        lines = hs.build_hemisystem(ctx)
        twins = hs.tau_lines(ctx, lines)
        for i in idx:
            rep, line, points, w, w_prime = _line(ctx, lines, i)
            assert (rep, line, points, w, w_prime) == _hemi_line(ctx, pair_reps(ctx)[i])
            tl = so.tau_line(ctx, line)
            assert _line(ctx, twins, i) == (
                rep, tl, frozenset(g.line_points(ctx, tl)), w_prime, w)
        # codes in the `line_points` order of the canonical rows, as `line_census` reads them
        assert [g.decode_point(ctx, c) for c in lines["codes"][0]] == g.line_points(
            ctx, so.line_tuple(lines["rows"][0]))


def test_bulk_construction_rejects_bad_lines():
    """Line 7 replaced by a W-line, a secant line and a repeated row."""
    ctx = tower(2)
    reps = pair_reps(ctx)
    cases = ((g.w_line_index(ctx)["lines"][0], "meets the symplectic substructure"),
             (((1, 0, 0, 0), (0, 0, 0, 1)), "not isotropic"),
             (((1, 0, 0, 0), (1, 0, 0, 0)), "rank < 2"))
    for rows, message in cases:
        R1, R2 = hs._rational_rows(ctx)
        R1[7], R2[7] = rows
        with pytest.raises(StructureError, match=f"{message}.*\\(t={reps[7]}\\)"):
            hs._line_set(ctx, reps, R1, R2, *np.zeros((2, 120, 6), dtype=np.int64))


def test_tau_involution_on_random_lines():
    ctx = tower(2)
    rng = random.Random(5)
    F = ctx.subfield(2 * ctx.h)
    made = 0
    while made < 1000:
        u = tuple(rng.choice(F) for _ in range(4))
        v = tuple(rng.choice(F) for _ in range(4))
        try:
            line = g.line_through(ctx, u, v)
        except ValueError:
            continue
        made += 1
        assert so.tau_line(ctx, so.tau_line(ctx, line)) == line


def test_tau_fixes_extended_lines_h1():
    ctx = tower(1)
    for line in g.w_line_index(ctx)["lines"]:
        assert so.tau_line(ctx, line) == line


def test_tau_orbits_disjoint():
    for h in (1, 2):
        ctx = tower(h)
        mset = set(map(so.line_tuple, hs.build_hemisystem(ctx)["rows"]))
        tset = {so.tau_line(ctx, line) for line in mset}
        assert not mset & tset
        assert len(tset) == len(mset)


# ---------------------------------------------------------------------------
# hemisystem covering

def test_hemisystem_property_small():
    for h, cover in ((1, 1), (2, 2)):
        ctx = tower(h)
        report = hs.verify_hemisystem(ctx, hs.build_hemisystem(ctx))
        assert report["pass"]
        assert report["cover"] == cover


def _cover_oracle(ctx, lines):
    """verify_hemisystem through a dict over point tuples."""
    wset = so.w_point_set(ctx)
    counts = {}
    for codes in lines["codes"]:
        for p in so.points_of(ctx, codes):
            counts[p] = counts.get(p, 0) + 1
    bad = []
    for p in so.hermitian_points(ctx):
        expected = 0 if p in wset else ctx.q // 2
        if counts.get(p, 0) != expected:
            bad.append({"point": list(p), "count": counts.get(p, 0), "expected": expected})
    return bad


def test_cover_counts_match_dict_oracle(lines_2, ctx2):
    """Two lines dropped and one repeated: both counts name the same points."""
    lines = so.take(lines_2, [*range(2, 120), 5])
    report = hs.verify_hemisystem(ctx2, lines)
    bad = _cover_oracle(ctx2, lines)
    assert not report["pass"] and report["violation_count"] == len(bad) > 16
    assert report["violations"] == bad[:16]
    assert report["external_points"] == 1020 and report["cover"] == 2


def test_cover_double_count():
    for h in (1, 2, 3):
        ctx = tower(h)
        q = ctx.q
        n_lines = (q ** 4 - q ** 2) // 2
        externals = (q * q + 1) * (q ** 3 + 1) - (q + 1) * (q * q + 1)
        assert n_lines * (q * q + 1) == externals * (q // 2)


# ---------------------------------------------------------------------------
# subtended spreads

def _line_set_of(ctx, reps, lines):
    """The `spread_map` input of the canonical `lines`, from their scalar points."""
    return {"reps": np.array(reps), "codes": g.point_codes(
        ctx, np.array([g.line_points(ctx, line) for line in lines]))}


def test_spread_sizes(ctx2, lines_2, S_2):
    assert S_2.shape == (120, 85) and set(S_2.sum(axis=1).tolist()) == {17}


def test_bulk_spreads_match_meeting_lines():
    for h in (1, 2, 3):
        ctx, idx = _oracle_lines(h)
        lines = so.take(hs.build_hemisystem(ctx), idx)
        S = hs.spread_map(ctx, lines)
        wl = g.w_line_index(ctx)["lines"]
        for i, codes in enumerate(lines["codes"]):
            assert {wl[k] for k in _members(S, i)} == {
                g.w_meeting_line_through(ctx, p) for p in so.points_of(ctx, codes)}


def test_spread_map_rejects_a_w_line(ctx2):
    line = g.w_line_index(ctx2)["lines"][0]
    with pytest.raises(StructureError, match="of rep=0 is not an external point"):
        hs.spread_map(ctx2, _line_set_of(ctx2, [0], [line]))


def test_tau_line_subtends_same_spread(ctx2, lines_2, S_2):
    twins = [so.tau_line(ctx2, so.line_tuple(rows)) for rows in lines_2["rows"][:40]]
    tau_S = hs.spread_map(ctx2, _line_set_of(ctx2, lines_2["reps"][:40], twins))
    assert np.array_equal(tau_S, S_2[:40])


def test_spread_intersections_dichotomy(ctx2, lines_2, S_2):
    q = ctx2.q
    points = [set(codes.tolist()) for codes in lines_2["codes"]]
    for a, b in itertools.combinations(range(120), 2):
        if points[a] & points[b]:
            continue
        k = len(_members(S_2, a) & _members(S_2, b))
        assert k in (1, q + 1)


# ---------------------------------------------------------------------------
# the three classification routes

def _geometric_oracle(ctx, lines, S):
    """geometric_class on every pair, row by row, naming the reps of a pair it rejects."""
    reps, n = lines["reps"], len(lines["reps"])
    points = [set(codes.tolist()) for codes in lines["codes"]]
    table = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                table[i, j] = table[j, i] = hs.geometric_class(
                    ctx, points[i], points[j], _members(S, i), _members(S, j))
            except StructureError as exc:
                raise StructureError(f"reps {reps[i]}, {reps[j]}: {exc}")
    return table


def _geometric_table(ctx, lines, S=None):
    """`geometric_table` on the spread incidence S, by default the lines' own."""
    return hs.geometric_table(ctx, lines, hs.spread_map(ctx, lines) if S is None else S)


def test_bulk_geometric_table_matches_scalar_loop():
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        S = hs.spread_map(ctx, lines)
        assert np.array_equal(_geometric_table(ctx, lines, S), _geometric_oracle(ctx, lines, S))


def test_bulk_geometric_table_raises_where_the_loop_does(ctx2, lines_2, S_2):
    """A repeated line shares all its points; a member dropped from a spread
    breaks the 1 or q + 1 count.  Both report the first bad pair in row order."""
    shrunk = S_2[:12].copy()
    shrunk[4, np.argmax(shrunk[4])] = 0
    for lines, S in ((so.take(lines_2, [*range(12), 3]), S_2[[*range(12), 3]]),
                     (so.take(lines_2, range(12)), shrunk)):
        with pytest.raises(StructureError) as loop:
            _geometric_oracle(ctx2, lines, S)
        with pytest.raises(StructureError) as bulk:
            _geometric_table(ctx2, lines, S)
        assert str(bulk.value) == str(loop.value)


def test_geometric_row_valencies(ctx2, lines_2, S_2):
    table = _geometric_table(ctx2, lines_2, S_2)
    for i in range(120):
        counts = {k: int(np.count_nonzero(table[i] == k)) for k in (1, 2, 3)}
        assert counts == {1: 17, 2: 34, 3: 68}
        assert np.array_equal(table[i], table[:, i])


def test_h1_geometric_all_class_two():
    ctx = tower(1)
    lines = hs.build_hemisystem(ctx)
    table = _geometric_table(ctx, lines)
    off = table[~np.eye(len(table), dtype=bool)]
    assert set(off.tolist()) == {2}


def test_klein_equals_geometric(ctx2, lines_2, S_2, pw_bundle_2):
    geo = _geometric_table(ctx2, lines_2, S_2)
    assert np.array_equal(geo, pw_bundle_2["table"])
    ctx1 = tower(1)
    geo1 = _geometric_table(ctx1, hs.build_hemisystem(ctx1))
    assert np.array_equal(geo1, hs.klein_table_bundle(ctx1)["table"])


@pytest.fixture(scope="module")
def lines_S_3(ctx3):
    lines = hs.build_hemisystem(ctx3)
    return lines, hs.spread_map(ctx3, lines)


def _geometric_whole_matrix(ctx, lines, S):
    """`geometric_table` with every count and mask formed n x n at once: the
    shared points from np.unique over all line pairs, the spreads from S S^T."""
    reps, codes = lines["reps"], lines["codes"]
    n, k = codes.shape
    flat = codes.ravel()
    order = np.argsort(flat, kind="stable")
    flat, line = flat[order], order // k
    pairs = [np.zeros(0, dtype=np.int64)]
    for d in range(1, k * n):
        same = flat[d:] == flat[:-d]
        if not same.any():
            break
        pairs.append(line[:-d][same] * n + line[d:][same])
    pair, count = np.unique(np.concatenate(pairs), return_counts=True)
    shared = np.zeros((n, n), dtype=np.uint8)
    shared[pair // n, pair % n] = count
    shared = shared + shared.T
    common = S @ S.T
    bad = np.triu((shared > 1) | ((shared == 0) & (common != 1) & (common != ctx.q + 1)), 1)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        raise StructureError(f"reps {reps[i]}, {reps[j]}: " + (
            f"lines share {shared[i, j]} points" if shared[i, j] > 1 else
            f"spreads share {int(common[i, j])} lines (expected 1 or q+1)"))
    table = np.where(shared == 1, np.int8(1), np.where(common == 1, np.int8(2), np.int8(3)))
    np.fill_diagonal(table, 0)
    return table


def test_row_blocks_give_the_whole_matrix_table(ctx3, lines_S_3):
    lines, S = lines_S_3
    assert len(lines["reps"]) > 2 * WALK_ROWS  # several row blocks
    table = hs.geometric_table(ctx3, lines, S)
    assert table.dtype == np.int8
    assert np.array_equal(table, _geometric_whole_matrix(ctx3, lines, S))


@pytest.mark.parametrize("fault", ["repeated_line", "copied_spread"])
def test_row_block_fault_past_the_first_block(ctx3, lines_S_3, fault):
    """Line L, past the first row block, is replaced by line L - 1 (they then
    share every point), or only its spread is (disjoint lines then share all
    q^2 + 1 members).  Every earlier pair stays valid, so the first bad pair
    is (L - 1, L) in both routes, with the same message."""
    lines, S = lines_S_3
    L = WALK_ROWS + 44
    assert not set(lines["codes"][L - 1].tolist()) & set(lines["codes"][L].tolist())
    idx = np.arange(len(S))
    idx[L] = L - 1
    if fault == "repeated_line":
        lines = so.take(lines, idx)
    S = S[idx]
    with pytest.raises(StructureError) as whole:
        _geometric_whole_matrix(ctx3, lines, S)
    with pytest.raises(StructureError) as blocks:
        hs.geometric_table(ctx3, lines, S)
    reps = lines["reps"]
    assert str(blocks.value) == str(whole.value)
    assert str(blocks.value).startswith(f"reps {reps[L - 1]}, {reps[L]}: " + (
        "lines share 65 points" if fault == "repeated_line" else "spreads share 65 lines"))


def test_geometric_table_peak_memory(ctx3, lines_S_3):
    """Peak allocation of `geometric_table` at h = 3, in bytes per table
    entry: under the four that S S^T alone takes when it is formed whole in
    float32 (9.0 with the whole-matrix counts and masks, 3.7 by row blocks)."""
    lines, S = lines_S_3
    n = len(S)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = hs.geometric_table(ctx3, lines, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (n, n)
    assert (peak - start) / n ** 2 < 4


def test_klein_equals_conic(hx_bundle_2, pw_bundle_2):
    assert np.array_equal(hx_bundle_2["table"], pw_bundle_2["table"])


def test_factorization_sweep(pw_bundle_2):
    assert pw_bundle_2["factorization_failure"] is None
    assert pw_bundle_2["shift_failure"] is None


@pytest.mark.parametrize("key", ["x", "xq", "y", "yq", "z", "zq", "tr"])
def test_klein_identities_read_every_coordinate(ctx2, key):
    """One flipped bit in the first or the last entry of any Klein coordinate
    array breaks the radical factorization, the pairing shift, or the class
    (both pairings vanish): a sweep that never read the entry would pass."""
    n = len(hs.klein_arrays(ctx2)["x"])
    for idx in (0, n - 1):
        A = {k: v.copy() for k, v in hs.klein_arrays(ctx2).items()}
        A[key][idx] ^= 1
        try:
            failures = [f for si, ti in conic.pair_chunks(n)
                        for f in hs.klein_classify_pairs(ctx2, A, si, ti)[1:]]
        except StructureError:
            continue
        assert any(f is not None for f in failures), (key, idx)


@pytest.mark.parametrize("kernel, bound", [("classify_pairs", 8), ("klein_classify_pairs", 10)])
def test_sweep_kernel_peak_memory(ctx3, kernel, bound):
    """Peak allocation of one kernel call on the first h = 3 block, in
    int64 arrays of the block's length; the sweep's working set is this
    times PAIR_CHUNK."""
    A = hs.klein_arrays(ctx3)
    # the cached tables are built before tracing: they are not the kernel's
    conic.pair_arrays(ctx3)
    conic.trace_sets(ctx3)
    si, ti = next(conic.pair_chunks(len(pair_reps(ctx3))))
    call = {"classify_pairs": lambda: conic.classify_pairs(ctx3, si, ti),
            "klein_classify_pairs": lambda: hs.klein_classify_pairs(ctx3, A, si, ti)}[kernel]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[2] is None  # the closed form, or the pairing shift, holds on the block
    assert (peak - start) / (8 * si.size) <= bound


def test_nu_dictionary(ctx2, pw_bundle_2):
    """Class 1 iff the bridge invariant lies in GF(q); class 2 iff its
    q-power differs from it by exactly 1."""
    reps = pair_reps(ctx2)
    table = pw_bundle_2["table"]
    for i, j in itertools.combinations(range(len(reps)), 2):
        v = nu(ctx2, reps[i], reps[j])
        cls = int(table[i, j])
        assert (cls == 1) == ctx2.in_subfield(v, ctx2.h)
        assert (cls == 2) == (ctx2.frob_q(v) ^ v == 1)


def test_klein_scalar_never_double_vanishes(ctx2):
    reps = pair_reps(ctx2)
    for s, t in itertools.combinations(reps, 2):
        cls, b1, b2 = hs.klein_class_scalar(ctx2, s, t)
        assert not (b1 == 0 and b2 == 0)
        assert cls in (1, 2, 3)


# ---------------------------------------------------------------------------
# Klein image bookkeeping

def test_klein_images_match_explicit_vectors():
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        for i in range(len(lines["reps"])):
            _, line, _, w, w_prime = _line(ctx, lines, i)
            assert g.normalize_point(ctx, g.klein_map(ctx, line)) == g.normalize_point(ctx, w)
            assert (g.normalize_point(ctx, g.klein_map(ctx, so.tau_line(ctx, line)))
                    == g.normalize_point(ctx, w_prime))
    ctx = tower(3)
    rng = random.Random(14)
    for t in rng.sample(pair_reps(ctx), 50):
        _, line, _, w, _ = _hemi_line(ctx, t)
        assert g.normalize_point(ctx, g.klein_map(ctx, line)) == g.normalize_point(ctx, w)


def test_w0_on_every_secant():
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        for w, w_prime in zip(lines["w"].tolist(), lines["w_prime"].tolist()):
            span = so.vt_span_points(ctx, [w, w_prime])
            assert so.vt_normalize(ctx, g.W0) in span
    # h = 3 algebraic form: w + w' is a nonzero GF(q)-multiple of the pivot
    ctx = tower(3)
    A = hs.klein_arrays(ctx)
    assert np.all(A["tr"] != 0)


def test_spread_image_is_perp_section(ctx2, lines_2, S_2):
    q4set = so.parabolic_point_set(ctx2)
    wl = g.w_line_index(ctx2)["lines"]
    for i in range(30):
        perp = so.vt_perp(ctx2, [lines_2["w"][i].tolist(), lines_2["w_prime"][i].tolist()])
        section = {p for p in so.vt_span_points(ctx2, perp) if p in q4set}
        image = {so.klein_vt(ctx2, wl[k]) for k in _members(S_2, i)}
        assert section == image


def test_radical_vector_orthogonal_to_plane(ctx2, lines_2):
    rng = random.Random(21)
    w0 = so.vt_from_coords(ctx2, so.vt_coords(ctx2, g.W0))
    reps, ws = lines_2["reps"].tolist(), lines_2["w"].tolist()
    for _ in range(300):
        a, b = rng.sample(range(120), 2)
        trs = _trace_to_base(ctx2, ctx2.mul(reps[a], ctx2.frob_q(reps[a])))
        trt = _trace_to_base(ctx2, ctx2.mul(reps[b], ctx2.frob_q(reps[b])))
        b1 = g.bt(ctx2, ws[a], ws[b])
        v = tuple(ctx2.mul(trt, x) ^ ctx2.mul(b1, y) ^ ctx2.mul(trs, z)
                  for x, y, z in zip(ws[a], w0, ws[b]))
        for u in (ws[a], w0, ws[b]):
            assert g.bt(ctx2, v, u) == 0


# ---------------------------------------------------------------------------
# group action

def test_chi_identity_fixes_points():
    ctx = tower(2)
    M = hs.chi_matrix(ctx, ((1, 0), (0, 1)))
    rng = random.Random(2)
    F = ctx.subfield(2 * ctx.h)
    for _ in range(50):
        v = tuple(rng.choice(F) for _ in range(4))
        if not any(v):
            continue
        assert hs.apply4(ctx, M, v) == v


def test_chi_transvection_explicit_image():
    ctx = tower(2)
    rng = random.Random(6)
    F = ctx.subfield(2 * ctx.h)
    Fq = ctx.subfield(ctx.h)
    for _ in range(100):
        a = rng.choice(F[1:])
        M = hs.chi_matrix(ctx, ((1, 0), (a, 1)))
        al, be, x = rng.choice(Fq), rng.choice(Fq), rng.choice(F)
        v = (al, ctx.frob_q(x), x, be)
        aq = ctx.frob_q(a)
        expected = (al,
                    ctx.mul(aq, al) ^ ctx.frob_q(x),
                    ctx.mul(a, al) ^ x,
                    ctx.mul(ctx.mul(a, aq), al) ^ ctx.mul(a, ctx.frob_q(x))
                    ^ ctx.mul(aq, x) ^ be)
        assert hs.apply4(ctx, M, v) == expected


def test_chi_rejects_singular():
    ctx = tower(2)
    with pytest.raises(ValueError):
        hs.chi_matrix(ctx, ((1, 1), (1, 1)))


def test_equivariance_sampled():
    for h in (2, 3):
        ctx = tower(h)
        report = hs.verify_equivariance(ctx, samples=100, seed=h)
        assert report["pass"], report


def test_lambda_is_primitive_in_the_middle_field():
    for h in (1, 2, 3, 4):
        ctx = tower(h)
        lam = hs.mobius_generators(ctx)["t -> lambda t"][1][1]
        powers, x = set(), 1
        for _ in range(ctx.q2 - 1):
            x = ctx.mul(x, lam)
            powers.add(x)
        assert powers == set(ctx.subfield(2 * h)) - {0}


def _passing_group_blocks(ctx, n, table):
    return {"orbit": {"pass": True, "orbit_size": n, "expected": n, "escaped": 0},
            "automorphisms": {
                "pass": True, "points": ctx.size + 1, "diagram_failures": 0,
                "form_failures": 0, "symplectic_failures": 0, "twin_failures": 0,
                "table_failures": table,
                "generators": {name: [list(r) for r in g]
                               for name, g in hs.mobius_generators(ctx).items()}}}


def test_automorphisms_at_every_h_with_tables():
    for h, n in ((1, 6), (2, 120), (3, 2016)):
        ctx = tower(h)
        fine = conic.table_bundle(ctx)["fine_table"]
        assert hs.verify_automorphisms(ctx, fine) == _passing_group_blocks(ctx, n, 0)


def test_automorphisms_at_h4():
    ctx = tower(4)
    assert hs.verify_automorphisms(ctx) == _passing_group_blocks(ctx, 32640, "skipped")


def test_generators_map_lines_to_lines_scalar():
    """The orbit claim by scalar code: each generator maps m_t onto m_{g.t},
    never onto a tau twin, and the Moebius maps reach every pair from index 0."""
    for h in (1, 2):
        ctx = tower(h)
        lines = list(map(so.line_tuple, hs.build_hemisystem(ctx)["rows"]))
        reps = pair_reps(ctx)
        twins = {so.tau_line(ctx, line) for line in lines}
        for g_ in hs.mobius_generators(ctx).values():
            M = hs.chi_matrix(ctx, g_)
            for t, line in zip(reps, lines):
                image = g.line_through(ctx, *(hs.apply4(ctx, M, r) for r in line))
                u = hs.moebius(ctx, g_, t)
                assert image == lines[reps.index(min(u, ctx.conj(u)))]
                assert image not in twins
        assert so.moebius_orbit(ctx, hs.mobius_generators(ctx).values()) == set(range(len(reps)))


def test_automorphisms_catch_a_table_that_is_not_invariant():
    ctx = tower(2)
    fine = conic.table_bundle(ctx)["fine_table"].copy()
    i, j = 3, 9
    other = next(v for v in range(1, fine.max() + 1) if v != fine[i, j])
    fine[i, j] = fine[j, i] = other
    auto = hs.verify_automorphisms(ctx, fine)["automorphisms"]
    assert not auto["pass"] and auto["table_failures"] > 0
    first = auto["first_discrepancy"]
    assert first["check"] == "table" and first["rep"] == pair_reps(ctx)[first["index"]]
    # by hand: row `index` of the table and of its image under the generator differ
    pi = [pair_reps(ctx).index(min(u, ctx.conj(u))) for u in (
        hs.moebius(ctx, hs.mobius_generators(ctx)[first["generator"]], t)
        for t in pair_reps(ctx))]
    r = first["index"]
    assert any(fine[pi[r], pi[c]] != fine[r, c] for c in range(len(pi)))


def test_line_census_two_orbits():
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        report = hs.line_census(ctx, lines, hs.tau_lines(ctx, lines))
        assert report["pass"], report


def test_line_census_matches_the_enumeration():
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        assert hs.line_census(ctx, lines, hs.tau_lines(ctx, lines)) == so.line_census(ctx)


def _swap_klein_vectors(lines, i):
    """The line set with w and w' of line i exchanged."""
    w, w_prime = lines["w"].copy(), lines["w_prime"].copy()
    w[i], w_prime[i] = lines["w_prime"][i], lines["w"][i]
    return {**lines, "w": w, "w_prime": w_prime}


def _shift_klein_vector(lines, i):
    """The line set with W0 added to w of line i."""
    w = lines["w"].copy()
    w[i] ^= np.array(g.W0)
    return {**lines, "w": w}


def test_klein_images_match_the_span_oracle(monkeypatch):
    for h in (1, 2):
        ctx = tower(h)
        lines = hs.build_hemisystem(ctx)
        tau = hs.tau_lines(ctx, lines)
        S = hs.spread_map(ctx, lines)
        clean = hs.klein_images(ctx, lines, tau, S)
        assert clean["pass"] and clean == so.klein_images(ctx, lines, S)
        for fault in (_swap_klein_vectors, _shift_klein_vector):
            bad = fault(lines, 3)
            faulty = hs.klein_images(ctx, bad, tau, S)
            assert faulty["first_discrepancy"] == {
                "line_index": 3, "rep": pair_reps(ctx)[3], "check": "projective_mismatches"}
            del faulty["first_discrepancy"]
            assert faulty == so.klein_images(ctx, bad, S)
        with monkeypatch.context() as mp:
            assert so.qt(ctx, so.perturb_klein_image(mp, ctx, 0)[1]) == 1
            faulty = hs.klein_images(ctx, lines, tau, S)
            oracle = so.klein_images(ctx, lines, S)
        assert not faulty["pass"] and faulty["spread_image_mismatches"] > 0
        assert faulty["first_discrepancy"]["check"] == "spread_image_mismatches"
        assert {k: v for k, v in faulty.items() if k != "first_discrepancy"} == oracle
