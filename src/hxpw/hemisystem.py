"""The polar-space side: hemisystem lines, subtended spreads, Klein data.

For each conjugate pair {t, t^(q^2)} the rational points of the extension
line joining (1, t^q, t, t^(q+1)) to its conjugate point form a totally
isotropic line m_t of the hermitian space that misses the symplectic
substructure entirely.  The set of all m_t covers every external isotropic
point exactly q/2 times (a relative hemisystem); its image under the
pattern-swapping involution tau is the disjoint twin hemisystem.

The scheme on the lines has three faces, all computed here:

* geometric: class 1 when two lines meet; otherwise class 2 or 3 by
  whether the subtended spreads share 1 or q+1 members.  A line set
  (`build_hemisystem`, `tau_lines`) is one dict of read-only arrays:
  ``reps``, canonical ``rows``, point ``codes`` and the Klein vectors ``w``
  and ``w_prime``.  `spread_map` turns it into the 0/1 spread incidence S,
  and `geometric_table` classifies every pair from the codes and S, with
  the scalar `geometric_class` as the per-pair definition;
* Klein-algebraic: class 1 when bt(w_s, w_t) = 0, class 2 when
  bt(w_s, w'_t) = 0, class 3 otherwise, where w_t / w'_t are the explicit
  Klein images of m_t / tau(m_t) and bt is the restricted alternating form;
* group-theoretic: PGL(2, q^2) acts on the pairs by Moebius maps and on
  the lines through chi(g) = g (x) g^[q]; `verify_automorphisms` shows on
  three generators, at every h, that {m_t} is a single orbit.

The radical identity qt(v) = bt(w_s, w_t) * bt(w_s, w'_t), with v the
radical of the plane spanned by w_s, w0, w_t, ties the first two faces
together and is swept exactly over all pairs, in `klein_classify_pairs`,
the one bulk evaluation of the Klein route.

The same arrays carry `line_census` (m_t, tau m_t and the extended GF(q)-
lines are all the totally isotropic lines) and `klein_images` (the Klein
images of the lines and of their spreads), in bulk at every h <= 3.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from . import geometry
from .conic import first_pair, pair_arrays, pair_chunks, pair_reps, shared_zeros, sweep_rows
from .schemes import WALK_ROWS

INF = "inf"  # projective-line point at infinity


StructureError = geometry.StructureError


# ---------------------------------------------------------------------------
# line construction

def theta_vec(ctx, t):
    """Representative vector of the rank-1 parametrization point."""
    if t == INF:
        return (0, 0, 0, 1)
    ctx.check(t)
    tq = ctx.frob_q(t)
    return (1, tq, t, ctx.mul(t, tq))


def theta(ctx, t):
    return geometry.normalize_point(ctx, theta_vec(ctx, t))


def w_vec(ctx, t):
    """Klein image vector of m_t, written in the conjugate pattern."""
    h = ctx.h
    tq, tq3 = ctx.frobenius(t, h), ctx.frobenius(t, 3 * h)
    x = tq ^ tq3
    n = ctx.mul(t, tq)                     # t^(q+1)
    y = n ^ ctx.conj(n)
    k = ctx.mul(n, tq3)                    # t^(1+q+q^3)
    z = k ^ ctx.conj(k)
    return (x, ctx.frob_q(x), y, ctx.frob_q(y), z, ctx.frob_q(z))


def w_prime_vec(ctx, t):
    """Klein image vector of tau(m_t): same as w_vec with the y-slot conjugated."""
    x, xq, y, yq, z, zq = w_vec(ctx, t)
    return (x, xq, yq, y, z, zq)


def _rational_rows(ctx):
    """(n, 4) arrays theta(t) + theta(t)^(q^2) and omega theta(t) +
    omega^(q^2) theta(t)^(q^2) over the pair representatives t: two points
    spanning m_t."""
    t = pair_arrays(ctx)[0]
    theta = _theta_arr(ctx, np.stack([np.ones_like(t), t], axis=1))
    conj = ctx.frob_arr(theta, 2 * ctx.h)
    om = ctx.omega
    return theta ^ conj, ctx.mul_arr(om, theta) ^ ctx.mul_arr(ctx.conj(om), conj)


def _line_set(ctx, reps, R1, R2, w, w_prime):
    """The line set spanned by the rows R1[i], R2[i], as a dict of read-only arrays.

    ``reps`` (n,) the pair representatives, ``rows`` (n, 2, 4) the canonical
    rows of `geometry.join_rows`, ``codes`` (n, q^2 + 1) the codes of their
    points in `line_points` order, ``w`` and ``w_prime`` (n, 6) the Klein
    vectors.  StructureError unless every line has rank 2 and consists of
    isotropic points outside the symplectic substructure.
    """
    reps = np.asarray(reps, dtype=np.int64)
    flat = np.flatnonzero(~np.any(geometry.plucker_arr(ctx, R1, R2), axis=1))
    if flat.size:
        raise StructureError(f"m_t rows have rank < 2 (t={reps[flat[0]]})")
    rows = geometry.join_rows(ctx, R1, R2)
    P = geometry.line_points_arr(ctx, rows[:, 0], rows[:, 1])
    form = geometry.hermitian_arr(ctx, P, P)
    if np.any(form):
        i, k = np.argwhere(form)[0]
        raise StructureError(f"m_t point {tuple(P[i, k].tolist())} not isotropic "
                             f"(t={reps[i]})")
    codes = geometry.point_codes(ctx, P)
    on_w = geometry.lookup(geometry.w_point_codes(ctx), codes)[1].any(axis=1)
    if on_w.any():
        raise StructureError(
            f"m_t meets the symplectic substructure (t={reps[np.argmax(on_w)]})")
    lines = {"reps": reps, "rows": rows, "codes": codes, "w": w, "w_prime": w_prime}
    for a in lines.values():
        a.flags.writeable = False
    return lines


@lru_cache(maxsize=None)
def build_hemisystem(ctx):
    """The hemisystem of record, ordered like the conjugate-pair index set."""
    R1, R2 = _rational_rows(ctx)
    A = klein_arrays(ctx)
    w = np.stack([A[k] for k in ("x", "xq", "y", "yq", "z", "zq")], axis=1)
    return _line_set(ctx, pair_reps(ctx), R1, R2, w, w[:, [0, 1, 3, 2, 4, 5]])


def tau_lines(ctx, lines):
    """The tau images of a line set, with w and w' exchanged."""
    rows = _tau_rows(ctx, lines["rows"])
    return _line_set(ctx, lines["reps"], rows[:, 0], rows[:, 1], lines["w_prime"], lines["w"])


def _tau_rows(ctx, R):
    """tau, (x1, x2, x3, x4) -> (x1^q, x3^q, x2^q, x4^q), on the (..., 4) rows R."""
    return ctx.frob_arr(R, ctx.h)[..., [0, 2, 1, 3]]


# ---------------------------------------------------------------------------
# hemisystem property

def verify_hemisystem(ctx, lines):
    """Per-point cover counts of the line set over the external points."""
    herm = geometry.hermitian_codes(ctx)
    pos, found = geometry.lookup(herm, lines["codes"])
    counts = np.bincount(pos[found], minlength=herm.size)
    on_w = geometry.lookup(geometry.w_point_codes(ctx), herm)[1]
    target = ctx.q // 2
    expected = np.where(on_w, 0, target)
    bad = np.flatnonzero(counts != expected)
    return {"pass": not bad.size, "external_points": int(herm.size - on_w.sum()),
            "cover": target,
            "violations": [{"point": list(geometry.decode_point(ctx, herm[i])),
                            "count": int(counts[i]), "expected": int(expected[i])}
                           for i in bad[:16]],
            "violation_count": int(bad.size)}


# ---------------------------------------------------------------------------
# subtended spreads and the geometric classification

def spread_map(ctx, lines):
    """The 0/1 float32 spread incidence S of a line set.

    S[i, l] = 1 when extended line l, in `geometry.w_line_index` order,
    meets line i; each point's line is read off that index.  StructureError
    unless every point is external, the q^2 + 1 members of each spread are
    distinct and they partition the points of W(3, q): S K = 1 on every
    W-point.
    """
    index = geometry.w_line_index(ctx)
    codes, reps = lines["codes"], lines["reps"]
    pos, external = geometry.lookup(index["ext_codes"], codes)
    if not external.all():
        i, k = np.argwhere(~external)[0]
        raise StructureError(f"point {geometry.decode_point(ctx, codes[i, k])} of rep="
                             f"{reps[i]} is not an external point")
    members = np.sort(index["ext_line"][pos], axis=1)
    repeated = np.any(members[:, 1:] == members[:, :-1], axis=1)
    if repeated.any():
        i = int(np.argmax(repeated))
        raise StructureError(f"spread of rep={reps[i]} has {len(set(members[i]))} "
                             f"lines, expected {ctx.q2 + 1}")
    S = np.zeros((len(codes), len(index["lines"])), dtype=np.float32)
    S[np.arange(len(codes))[:, None], members] = 1
    overlap = np.any(S @ index["incidence"] != 1, axis=1)
    if overlap.any():
        raise StructureError(
            f"spread of rep={reps[int(np.argmax(overlap))]} has overlapping members")
    return S


def geometric_class(ctx, points_a, points_b, spread_a, spread_b):
    """The class of two lines, from the sets of their point codes and of
    their spread members (columns of S)."""
    inter = len(points_a & points_b)
    if inter == 1:
        return 1
    if inter != 0:
        raise StructureError(f"lines share {inter} points")
    k = len(spread_a & spread_b)
    if k == 1:
        return 2
    if k == ctx.q + 1:
        return 3
    raise StructureError(f"spreads share {k} lines (expected 1 or q+1)")


def geometric_table(ctx, lines, S):
    """The n x n geometric class table, `geometric_class` on every pair at once.

    Shared points come from an inverted point -> lines index, as one uint8
    n x n count table.  The shared spread members, S[rows] S^T with S the
    `spread_map` of the lines, and the masks are formed by blocks of
    `schemes.WALK_ROWS` rows, so they are WALK_ROWS x n, not n x n.
    StructureError at the first pair in row order where `geometric_class`
    raises, naming the reps of that pair.
    """
    reps = lines["reps"]
    n = len(reps)
    counts = _shared_points(lines["codes"])
    table = np.empty((n, n), dtype=np.int8)
    for r0 in range(0, n, WALK_ROWS):
        r1 = min(r0 + WALK_ROWS, n)
        shared, common = counts[r0:r1], S[r0:r1] @ S.T
        bad = (shared > 1) | ((shared == 0) & (common != 1) & (common != ctx.q + 1))
        bad = np.triu(bad, r0 + 1)  # the pairs i < j
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n)
            raise StructureError(f"reps {reps[r0 + i]}, {reps[j]}: " + (
                f"lines share {shared[i, j]} points" if shared[i, j] > 1 else
                f"spreads share {int(common[i, j])} lines (expected 1 or q+1)"))
        table[r0:r1] = np.where(shared == 1, np.int8(1),
                                np.where(common == 1, np.int8(2), np.int8(3)))
    np.fill_diagonal(table, 0)
    return table


def _shared_points(codes):
    """uint8 n x n counts of the points two lines share, from (n, k) point codes."""
    n, k = codes.shape
    flat = codes.ravel()
    order = np.argsort(flat, kind="stable")
    flat, line = flat[order], order // k
    # sorted codes with lines ascending inside each run: every pair of lines
    # through one point sits d apart for some d below the run length
    pairs = [np.zeros(0, dtype=np.int64)]
    d = 1
    while d < flat.size and (same := flat[d:] == flat[:-d]).any():
        pairs.append(line[:-d][same] * n + line[d:][same])
        d += 1
    pair, count = np.unique(np.concatenate(pairs), return_counts=True)
    a, b = np.divmod(pair, n)
    shared = np.zeros((n, n), dtype=np.uint8)
    shared[a, b] = shared[b, a] = count
    return shared


# ---------------------------------------------------------------------------
# Klein-algebraic classification (the fast route)

@lru_cache(maxsize=None)
def klein_arrays(ctx):
    """Per-representative coordinate arrays of the Klein vectors."""
    h = ctx.h
    t = pair_arrays(ctx)[0]
    tq = ctx.frob_arr(t, h)
    tq3 = ctx.frob_arr(t, 3 * h)
    x = tq ^ tq3
    n = ctx.mul_arr(t, tq)
    y = n ^ ctx.frob_arr(n, 2 * h)
    k = ctx.mul_arr(n, tq3)
    z = k ^ ctx.frob_arr(k, 2 * h)
    return {"x": x, "xq": ctx.frob_arr(x, h), "y": y, "yq": ctx.frob_arr(y, h),
            "z": z, "zq": ctx.frob_arr(z, h), "tr": y ^ ctx.frob_arr(y, h)}


def _bt_arrays(ctx, A, si, ti):
    """(bt(w_s, w_t), bt(w_s, w'_t)) over index arrays, vectorized.

    Holds at most seven chunk-sized arrays at once: each coordinate is
    gathered where its product is taken, except the four y-gathers that two
    products share, and the sums accumulate in place.
    """
    m = ctx.mul_arr
    # the part the two pairings share, accumulated into b2
    b2 = m(A["x"][si], A["zq"][ti])
    b2 ^= m(A["xq"][si], A["z"][ti])
    b2 ^= m(A["z"][si], A["xq"][ti])
    b2 ^= m(A["zq"][si], A["x"][ti])
    ys, yqt = A["y"][si], A["yq"][ti]
    b1 = m(ys, yqt)
    b1 ^= b2
    yt = A["y"][ti]
    b2 ^= m(ys, yt)
    del ys
    yqs = A["yq"][si]
    b1 ^= m(yqs, yt)
    del yt
    b2 ^= m(yqs, yqt)
    return b1, b2


def klein_class_scalar(ctx, s, t):
    """(class, bt(w_s, w_t), bt(w_s, w'_t)) for one pair of pairs."""
    ws = w_vec(ctx, s)
    b1 = geometry.bt(ctx, ws, w_vec(ctx, t))
    b2 = geometry.bt(ctx, ws, w_prime_vec(ctx, t))
    if b1 == 0 and b2 == 0:
        raise StructureError(f"both pairings vanish at ({s}, {t})")
    return (1 if b1 == 0 else 2 if b2 == 0 else 3), b1, b2


def klein_classify_pairs(ctx, A, si, ti):
    """(Klein class, factorization_failure, shift_failure) of the pairs
    (si[k], ti[k]).

    The failures are the first pair of indices where the radical identity,
    or the shift bt(w_s, w'_t) = bt(w_s, w_t) + tr_s tr_t, fails, or None.
    StructureError where both pairings vanish.  Holds at most eight
    chunk-sized arrays at once: `_bt_arrays` seven, and the radical check
    forms qt(v) + bt(w_s, w_t) bt(w_s, w'_t) one product at a time.
    """
    b1, b2 = _bt_arrays(ctx, A, si, ti)
    both = (b1 == 0) & (b2 == 0)
    if np.any(both):
        k = int(np.argmax(both))
        raise StructureError(
            f"both pairings vanish at pair indices ({int(si[k])}, {int(ti[k])})")
    cls = np.where(b1 == 0, np.int8(1), np.where(b2 == 0, np.int8(2), np.int8(3)))

    m = ctx.mul_arr
    trs, trt = A["tr"][si], A["tr"][ti]
    shifted = m(trs, trt)
    shifted ^= b1
    shift_failure = first_pair(si, ti, b2 != shifted)
    del shifted

    # the radical vector of the plane <w_s, w0, w_t> is tr_t w_s + b1 w0 + tr_s w_t
    def v(key):
        """The `key` coordinate of tr_t w_s + tr_s w_t; b1 w0 adds b1 to y and yq."""
        out = m(trt, A[key][si])
        out ^= m(trs, A[key][ti])
        return out

    # qt(v) + b1 b2 = vx vzq + vxq vz + vy vyq + b1 b2 must vanish; vyq is
    # formed first so that b1 itself can become vy in place
    rad = m(b1, b2)
    del b2
    vyq = v("yq")
    vyq ^= b1
    b1 ^= m(trt, A["y"][si])
    b1 ^= m(trs, A["y"][ti])
    rad ^= m(b1, vyq)
    del b1, vyq
    for a, b in (("x", "zq"), ("xq", "z")):
        rad ^= m(v(a), v(b))
    return cls, first_pair(si, ti, rad != 0), shift_failure


def klein_table_bundle(ctx, workers=1):
    """Dict of the n x n Klein-route `table` and the first pairs where the
    factorization and the shift fail, `factorization_failure` and
    `shift_failure`, or None, from a sweep in `workers` row ranges."""
    A = klein_arrays(ctx)
    n = A["x"].shape[0]
    table = shared_zeros(n, np.int8, workers > 1)

    def sweep(lo, hi):
        fact_failure = shift_failure = None
        for si, ti in pair_chunks(n, lo, hi):
            cls, fact, shift = klein_classify_pairs(ctx, A, si, ti)
            table[si, ti] = table[ti, si] = cls
            fact_failure, shift_failure = fact_failure or fact, shift_failure or shift
        return fact_failure, shift_failure

    fact_failure, shift_failure = (next(filter(None, f), None)  # the first, in row order
                                   for f in zip(*sweep_rows(n, workers, sweep)))
    return {"table": table, "factorization_failure": fact_failure,
            "shift_failure": shift_failure}


# ---------------------------------------------------------------------------
# Kronecker-square group action

def chi_matrix(ctx, g):
    """The 4x4 int64 matrix g (x) g^[q], acting on column vectors."""
    if ctx.mul(g[0][0], g[1][1]) == ctx.mul(g[0][1], g[1][0]):
        raise ValueError("chi needs an invertible 2x2 matrix")
    G = np.array(g, dtype=np.int64)
    # entry (2i + k, 2j + l) is g[i][j] g[k][l]^q
    return ctx.mul_arr(G[:, None, :, None], ctx.frob_arr(G, ctx.h)[None, :, None, :]).reshape(4, 4)


def apply4(ctx, M, v):
    out = []
    for row in M:
        acc = 0
        for a, x in zip(row, v):
            acc ^= ctx.mul(a, x)
        out.append(acc)
    return tuple(out)


def moebius(ctx, g, t):
    """Fractional-linear action on GF(q^4) u {inf} via columns (1, t)."""
    ((a, b), (c, d)) = g
    if t == INF:
        return INF if b == 0 else ctx.div(d, b)
    den = a ^ ctx.mul(b, t)
    num = c ^ ctx.mul(d, t)
    return INF if den == 0 else ctx.div(num, den)


def _random_sl2(ctx, rng):
    F2 = ctx.subfield(2 * ctx.h)
    while True:
        a, b, c = (rng.choice(F2) for _ in range(3))
        if a != 0:
            d = ctx.div(1 ^ ctx.mul(b, c), a)
            return ((a, b), (c, d))
        if b != 0 and c != 0:  # det = bc must be 1
            if ctx.mul(b, c) == 1:
                return ((0, b), (c, rng.choice(F2)))


def verify_equivariance(ctx, samples=100, seed=0):
    """Sampled checks of the commuting action and form preservation.

    Kept only for the h = 4 window of `perfbench/layers.py`; `certify` runs
    `verify_automorphisms`, which checks the same claims exactly.
    """
    rng = random.Random(seed)
    F2 = ctx.subfield(2 * ctx.h)
    Fq = ctx.subfield(ctx.h)
    diagram_fail = 0
    isometry_fail = 0
    for _ in range(samples):
        g = _random_sl2(ctx, rng)
        M = chi_matrix(ctx, g)
        t = rng.choice([INF] + list(range(ctx.size)))
        lhs = geometry.normalize_point(ctx, apply4(ctx, M, theta_vec(ctx, t)))
        rhs = theta(ctx, moebius(ctx, g, t))
        if lhs != rhs:
            diagram_fail += 1
        # pattern-space isometry on a random pattern vector
        v = (rng.choice(Fq), 0, 0, rng.choice(Fq))
        x = rng.choice(F2)
        v = (v[0], ctx.frob_q(x), x, v[3])
        if v == (0, 0, 0, 0):
            v = (1, 0, 0, 0)
        u = apply4(ctx, M, v)
        if not geometry.is_wvector(ctx, u) or geometry.qhat(ctx, u) != geometry.qhat(ctx, v):
            isometry_fail += 1
    return {"pass": diagram_fail == 0 and isometry_fail == 0,
            "samples": samples, "diagram_failures": diagram_fail,
            "isometry_failures": isometry_fail}


def mobius_generators(ctx):
    """name -> 2x2 matrix over GF(q^2), for three generators of PGL(2, q^2).

    lambda = g^(q^2 + 1), with g the generator of GF(q^4)*, is primitive in
    GF(q^2); with t -> t + 1 and t -> 1/t it generates the group.
    """
    lam = 1
    for _ in range(ctx.q2 + 1):
        lam = ctx.mul(lam, ctx.generator)
    return {"t -> lambda t": ((1, 0), (0, lam)), "t -> t + 1": ((1, 0), (1, 1)),
            "t -> 1/t": ((0, 1), (1, 0))}


def _matmul(ctx, A, B):
    """The matrix product A B over the field, for (k, m) and (m, l) arrays."""
    return np.bitwise_xor.reduce(ctx.mul_arr(A[:, :, None], B[None, :, :]), axis=1)


def _theta_arr(ctx, X):
    """theta of the (k, 2) homogeneous points X: the rows X[i] (x) X[i]^[q]."""
    return ctx.mul_arr(X[:, [0, 0, 1, 1]], ctx.frob_arr(X, ctx.h)[:, [0, 1, 0, 1]])


def verify_automorphisms(ctx, table=None):
    """The `orbit` and `automorphisms` blocks: PGL(2, q^2), checked exactly on
    the `mobius_generators`.

    For each generator g, with M = chi_matrix(g) and pi_g the permutation
    t -> g.t of the pair indices, it counts the failures of (a) M theta(x)
    proportional to theta(g x) on all q^4 + 1 points x of PG(1, q^4); (b)
    M^T H M^[q] = c H, c != 0, with H the Gram matrix of the hermitian form,
    and M J = J M^[q], with J the swap of the middle coordinates, so M keeps
    the W(3, q) vectors v = J v^[q]; (d) M m_t = m_{pi_g t} (the orbit's
    `escaped`) and M tau m_t = tau m_{pi_g t}, on canonical rows; (e) with
    the fine `table`, table[pi_g][:, pi_g] = table.  (c) the orbit of index 0
    under the pi_g must be all n indices.  What every generator does the
    group does, so {m_t} is one orbit that never reaches a tau twin, and the
    table is invariant.  A failing block names the first failing generator
    and point or index, or (`transitive`) an index outside the orbit.
    """
    reps = pair_arrays(ctx)[0]
    n, h = reps.size, ctx.h
    X = np.stack([np.append(np.ones(ctx.size, dtype=np.int64), 0),
                  np.append(np.arange(ctx.size), 1)], axis=1)  # PG(1, q^4), inf last
    theta_X = _theta_arr(ctx, X)
    R = _rational_rows(ctx)
    rows = {"lines": R, "twins": tuple(_tau_rows(ctx, r) for r in R)}
    canonical = {k: geometry.join_rows(ctx, *r) for k, r in rows.items()}
    H, swap = np.eye(4, dtype=np.int64)[[3, 1, 2, 0]], [0, 2, 1, 3]
    gens = mobius_generators(ctx)
    bad, perms = {}, []  # check -> per generator, where it fails
    for name, g in gens.items():
        G, M = np.array(g, dtype=np.int64), chi_matrix(ctx, g)
        Mq = ctx.frob_arr(M, h)
        u = _matmul(ctx, X[reps], G.T)
        t = ctx.div_arr(u[:, 1], u[:, 0])
        pi, found = geometry.lookup(reps, np.minimum(t, ctx.frob_arr(t, 2 * h)))
        if not found.all() or np.unique(pi).size != n:
            raise StructureError(f"{name} does not permute the conjugate pairs")
        perms.append(pi)
        form = _matmul(ctx, _matmul(ctx, M.T, H), Mq)
        fails = {"diagram": np.any(
                     geometry.normalize_points(ctx, _matmul(ctx, theta_X, M.T))
                     != geometry.normalize_points(ctx, _theta_arr(ctx, _matmul(ctx, X, G.T))),
                     axis=1),
                 "form": [form[0, 3] == 0 or np.any(form != ctx.mul_arr(form[0, 3], H))],
                 "symplectic": [np.any(M[:, swap] != Mq[swap])],
                 **{k: np.any(geometry.join_rows(ctx, *(_matmul(ctx, R, M.T) for R in r))
                              != canonical[k][pi], axis=(1, 2)) for k, r in rows.items()}}
        if table is not None:
            fails["table"] = np.any(table.take(pi, 0).take(pi, 1) != table, axis=1)
        for check, mask in fails.items():
            bad.setdefault(check, []).append(mask)
    bad = {check: np.array(masks, dtype=bool) for check, masks in bad.items()}
    count = {check: int(mask.sum()) for check, mask in bad.items()}

    def first(check):
        k, i = (int(x) for x in np.argwhere(bad[check])[0])
        at = ({"point": i if i < ctx.size else INF} if check == "diagram" else
              {} if check in ("form", "symplectic") else {"index": i, "rep": int(reps[i])})
        return {"generator": list(gens)[k], "check": check, **at}

    reached = np.zeros(n, dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached[frontier] = True
        image = np.concatenate([pi[frontier] for pi in perms])
        frontier = np.unique(image[~reached[image]])
    generators = {name: [list(r) for r in g] for name, g in gens.items()}
    orbit = {"pass": bool(reached.all()) and not count["lines"],
             "orbit_size": int(reached.sum()), "expected": n, "escaped": count["lines"]}
    if not orbit["pass"]:
        i = int(np.argmin(reached))
        orbit["first_discrepancy"] = first("lines") if count["lines"] else {
            "check": "transitive", "index": i, "rep": int(reps[i]), "generators": generators}
    checks = [c for c in ("diagram", "form", "symplectic", "twins", "table") if c in count]
    auto = {"pass": not any(count[c] for c in checks), "generators": generators,
            "points": ctx.size + 1, "diagram_failures": count["diagram"],
            "form_failures": count["form"], "symplectic_failures": count["symplectic"],
            "twin_failures": count["twins"], "table_failures": count.get("table", "skipped")}
    if not auto["pass"]:
        auto["first_discrepancy"] = first(next(c for c in checks if count[c]))
    return {"orbit": orbit, "automorphisms": auto}


# ---------------------------------------------------------------------------
# the census of all totally isotropic lines, and the Klein images, in bulk

def line_census(ctx, lines, tau):
    """Partition check: the extended GF(q)-lines, {m_t} and {tau m_t} are all the lines.

    H(3, q^2) is a generalized quadrangle of order (q^2, q): each isotropic
    point lies on exactly q + 1 totally isotropic lines (Payne-Thas, *Finite
    Generalized Quadrangles*, ch. 3).  So distinct lines of isotropic points
    that put every isotropic point on q + 1 of them are all the lines.  The
    lines are compared as sorted point-code rows; `geometry.h_lines_through`
    derives the lines through the first point of m_t0 a second time.
    """
    index = geometry.w_line_index(ctx)
    n, q = len(lines["reps"]), ctx.q
    codes = np.concatenate([lines["codes"], tau["codes"], index["codes"]])
    rows = np.sort(codes, axis=1)
    _, first, line_id = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    orbit, tau_orbit, w_extended = (np.unique(line_id[a:b]).size
                                    for a, b in ((0, n), (n, 2 * n), (2 * n, len(rows))))
    herm = geometry.hermitian_codes(ctx)
    points, on = np.unique(rows[first], return_counts=True)
    covers = bool(np.array_equal(points, herm) and np.all(on == q + 1))
    miscovered = points[(on != q + 1) | ~geometry.lookup(herm, points)[1]]
    canonical = np.concatenate([lines["rows"], tau["rows"], index["lines"]])
    through = sorted((tuple(map(tuple, canonical[k].tolist())), bool(k >= 2 * n))
                     for k in first[np.any(rows[first] == codes[0, 0], axis=1)])
    expected_total = (q + 1) * (q ** 3 + 1)
    checks = {
        "disjoint": (first.size == orbit + tau_orbit + w_extended,
                     np.bincount(line_id)[line_id] > 1),
        "covers": (covers, np.isin(rows, miscovered).any(axis=1)),
        "h_lines_through": (
            through == geometry.h_lines_through(ctx, geometry.decode_point(ctx, codes[0, 0])),
            np.arange(len(rows)) == 0),
        "total_lines": (first.size == expected_total, np.zeros(len(rows), dtype=bool))}
    out = {"pass": all(ok for ok, _ in checks.values()), "total_lines": first.size,
           "expected_total": expected_total, "w_extended": w_extended, "orbit": orbit,
           "tau_orbit": tau_orbit, "disjoint": checks["disjoint"][0], "covers": covers}
    return _with_discrepancy(out, checks, lambda r: (
        {"line_index": r % n, "rep": int(lines["reps"][r % n])} if r < 2 * n
        else {"line_index": r - 2 * n, "rep": None}))


def klein_images(ctx, lines, tau, S):
    """The Klein-side dictionary on every line at once, as four failure counts.

    With w, w' the Klein vectors of m_t and tau m_t, the counts are of the
    lines whose Pluecker minors are not multiples of w and w'; where qt(w)
    or qt(w') is not 0; where w + w' is not c W0 with c in GF(q)*; and where
    the extended lines L whose Klein images K_L (the points of Q(4, q),
    scaled into the conjugate pattern) are bt-orthogonal to w and w' are
    not the spread of m_t, read off the `spread_map` S of the lines.
    `geometry.klein_map` of m_t0 and of its twin derives the first minors a
    second time.
    """
    m = ctx.mul_arr
    w, w_prime = lines["w"], lines["w_prime"]
    both = np.concatenate([w, w_prime])
    if np.any(both[:, 1::2] != ctx.frob_arr(both[:, 0::2], ctx.h)):  # `_bt` reads the pattern
        raise StructureError("a Klein vector does not have the conjugate pattern")
    minors = [geometry.plucker_arr(ctx, ls["rows"][:, 0], ls["rows"][:, 1])
              for ls in (lines, tau)]
    proj = [geometry.normalize_points(ctx, P) for P in (*minors, w, w_prime)]
    qt = lambda v: m(v[:, 0], v[:, 5]) ^ m(v[:, 1], v[:, 4]) ^ m(v[:, 2], v[:, 3])
    c = (w ^ w_prime)[:, 2]
    on_secant = (np.all(w ^ w_prime == m(c[:, None], geometry.W0), axis=1) & (c != 0)
                 & (ctx.frob_arr(c, ctx.h) == c))
    R = np.array(geometry.w_line_index(ctx)["lines"], dtype=np.int64)
    K = geometry.plucker_arr(ctx, R[:, 0], R[:, 1])
    scale = geometry.pattern_scalars(ctx, K)
    if not scale.all():
        raise StructureError(f"Klein image of extended line {int(np.argmin(scale))} "
                             f"left the pattern space")
    K = m(scale[:, None], K)[None]
    perp = np.empty((len(w), K.shape[1]), dtype=bool)
    for a in range(0, len(w), 128):  # blocks of rows keep the temporaries in cache
        block = slice(a, a + 128)
        perp[block] = (_bt(ctx, w[block, None], K) == 0) & (_bt(ctx, w_prime[block, None], K) == 0)
    checks = {name: (not bad.any(), bad) for name, bad in (
        ("projective_mismatches", np.any((proj[0] != proj[2]) | (proj[1] != proj[3]), axis=1)),
        ("nonsingular_images", (qt(w) != 0) | (qt(w_prime) != 0)),
        ("w0_not_on_secant", ~on_secant),
        ("spread_image_mismatches",
         np.any(perp != (S == 1), axis=1)))}
    scalar = [geometry.normalize_point(ctx, geometry.klein_map(
                  ctx, tuple(map(tuple, ls["rows"][0].tolist())))) for ls in (lines, tau)]
    checks["klein_map"] = (scalar == [tuple(P[0].tolist()) for P in proj[:2]],
                           np.arange(len(w)) == 0)
    out = {"pass": all(ok for ok, _ in checks.values()),
           **{name: int(bad.sum()) for name, (_, bad) in checks.items() if name != "klein_map"}}
    return _with_discrepancy(out, checks,
                             lambda i: {"line_index": i, "rep": int(lines["reps"][i])})


def _bt(ctx, U, V):
    """`geometry.bt` on (..., 6) arrays of conjugate-pattern vectors, broadcast.

    On that pattern bt(u, v) = s + s^q with s = u0 v5 + u2 v3 + u4 v1.
    """
    m = ctx.mul_arr
    s = m(U[..., 0], V[..., 5]) ^ m(U[..., 2], V[..., 3]) ^ m(U[..., 4], V[..., 1])
    return s ^ ctx.frob_arr(s, ctx.h)


def _with_discrepancy(out, checks, locate):
    """`out`, plus ``first_discrepancy`` = {"line_index", "rep", "check"} when it fails.

    `checks` maps a check's name to (passed, rows that fail it); the
    discrepancy is the first failing row of the first failed check, placed
    by `locate(row)`.
    """
    if not out["pass"]:
        check, rows = next((c, r) for c, (ok, r) in checks.items() if not ok)
        place = locate(int(np.argmax(rows))) if rows.any() else {"line_index": None, "rep": None}
        out["first_discrepancy"] = {**place, "check": check}
    return out
