"""The polar-space side: hemisystem lines, subtended spreads, Klein data.

For each conjugate pair {t, t^(q^2)} the rational points of the extension
line joining (1, t^q, t, t^(q+1)) to its conjugate point form a totally
isotropic line m_t of the hermitian space that misses the symplectic
substructure entirely.  The set of all m_t covers every external isotropic
point exactly q/2 times (a relative hemisystem); its image under the
pattern-swapping involution tau is the disjoint twin hemisystem.

The scheme on the lines has three faces, all computed here:

* geometric: class 1 when two lines meet; otherwise class 2 or 3 by
  whether the subtended spreads share 1 or q+1 members;
* Klein-algebraic: class 1 when bt(w_s, w_t) = 0, class 2 when
  bt(w_s, w'_t) = 0, class 3 otherwise, where w_t / w'_t are the explicit
  Klein images of m_t / tau(m_t) and bt is the restricted alternating form;
* group-theoretic: {m_t} is a single orbit under the Kronecker-square
  embedding chi(g) = g (x) g^[q] of SL(2, q^2), verified by closing the
  orbit under a generating set at small q.

The radical identity qt(v) = bt(w_s, w_t) * bt(w_s, w'_t), with v the
radical of the plane spanned by w_s, w0, w_t, ties the first two faces
together and is swept exactly over all pairs, in `klein_classify_pairs`,
the one bulk evaluation of the Klein route.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from . import geometry
from .conic import pair_chunks, pair_reps

INF = "inf"  # projective-line point at infinity


class StructureError(RuntimeError):
    """A geometric structure claim failed (certificate failure)."""


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


def rational_vector(ctx, t, lam):
    """lam * theta_vec(t) + lam^(q^2) * theta_vec(t^(q^2)), componentwise."""
    u = theta_vec(ctx, t)
    uc = tuple(ctx.conj(x) for x in u)
    lam2 = ctx.conj(lam)
    return tuple(ctx.mul(lam, a) ^ ctx.mul(lam2, b) for a, b in zip(u, uc))


class HemiLine:
    """A hemisystem line together with its Klein-side data."""

    __slots__ = ("rep", "line", "points", "w", "w_prime")

    def __init__(self, rep, line, points, w, w_prime):
        self.rep = rep
        self.line = line
        self.points = points
        self.w = w
        self.w_prime = w_prime

    def __repr__(self):
        return f"HemiLine(rep={self.rep})"


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


def hemi_line(ctx, t, validate=True):
    r1 = rational_vector(ctx, t, 1)
    r2 = rational_vector(ctx, t, ctx.omega)
    line = geometry.line_through(ctx, r1, r2)
    points = frozenset(geometry.line_points(ctx, line))
    if validate:
        for p in points:
            if not geometry.is_isotropic(ctx, p):
                raise StructureError(f"m_t point {p} not isotropic (t={t})")
            if geometry.is_w_point(ctx, p):
                raise StructureError(f"m_t meets the symplectic substructure (t={t})")
    return HemiLine(t, line, points, w_vec(ctx, t), w_prime_vec(ctx, t))


@lru_cache(maxsize=None)
def build_hemisystem(ctx, validate=True):
    """The hemisystem of record, ordered like the conjugate-pair index set."""
    return tuple(hemi_line(ctx, t, validate) for t in pair_reps(ctx))


def tau_point(ctx, p):
    fq = ctx.frob_q
    return (fq(p[0]), fq(p[2]), fq(p[1]), fq(p[3]))


def tau_line(ctx, line):
    r1, r2 = line
    return geometry.line_through(ctx, tau_point(ctx, r1), tau_point(ctx, r2))


# ---------------------------------------------------------------------------
# hemisystem property

def verify_hemisystem(ctx, lines):
    """Per-point cover counts of the line set over the external points."""
    wset = geometry.w_point_set(ctx)
    counts = {}
    for hl in lines:
        for p in hl.points:
            counts[p] = counts.get(p, 0) + 1
    target = ctx.q // 2
    bad = []
    externals = 0
    for p in geometry.hermitian_points(ctx):
        if p in wset:
            if p in counts:
                bad.append({"point": list(p), "count": counts[p], "expected": 0})
            continue
        externals += 1
        c = counts.get(p, 0)
        if c != target:
            bad.append({"point": list(p), "count": c, "expected": target})
    return {"pass": not bad, "external_points": externals, "cover": target,
            "violations": bad[:16], "violation_count": len(bad)}


# ---------------------------------------------------------------------------
# subtended spreads and the geometric classification

def spread_map(ctx, lines):
    """rep -> frozenset of extended GF(q)-lines meeting the hemisystem line.

    The unique substructure-meeting line through each point is memoized per
    point; spread size and the partition property are hard-checked.
    """
    wl = geometry.w_lines(ctx)
    cache = {}
    out = {}
    for hl in lines:
        members = set()
        for p in hl.points:
            ln = cache.get(p)
            if ln is None:
                ln = geometry.w_meeting_line_through(ctx, p)
                cache[p] = ln
            if ln not in wl:
                raise StructureError(f"spread member of rep={hl.rep} is not an extended line")
            members.add(ln)
        if len(members) != ctx.q2 + 1:
            raise StructureError(
                f"spread of rep={hl.rep} has {len(members)} lines, expected {ctx.q2 + 1}")
        seen = set()
        total = 0
        for ln in members:
            pts = wl[ln]
            total += len(pts)
            seen |= pts
        if len(seen) != total:
            raise StructureError(f"spread of rep={hl.rep} has overlapping members")
        out[hl.rep] = frozenset(members)
    return out


def geometric_class(ctx, la, lb, spreads):
    inter = len(la.points & lb.points)
    if inter == 1:
        return 1
    if inter != 0:
        raise StructureError(f"lines of reps {la.rep}, {lb.rep} share {inter} points")
    k = len(spreads[la.rep] & spreads[lb.rep])
    if k == 1:
        return 2
    if k == ctx.q + 1:
        return 3
    raise StructureError(
        f"spreads of reps {la.rep}, {lb.rep} share {k} lines (expected 1 or q+1)")


def geometric_table(ctx, lines, spreads=None):
    """Full n x n geometric class table (intended for small q)."""
    if spreads is None:
        spreads = spread_map(ctx, lines)
    n = len(lines)
    table = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            c = geometric_class(ctx, lines[i], lines[j], spreads)
            table[i, j] = c
            table[j, i] = c
    return table


# ---------------------------------------------------------------------------
# Klein-algebraic classification (the fast route)

@lru_cache(maxsize=None)
def klein_arrays(ctx):
    """Per-representative coordinate arrays of the Klein vectors."""
    h = ctx.h
    t = np.array(pair_reps(ctx), dtype=np.int64)
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
    """(bt(w_s, w_t), bt(w_s, w'_t)) over index arrays, vectorized."""
    m = ctx.mul_arr
    xs, xqs = A["x"][si], A["xq"][si]
    ys, yqs = A["y"][si], A["yq"][si]
    zs, zqs = A["z"][si], A["zq"][si]
    xt, xqt = A["x"][ti], A["xq"][ti]
    yt, yqt = A["y"][ti], A["yq"][ti]
    zt, zqt = A["z"][ti], A["zq"][ti]
    outer = m(xs, zqt) ^ m(xqs, zt) ^ m(zs, xqt) ^ m(zqs, xt)
    b1 = outer ^ m(ys, yqt) ^ m(yqs, yt)
    b2 = outer ^ m(ys, yt) ^ m(yqs, yqt)
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
    """(Klein class, factorization_ok, shift_ok) of the pairs (si[k], ti[k]).

    The flags say whether the radical identity and the shift
    bt(w_s, w'_t) = bt(w_s, w_t) + tr_s tr_t held on every pair.
    StructureError where both pairings vanish.
    """
    b1, b2 = _bt_arrays(ctx, A, si, ti)
    both = (b1 == 0) & (b2 == 0)
    if np.any(both):
        k = int(np.argmax(both))
        raise StructureError(
            f"both pairings vanish at pair indices ({int(si[k])}, {int(ti[k])})")
    cls = np.where(b1 == 0, 1, np.where(b2 == 0, 2, 3)).astype(np.int8)

    m = ctx.mul_arr
    trs, trt = A["tr"][si], A["tr"][ti]
    shift_ok = bool(np.array_equal(b2, b1 ^ m(trs, trt)))
    # radical vector of the plane <w_s, w0, w_t>: tr_t w_s + b1 w0 + tr_s w_t
    vx = m(trt, A["x"][si]) ^ m(trs, A["x"][ti])
    vxq = m(trt, A["xq"][si]) ^ m(trs, A["xq"][ti])
    vy = m(trt, A["y"][si]) ^ b1 ^ m(trs, A["y"][ti])
    vyq = m(trt, A["yq"][si]) ^ b1 ^ m(trs, A["yq"][ti])
    vz = m(trt, A["z"][si]) ^ m(trs, A["z"][ti])
    vzq = m(trt, A["zq"][si]) ^ m(trs, A["zq"][ti])
    qt_rad = m(vx, vzq) ^ m(vxq, vz) ^ m(vy, vyq)
    factorization_ok = bool(np.array_equal(qt_rad, m(b1, b2)))
    return cls, factorization_ok, shift_ok


def klein_table_bundle(ctx):
    """Dict of the n x n Klein-route `table`, `factorization_ok`, `shift_ok`."""
    A = klein_arrays(ctx)
    n = A["x"].shape[0]
    table = np.zeros((n, n), dtype=np.int8)
    factorization_ok = shift_ok = True
    for si, ti in pair_chunks(n):
        cls, fact, shift = klein_classify_pairs(ctx, A, si, ti)
        table[si, ti] = table[ti, si] = cls
        factorization_ok = factorization_ok and fact
        shift_ok = shift_ok and shift
    return {"table": table, "factorization_ok": factorization_ok, "shift_ok": shift_ok}


# ---------------------------------------------------------------------------
# Kronecker-square group action

def chi_matrix(ctx, g):
    """4x4 matrix g (x) g^[q] acting on column vectors."""
    ((a, b), (c, d)) = g
    if ctx.mul(a, d) ^ ctx.mul(b, c) == 0:
        raise ValueError("chi needs an invertible 2x2 matrix")
    gq = ((ctx.frob_q(a), ctx.frob_q(b)), (ctx.frob_q(c), ctx.frob_q(d)))
    M = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    M[2 * i + k][2 * j + l] = ctx.mul(g[i][j], gq[k][l])
    return tuple(tuple(r) for r in M)


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


def chi_line_image(ctx, M, line):
    r1, r2 = line
    return geometry.line_through(ctx, apply4(ctx, M, r1), apply4(ctx, M, r2))


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
    """Sampled checks of the commuting action and form preservation."""
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


def _gf2_spanning(ctx):
    """Greedy GF(2)-basis of GF(q^2) from ascending encodings."""
    span = {0}
    basis = []
    for x in ctx.subfield(2 * ctx.h):
        if x not in span:
            basis.append(x)
            span |= {x ^ s for s in span}
    return basis


def verify_orbit(ctx):
    """Close {m_omega} under generators of the Kronecker-square group.

    Passes when the closure is exactly the hemisystem of record and never
    touches its tau twin.  Intended for h <= 2 where the closure is small.
    """
    if ctx.h > 2:
        raise ValueError("orbit closure is only enumerated at h <= 2")
    lines = build_hemisystem(ctx)
    target = {hl.line for hl in lines}
    twin = {tau_line(ctx, hl.line) for hl in lines}
    gens = [chi_matrix(ctx, ((1, 0), (a, 1))) for a in _gf2_spanning(ctx)]
    gens.append(chi_matrix(ctx, ((0, 1), (1, 0))))
    om = ctx.omega
    start = geometry.line_through(ctx, rational_vector(ctx, om, 1),
                                  rational_vector(ctx, om, om))
    if start not in target:
        raise StructureError("seed line is not in the hemisystem of record")
    seen = {start}
    frontier = [start]
    escaped = []
    while frontier:
        nxt = []
        for line in frontier:
            for M in gens:
                img = chi_line_image(ctx, M, line)
                if img in seen:
                    continue
                if img not in target:
                    escaped.append(img)
                    continue
                if any(geometry.is_w_point(ctx, p) for p in geometry.line_points(ctx, img)):
                    escaped.append(img)
                    continue
                seen.add(img)
                nxt.append(img)
        frontier = nxt
    ok = not escaped and seen == target and not (seen & twin)
    return {"pass": ok, "orbit_size": len(seen), "expected": len(target),
            "escaped": len(escaped)}


# ---------------------------------------------------------------------------
# census of all totally isotropic lines (small q)

def line_census(ctx):
    """Partition check: extended GF(q)-lines, {m_t}, {tau m_t} cover all lines."""
    if ctx.h > 2:
        raise ValueError("full line census is only run at h <= 2")
    all_lines = set()
    for p in geometry.hermitian_points(ctx):
        for line, _ in geometry.h_lines_through(ctx, p):
            all_lines.add(line)
    lines = build_hemisystem(ctx)
    mset = {hl.line for hl in lines}
    tset = {tau_line(ctx, hl.line) for hl in lines}
    wset = set(geometry.w_lines(ctx))
    q = ctx.q
    expected_total = (q + 1) * (q ** 3 + 1)
    disjoint = (not mset & tset) and (not mset & wset) and (not tset & wset)
    covers = mset | tset | wset == all_lines
    return {"pass": disjoint and covers and len(all_lines) == expected_total,
            "total_lines": len(all_lines), "expected_total": expected_total,
            "w_extended": len(wset), "orbit": len(mset), "tau_orbit": len(tset),
            "disjoint": disjoint, "covers": covers}
