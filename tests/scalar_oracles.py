"""Scalar oracles of the bulk checks.

`power_walk` is the reference of `FieldTower`'s log/exp tables.  The next
helpers are the scalar definitions the bulk code is tested against: the
fine label of a pair, the symplectic form on pattern vectors, the rational
points spanning m_t, the involution tau and the orbit of a pair under
Moebius maps.  Then come the planar definitions behind the
`passants` block: every point of a projective space, the conic, the line
of a pair by row reduction and the passant census by enumeration.  The rest
enumerate what the bulk `line_census` and `klein_images` count: every
totally isotropic line through every isotropic point (as tuples,
`hermitian_points`), and the GF(q)-spans and perps of the
conjugate-pattern 6-space.  They are exhaustive only at h <= 2.
The W(3, q) points and extended lines as a point set and a line dict are
the oracles of `geometry.w_points` and `geometry.w_lines`; the ambient
quadric and q_t of the Klein side follow them.
`srg_check` counts the common neighbours of a fused class graph directly,
the oracle of `SchemeAnalytics.srg_parameters`.  The last helpers cut line
sets apart, inject a wrong Klein image into both routes
at once and hand the `passants` block edited pair lines.
"""

import itertools
from functools import lru_cache

import numpy as np

from hxpw import conic
from hxpw import geometry as g
from hxpw import hemisystem as hs
from hxpw.fields import clmul, polymod


def power_walk(modulus, size):
    """(g, [g^0, ..., g^(size - 2)]) for the smallest g = 2, 3, ... whose powers
    first return to 1 after exactly size - 1 steps, walked one product at a time."""
    for gen in range(2, size):
        exp, v = [1], gen
        while v != 1 and len(exp) < size - 1:  # a zero divisor's powers never return to 1
            exp.append(v)
            v = polymod(clmul(v, gen), modulus)
        if v == 1 and len(exp) == size - 1:
            return gen, exp
    raise RuntimeError("no multiplicative generator found")


def fine_label(ctx, s, t):
    """The unordered value pair {rho, rho^(-1)}, smaller encoding first."""
    r = conic.rho(ctx, s, t)
    ri = ctx.inv(r)
    return (r, ri) if r <= ri else (ri, r)


def bhat(ctx, u, v):
    """Alternating GF(q)-form pairing two pattern vectors."""
    for w in (u, v):
        if not g.is_wvector(ctx, w):
            raise ValueError(f"{w} does not have the (a, x^q, x, b) pattern")
    m = ctx.mul
    return m(u[0], v[3]) ^ m(u[3], v[0]) ^ m(u[2], v[1]) ^ m(u[1], v[2])


def rational_vector(ctx, t, lam):
    """lam * theta_vec(t) + lam^(q^2) * theta_vec(t^(q^2)), componentwise."""
    u = hs.theta_vec(ctx, t)
    uc = tuple(ctx.conj(x) for x in u)
    lam2 = ctx.conj(lam)
    return tuple(ctx.mul(lam, a) ^ ctx.mul(lam2, b) for a, b in zip(u, uc))


def tau_point(ctx, p):
    fq = ctx.frob_q
    return (fq(p[0]), fq(p[2]), fq(p[1]), fq(p[3]))


def tau_line(ctx, line):
    r1, r2 = line
    return g.line_through(ctx, tau_point(ctx, r1), tau_point(ctx, r2))


def moebius_orbit(ctx, generators):
    """The pair indices reached from index 0 by the Moebius maps, by scalar `moebius`."""
    reps = conic.pair_reps(ctx)
    index = {t: i for i, t in enumerate(reps)}
    seen, frontier = {0}, [0]
    while frontier:
        images = {index[min(u, ctx.conj(u))] for i in frontier for g_ in generators
                  for u in [hs.moebius(ctx, g_, reps[i])]}
        frontier = list(images - seen)
        seen |= images
    return seen


# ---------------------------------------------------------------------------
# W(3, q) as a point set and a line dict, and the Klein quadrics

@lru_cache(maxsize=None)
def w_point_set(ctx):
    """Normalized points spanned by pattern vectors; size (q+1)(q^2+1)."""
    pts = set()
    Fq = ctx.subfield(ctx.h)
    F = ctx.subfield(2 * ctx.h)
    for a in Fq:
        for b in Fq:
            for x in F:
                if a or b or x:
                    pts.add(g.normalize_point(ctx, (a, ctx.frob_q(x), x, b)))
    return frozenset(pts)


@lru_cache(maxsize=None)
def w_lines(ctx):
    """Dict: canonical extended W-line -> frozenset of its W-points, in
    the order of the canonical rows' point codes."""
    points = sorted(w_point_set(ctx))
    W = np.array(points, dtype=np.int64)
    i, j = np.triu_indices(len(W), 1)
    orthogonal = g.hermitian_arr(ctx, W[i], W[j]) == 0
    i, j = i[orthogonal], j[orthogonal]
    rows = g.join_rows(ctx, W[i], W[j])
    _, first, line = np.unique(g.point_codes(ctx, rows), axis=0, return_index=True,
                               return_inverse=True)
    on = np.zeros((first.size, len(W)), dtype=bool)
    on[line, i] = on[line, j] = True
    return {tuple(map(tuple, rows[f].tolist())): frozenset(points[p] for p in np.flatnonzero(r))
            for f, r in zip(first, on)}


def ambient_quadric(ctx, v6):
    """X1 X6 + X2 X5 + X3 X4 (vanishes exactly on Klein images)."""
    m = ctx.mul
    return m(v6[0], v6[5]) ^ m(v6[1], v6[4]) ^ m(v6[2], v6[3])


def qt(ctx, w):
    """Restricted quadratic form x z^q + x^q z + y^(q+1); lands in GF(q)."""
    if not g.is_vt(ctx, w):
        raise ValueError(f"{w} does not have the (x, x^q, y, y^q, z, z^q) pattern")
    return ambient_quadric(ctx, w)


# ---------------------------------------------------------------------------
# the plane PG(2, q^2) and the passants of the conic

def projective_points(ctx, width):
    """All canonical points of PG(width-1, q^2), lead-1 enumeration order."""
    F = ctx.subfield(2 * ctx.h)
    for lead in range(width):
        head = (0,) * lead + (1,)
        for tail in itertools.product(F, repeat=width - 1 - lead):
            yield head + tail


def conic_points(ctx):
    """The fixed conic of PG(2, q^2): {(1, c, c^2)} u {(0, 0, 1)}."""
    pts = [(1, c, ctx.mul(c, c)) for c in ctx.subfield(2 * ctx.h)]
    pts.append((0, 0, 1))
    return pts


def pair_line(ctx, t):
    """The GF(q^2)-rational line joining (1,t,t^2) to its conjugate point, as
    RREF rows.

    The rational vectors in the extension span are c*(1,t,t^2) +
    c^(q^2)*(conjugate); taking c in {1, omega} gives a basis.
    """
    cj = ctx.conj
    a = (1, t, ctx.mul(t, t))
    b = tuple(cj(x) for x in a)
    rows = []
    for lam in (1, ctx.omega):
        lam2 = cj(lam)
        rows.append(tuple(ctx.mul(lam, x) ^ ctx.mul(lam2, y) for x, y in zip(a, b)))
    red, _ = g.rref_rows(ctx, rows)
    if len(red) != 2:
        raise RuntimeError(f"conjugate point pair for t={t} did not span a line")
    return tuple(red)


def line_dual(ctx, line):
    """The dual point (a, b, c) of the functional a x0 + b x1 + c x2 cutting out a line."""
    kern = g.nullspace(ctx, list(line), 3)
    if len(kern) != 1:
        raise ValueError("expected a line of PG(2, q^2)")
    return g.normalize_point(ctx, kern[0])


def line_misses_conic(ctx, line):
    """True when no conic point satisfies both line equations."""
    f = line_dual(ctx, line)
    on_line = lambda p: ctx.mul(f[0], p[0]) ^ ctx.mul(f[1], p[1]) ^ ctx.mul(f[2], p[2]) == 0
    return not any(on_line(p) for p in conic_points(ctx))


def passant_census(ctx):
    """Count lines of PG(2, q^2) missing the conic (expected (q^4-q^2)/2)."""
    count = 0
    for dual in projective_points(ctx, 3):
        kern = g.nullspace(ctx, [dual], 3)
        line, _ = g.rref_rows(ctx, kern)
        if line_misses_conic(ctx, tuple(line)):
            count += 1
    return count


@lru_cache(maxsize=None)
def hermitian_points(ctx):
    """All isotropic points as coordinate tuples, in ascending order."""
    return tuple(g.decode_point(ctx, c) for c in g.hermitian_codes(ctx))


# ---------------------------------------------------------------------------
# the conjugate-pattern 6-space in GF(q) coordinates

def to_vt(ctx, v6):
    """A scalar multiple of v6 with the conjugate pattern, or None."""
    for c in ctx.subfield(2 * ctx.h)[1:]:
        w = tuple(ctx.mul(c, x) for x in v6)
        if g.is_vt(ctx, w):
            return w
    return None


def vt_coords(ctx, w):
    assert g.is_vt(ctx, w), w
    return tuple(c for x in w[0::2] for c in g.split_q2(ctx, x))


def vt_from_coords(ctx, c):
    x, y, z = (g.join_q2(ctx, c[k], c[k + 1]) for k in (0, 2, 4))
    fq = ctx.frob_q
    return (x, fq(x), y, fq(y), z, fq(z))


def vt_normalize(ctx, w):
    """Scale by a GF(q) unit so the first nonzero GF(q)-coordinate is 1."""
    lead = next((x for x in vt_coords(ctx, w) if x != 0), None)
    if lead is None:
        raise ValueError("zero vector")
    s = ctx.inv(lead)
    return tuple(ctx.mul(s, x) for x in w)


def vt_basis(ctx):
    return tuple(vt_from_coords(ctx, tuple(int(i == j) for j in range(6))) for i in range(6))


def vt_perp(ctx, ws):
    """Canonical basis (as pattern 6-tuples) of the bt-orthogonal space."""
    rows = [[g.bt(ctx, w, bv) for bv in vt_basis(ctx)] for w in ws]
    return [vt_from_coords(ctx, k) for k in g.nullspace(ctx, rows, 6)]


def vt_span_points(ctx, ws):
    """Canonical GF(q)-projective points of the GF(q)-span of ws."""
    coords, _ = g.rref_rows(ctx, [vt_coords(ctx, w) for w in ws])
    F = ctx.subfield(ctx.h)
    k = len(coords)
    pts = []
    for lead in range(k):
        for tail in itertools.product(F, repeat=k - 1 - lead):
            co = (0,) * lead + (1,) + tail
            vec = [0] * 6
            for cf, bs in zip(co[lead:], coords[lead:]):
                vec = [a ^ ctx.mul(cf, b) for a, b in zip(vec, bs)]
            pts.append(vt_normalize(ctx, vt_from_coords(ctx, tuple(vec))))
    return pts


def klein_vt(ctx, line):
    """Canonical pattern-space representative of a line's Klein image."""
    w = to_vt(ctx, g.klein_map(ctx, line))
    if w is None:
        raise RuntimeError(f"Klein image of {line} left the pattern space")
    return vt_normalize(ctx, w)


def parabolic_point_set(ctx):
    """Klein images of the extended GF(q)-lines (a parabolic quadric)."""
    return frozenset(klein_vt(ctx, line) for line in w_lines(ctx))


# ---------------------------------------------------------------------------
# the two blocks, by enumeration

def line_census(ctx):
    """`hemisystem.line_census` by enumerating the lines through every point."""
    all_lines = {line for p in hermitian_points(ctx) for line, _ in g.h_lines_through(ctx, p)}
    mset = set(map(line_tuple, hs.build_hemisystem(ctx)["rows"]))
    tset = {tau_line(ctx, line) for line in mset}
    wset = set(w_lines(ctx))
    q = ctx.q
    expected_total = (q + 1) * (q ** 3 + 1)
    disjoint = (not mset & tset) and (not mset & wset) and (not tset & wset)
    covers = mset | tset | wset == all_lines
    return {"pass": disjoint and covers and len(all_lines) == expected_total,
            "total_lines": len(all_lines), "expected_total": expected_total,
            "w_extended": len(wset), "orbit": len(mset), "tau_orbit": len(tset),
            "disjoint": disjoint, "covers": covers}


def klein_images(ctx, lines, S):
    """`hemisystem.klein_images` through GF(q)-spans and perps, line by line,
    with the spread of line i the extended lines of the nonzero columns of S[i]."""
    norm = lambda v: g.normalize_point(ctx, v)
    wl = g.w_line_index(ctx)["lines"]
    rows = list(map(line_tuple, lines["rows"]))
    ws = [tuple(map(tuple, w.tolist())) for w in (lines["w"], lines["w_prime"])]
    proj_fail = sum(
        1 for line, w, wp in zip(rows, *ws)
        if norm(g.klein_map(ctx, line)) != norm(w)
        or norm(g.klein_map(ctx, tau_line(ctx, line))) != norm(wp))
    q4set = parabolic_point_set(ctx)
    w0_fail = image_fail = singular_fail = 0
    for w, wp, members in zip(*ws, S):
        if qt(ctx, w) != 0 or qt(ctx, wp) != 0:
            singular_fail += 1
        if vt_normalize(ctx, g.W0) not in vt_span_points(ctx, [w, wp]):
            w0_fail += 1
        perp = vt_perp(ctx, [w, wp])
        quadric_pts = {p for p in vt_span_points(ctx, perp) if p in q4set}
        if quadric_pts != {klein_vt(ctx, wl[k]) for k in np.flatnonzero(members)}:
            image_fail += 1
    return {"pass": not (proj_fail or w0_fail or image_fail or singular_fail),
            "projective_mismatches": proj_fail, "w0_not_on_secant": w0_fail,
            "spread_image_mismatches": image_fail, "nonsingular_images": singular_fail}


# ---------------------------------------------------------------------------
# the strongly regular fusion by counting common neighbours

def srg_check(table, merged):
    """Exact strongly-regular check of the union of the given classes of a
    RelationTable, by squaring its adjacency matrix."""
    merged = sorted(set(merged))
    if not merged:
        raise ValueError("merged class set is empty")
    adj = np.isin(table.classes, merged)
    np.fill_diagonal(adj, False)
    n = table.n
    deg = adj.sum(axis=1)
    if deg.min() != deg.max():
        w = int(np.argmin(deg))
        return {"pass": False, "reason": "not regular", "witness_vertex": w,
                "degrees": [int(deg.min()), int(deg.max())]}
    k = int(deg[0])
    A = adj.astype(np.float64)
    A2 = A @ A
    off = ~np.eye(n, dtype=bool)
    lam_vals = A2[adj]
    mu_mask = off & ~adj
    if not lam_vals.size or lam_vals.min() != lam_vals.max():
        return {"pass": False, "reason": "common-neighbor count varies on edges"}
    lam = int(lam_vals[0])
    if not mu_mask.any():
        return {"pass": True, "degenerate": True, "v": n, "k": k,
                "lambda": lam, "mu": None,
                "reason": "complete graph; mu undefined"}
    mu_vals = A2[mu_mask]
    if mu_vals.min() != mu_vals.max():
        return {"pass": False, "reason": "common-neighbor count varies on non-edges"}
    mu = int(mu_vals[0])
    expect = k * np.eye(n) + lam * A + mu * (np.ones((n, n)) - np.eye(n) - A)
    if not np.array_equal(A2, expect):
        xs, ys = np.nonzero(A2 != expect)
        return {"pass": False, "reason": "A^2 identity fails",
                "witness_pair": [int(xs[0]), int(ys[0])]}
    return {"pass": True, "degenerate": False, "v": n, "k": k,
            "lambda": lam, "mu": mu}


# ---------------------------------------------------------------------------
# line sets taken apart, and a Klein-image fault

def line_tuple(rows):
    """A (2, 4) array of canonical rows as the tuple form of `geometry.line_through`."""
    return tuple(map(tuple, rows.tolist()))


def points_of(ctx, codes):
    """The frozenset of coordinate tuples of a row of point codes."""
    return frozenset(g.decode_point(ctx, c) for c in codes)


def take(lines, idx):
    """The line set of the lines `idx` of `lines`, in that order."""
    return {k: v[np.asarray(idx)] for k, v in lines.items()}


def perturbed_klein_image(ctx, k):
    """(extended line k, the pattern multiple of its Klein image plus W0).

    qt(K + W0) = qt(W0) = 1, so the new image lies on no extended line.
    """
    line = g.w_line_index(ctx)["lines"][k]
    image = to_vt(ctx, g.plucker(ctx, *line))
    return line, tuple(a ^ b for a, b in zip(image, g.W0))


def perturb_klein_image(monkeypatch, ctx, k):
    """Make the Klein image of extended line k the vector of `perturbed_klein_image`,
    in the bulk minors and in `geometry.klein_map`; returns that line and vector."""
    line, image = perturbed_klein_image(ctx, k)
    real_arr, real_map = g.plucker_arr, g.klein_map
    n_lines = len(g.w_line_index(ctx)["lines"])

    def plucker_arr(ctx, R1, R2):
        P = real_arr(ctx, R1, R2)
        if len(P) == n_lines:  # the extended lines, in `w_line_index` order
            P[k] = ctx.mul_arr(ctx.inv(g.pattern_scalars(ctx, P[k:k + 1])[0]), image)
        return P

    monkeypatch.setattr(g, "plucker_arr", plucker_arr)
    monkeypatch.setattr(g, "klein_map", lambda ctx, ln: (
        g.normalize_point(ctx, image) if ln == line else real_map(ctx, ln)))
    return line, image


def fault_pair_lines(monkeypatch, edit):
    """Make `conic.pair_lines` return the lines `edit(a, b)` changes in place."""
    real = conic.pair_lines

    def lines(ctx):
        a, b = (x.copy() for x in real(ctx))
        edit(a, b)
        return a, b

    monkeypatch.setattr(conic, "pair_lines", lines)
