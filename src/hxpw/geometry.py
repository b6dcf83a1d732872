"""Projective and polar geometry over GF(q^2) inside the field tower.

Conventions, fixed once so every set comparison is exact tuple equality:

* a point of PG(k-1, q^2) is a k-tuple of ints whose first nonzero
  coordinate is 1; the bulk helpers hold points of PG(3, q^2) as rows of
  (..., 4) int64 arrays and, at h <= 3, as one int64 code each
  (`point_codes`), which orders like the tuples;
* a line is a 2-row tuple in reduced row echelon form over GF(q^2);
* the hermitian form is h(X,Y) = X1 Y4^q + X2 Y2^q + X3 Y3^q + X4 Y1^q,
  with totally isotropic lines forming a generalized quadrangle of order
  (q^2, q);
* the symplectic substructure lives on vectors (a, x^q, x, b) with
  a, b in GF(q) and x in GF(q^2); restricted to those, h becomes the
  alternating form b_w and pairs with the quadratic form q_w of minus type;
* the Klein image of a line with basis rows r, s is the 6-tuple
  (p01, p02, p03, p12, p31, p23) of 2x2 minors, ordered so the ambient
  quadric on images is X1 X6 + X2 X5 + X3 X4;
* the 6-dimensional GF(q)-space of "conjugate-pattern" 6-vectors
  (x, x^q, y, y^q, z, z^q) carries the restricted quadratic form
  q_t(w) = x z^q + x^q z + y^(q+1) and its polar alternating form b_t;
  the Klein image of an extended GF(q)-line has a scalar multiple of that
  pattern (`pattern_scalars` finds it for many images at once).

The points and extended lines of W(3, q) are held only as arrays
(`w_points`, `w_lines`, `w_line_index`).

The GF(q)-linear kernel behind `w_meeting_line_through` is taken in
explicit GF(q) coordinates obtained by splitting GF(q^2) over the basis
{1, e}, where e is the smallest element of GF(q^2) outside GF(q).  Row
reductions use the Gauss-Jordan elimination of `fields`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import nullspace, rref_rows

W0 = (0, 0, 1, 1, 0, 0)  # the distinguished radical direction of the fixed hyperplane


class StructureError(RuntimeError):
    """A geometric structure claim failed (certificate failure)."""


# ---------------------------------------------------------------------------
# points and lines of PG(3, q^2)

def normalize_point(ctx, v):
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        raise ValueError("zero vector spans no point")
    if lead == 1:
        return tuple(v)
    s = ctx.inv(lead)
    return tuple(ctx.mul(s, x) for x in v)


def line_through(ctx, u, v):
    """Canonical line spanned by two independent vectors."""
    rows, _ = rref_rows(ctx, [u, v])
    if len(rows) != 2:
        raise ValueError("vectors do not span a line (rank < 2)")
    return tuple(rows)


def line_points(ctx, line):
    """The q^2 + 1 canonical points on a canonical line."""
    r1, r2 = line
    pts = [normalize_point(ctx, r2)]
    for c in ctx.subfield(2 * ctx.h):
        pts.append(normalize_point(ctx, tuple(a ^ ctx.mul(c, b) for a, b in zip(r1, r2))))
    return pts


# ---------------------------------------------------------------------------
# the same on arrays: (..., 4) int64 coordinate arrays and int64 point codes

def normalize_points(ctx, P):
    """Scale each vector of the (..., 4) array P to lead coordinate one."""
    P = np.asarray(P, dtype=np.int64)
    if not np.any(P, axis=-1).all():
        raise ValueError("zero vector spans no point")
    lead = np.take_along_axis(P, _lead(P)[..., None], axis=-1)
    if (lead == 1).all():  # the points of canonical rows are normalized already
        return P
    return ctx.mul_arr(P, ctx.inv_arr(lead))


def line_points_arr(ctx, R1, R2):
    """The normalized points (k, q^2 + 1, 4) of the k lines spanned by R1[i], R2[i].

    Row i holds R2[i] and then R1[i] + c R2[i] over GF(q^2) in ascending
    encoding order, the order of `line_points`.  The rows must have
    GF(q^2) entries and rank 2.
    """
    R1 = np.asarray(R1, dtype=np.int64)[:, None, :]
    R2 = np.asarray(R2, dtype=np.int64)[:, None, :]
    c = np.array(ctx.subfield(2 * ctx.h), dtype=np.int64)[None, :, None]
    return normalize_points(ctx, np.concatenate([R2, R1 ^ ctx.mul_arr(c, R2)], axis=1))


def _lead(P):
    return np.argmax(P != 0, axis=-1)


def join_rows(ctx, A, B):
    """The reduced row echelon rows (k, 2, 4) of the lines A[i] B[i].

    A and B hold vectors of distinct points, normalized here.  The second
    row is the one point of the line whose lead coordinate comes last; the
    first is the point with the earlier lead, cleared at the second pivot.
    """
    A, B = normalize_points(ctx, A), normalize_points(ctx, B)
    k = np.arange(len(A))
    swap = (_lead(A) > _lead(B))[:, None]
    A, B = np.where(swap, B, A), np.where(swap, A, B)
    # equal leads: A + B is the point of the line that is zero there
    R2 = normalize_points(ctx, np.where((_lead(A) == _lead(B))[:, None], A ^ B, B))
    R1 = A ^ ctx.mul_arr(A[k, _lead(R2)][:, None], R2)
    return np.stack([R1, R2], axis=1)


def point_codes(ctx, P):
    """One int64 per point of a (..., 4) array: the 4h-bit coordinates side by side.

    Codes order like the coordinate tuples.  Four coordinates must fit in
    63 bits, so h <= 3.
    """
    bits = 4 * ctx.h
    if 4 * bits > 63:
        raise ValueError(f"point codes need 4 x {bits} bits; they are defined for h <= 3")
    P = np.asarray(P, dtype=np.int64)
    return ((P[..., 0] << bits | P[..., 1]) << bits | P[..., 2]) << bits | P[..., 3]


def lookup(sorted_codes, codes):
    """(position, found): where each code sits in the sorted array, and whether it is there."""
    pos = np.searchsorted(sorted_codes, codes).clip(max=sorted_codes.size - 1)
    return pos, sorted_codes[pos] == codes


# ---------------------------------------------------------------------------
# the hermitian form and its polar space

def hermitian(ctx, u, v):
    fq = ctx.frob_q
    m = ctx.mul
    return (m(u[0], fq(v[3])) ^ m(u[1], fq(v[1]))
            ^ m(u[2], fq(v[2])) ^ m(u[3], fq(v[0])))


def hermitian_arr(ctx, U, V):
    """`hermitian` on (..., 4) arrays, row by row."""
    m, Vq = ctx.mul_arr, ctx.frob_arr(V, ctx.h)
    return (m(U[..., 0], Vq[..., 3]) ^ m(U[..., 1], Vq[..., 1])
            ^ m(U[..., 2], Vq[..., 2]) ^ m(U[..., 3], Vq[..., 0]))


def is_isotropic(ctx, p):
    return hermitian(ctx, p, p) == 0


@lru_cache(maxsize=None)
def hermitian_codes(ctx):
    """The sorted `point_codes` of the (q^2+1)(q^3+1) isotropic points."""
    F = np.array(ctx.subfield(2 * ctx.h), dtype=np.int64)
    h = ctx.h
    norm = lambda x: ctx.mul_arr(x, ctx.frob_arr(x, h))
    # lead pattern (1, a, b, c): h(p,p) = c + c^q + N(a) + N(b)
    a, b, c = (x.ravel() for x in np.meshgrid(F, F, F, indexing="ij"))
    iso = (c ^ ctx.frob_arr(c, h) ^ norm(a) ^ norm(b)) == 0
    lead1 = np.stack([np.ones_like(a), a, b, c], axis=1)[iso]
    # lead pattern (0, 1, b, c): h(p,p) = 1 + N(b)
    b, c = (x.ravel() for x in np.meshgrid(F, F, indexing="ij"))
    lead2 = np.stack([np.zeros_like(b), np.ones_like(b), b, c], axis=1)[norm(b) == 1]
    # lead pattern (0, 0, 1, c): h(p,p) = 1, never isotropic
    return np.sort(point_codes(ctx, np.concatenate([lead1, lead2, [(0, 0, 0, 1)]])))


# ---------------------------------------------------------------------------
# GF(q^2) = GF(q)(e) coordinate splitting

@lru_cache(maxsize=None)
def q2_basis(ctx):
    """(e, 1/(e + e^q)) for the smallest e in GF(q^2) outside GF(q)."""
    gq = set(ctx.subfield(ctx.h))
    e = next(x for x in ctx.subfield(2 * ctx.h) if x not in gq)
    return e, ctx.inv(e ^ ctx.frob_q(e))


def split_q2(ctx, c):
    """Write c in GF(q^2) as c0 + c1*e with c0, c1 in GF(q)."""
    e, dinv = q2_basis(ctx)
    c1 = ctx.mul(c ^ ctx.frob_q(c), dinv)
    return c ^ ctx.mul(c1, e), c1


def join_q2(ctx, c0, c1):
    e, _ = q2_basis(ctx)
    return c0 ^ ctx.mul(c1, e)


# ---------------------------------------------------------------------------
# the symplectic substructure on (a, x^q, x, b) vectors

def is_wvector(ctx, v):
    h = ctx.h
    return (ctx.in_subfield(v[0], h) and ctx.in_subfield(v[3], h)
            and v[1] == ctx.frob_q(v[2]))


def _check_wvector(ctx, v):
    if not is_wvector(ctx, v):
        raise ValueError(f"{v} does not have the (a, x^q, x, b) pattern")


def qhat(ctx, u):
    """Minus-type quadratic form a*b + x^(q+1) on a pattern vector."""
    _check_wvector(ctx, u)
    return ctx.mul(u[0], u[3]) ^ ctx.mul(u[1], u[2])


def w_from_coords(ctx, c):
    x = join_q2(ctx, c[1], c[2])
    return (c[0], ctx.frob_q(x), x, c[3])


def is_w_point(ctx, p):
    """Whether the PG(3,q^2) point has a representative pattern vector.

    Solved in O(1) through ratio conditions rather than scanning scalars.
    """
    p1, p2, p3, p4 = p
    h = ctx.h
    if p1 != 0:
        return (ctx.in_subfield(ctx.div(p4, p1), h)
                and ctx.div(p2, p1) == ctx.frob_q(ctx.div(p3, p1)))
    if p4 != 0:
        return ctx.div(p2, p4) == ctx.frob_q(ctx.div(p3, p4))
    if p2 == 0 or p3 == 0:
        return False
    # need c with c*p2 = (c*p3)^q, i.e. c^(q-1) = p2 / p3^q: solvable iff norm 1
    u = ctx.div(p2, ctx.frob_q(p3))
    return ctx.mul(u, ctx.frob_q(u)) == 1


@lru_cache(maxsize=None)
def w_points(ctx):
    """The (q+1)(q^2+1) points spanned by pattern vectors, as a sorted (k, 4) array."""
    Fq = np.array(ctx.subfield(ctx.h), dtype=np.int64)
    F = np.array(ctx.subfield(2 * ctx.h), dtype=np.int64)
    a, b, x = (v.ravel() for v in np.meshgrid(Fq, Fq, F, indexing="ij"))
    V = np.stack([a, ctx.frob_arr(x, ctx.h), x, b], axis=1)
    return np.unique(normalize_points(ctx, V[V.any(axis=1)]), axis=0)


@lru_cache(maxsize=None)
def w_point_codes(ctx):
    """The sorted `point_codes` of `w_points`."""
    return point_codes(ctx, w_points(ctx))


@lru_cache(maxsize=None)
def w_lines(ctx):
    """All totally isotropic GF(q)-lines, extended over GF(q^2).

    Returns the sorted (k, 2, 4) array of their canonical rows: the
    (q+1)(q^2+1) joins of hermitian-orthogonal pairs of W(3, q) points.
    """
    W = w_points(ctx)
    i, j = np.triu_indices(len(W), 1)
    orthogonal = hermitian_arr(ctx, W[i], W[j]) == 0
    return np.unique(join_rows(ctx, W[i[orthogonal]], W[j[orthogonal]]), axis=0)


@lru_cache(maxsize=None)
def w_line_index(ctx):
    """The extended GF(q)-lines as arrays, with each external point's line.

    Returns a dict:

    * ``lines``: the canonical lines in `w_lines` order, ``codes`` the
      (k, q^2 + 1) codes of their points in `line_points` order;
    * ``ext_codes``: the sorted codes of the (q^2+1)(q^3-q) external points,
      ``ext_line`` the index of the one line through each;
    * ``incidence``: the 0/1 float32 matrix K with K[l, w] = 1 when line l
      holds the W-point of code `w_point_codes`[w].

    StructureError unless the lines' non-W points are exactly the external
    points of `hermitian_codes`, each on exactly one line, and every line
    holds q + 1 W-points.
    """
    rows = w_lines(ctx)
    lines = tuple(tuple(map(tuple, r)) for r in rows.tolist())
    codes = point_codes(ctx, line_points_arr(ctx, rows[:, 0], rows[:, 1]))
    w_codes = w_point_codes(ctx)
    w_pos, on_w = lookup(w_codes, codes)
    line_of = np.broadcast_to(np.arange(len(lines))[:, None], codes.shape)
    order = np.argsort(codes[~on_w], kind="stable")
    ext_codes, ext_line = codes[~on_w][order], line_of[~on_w][order]
    twice = np.flatnonzero(ext_codes[1:] == ext_codes[:-1])
    if twice.size:
        k = int(twice[0])
        raise StructureError(
            f"external point {decode_point(ctx, ext_codes[k])} lies on extended lines "
            f"{int(ext_line[k])} and {int(ext_line[k + 1])}")
    herm = hermitian_codes(ctx)
    if not np.array_equal(ext_codes, herm[~lookup(w_codes, herm)[1]]):
        raise StructureError(
            f"the extended lines hold {ext_codes.size} non-W points, which are not the "
            f"{herm.size - w_codes.size} external points")
    incidence = np.zeros((len(lines), w_codes.size), dtype=np.float32)
    incidence[line_of[on_w], w_pos[on_w]] = 1
    short = np.flatnonzero(incidence.sum(axis=1) != ctx.q + 1)
    if short.size:
        raise StructureError(f"extended line {int(short[0])} does not hold q + 1 W-points")
    return {"lines": lines, "codes": codes, "ext_codes": ext_codes, "ext_line": ext_line,
            "incidence": incidence}


def decode_point(ctx, code):
    """The coordinate tuple of one `point_codes` code."""
    bits = 4 * ctx.h
    code = int(code)
    return tuple((code >> (bits * k)) & ((1 << bits) - 1) for k in (3, 2, 1, 0))


# ---------------------------------------------------------------------------
# totally isotropic lines through a point

def h_lines_through(ctx, p):
    """The q+1 isotropic lines through an isotropic point.

    Returns [(line, meets_w)] in deterministic order; meets_w flags the
    lines containing at least one pattern-vector point.
    """
    p = normalize_point(ctx, p)
    if not is_isotropic(ctx, p):
        raise ValueError("point is not isotropic")
    fq = ctx.frob_q
    coeff = (fq(p[3]), fq(p[1]), fq(p[2]), fq(p[0]))  # x -> h(x, p)
    kern = nullspace(ctx, [coeff], 4)  # 3-dim, contains p
    u = next(k for k in kern if len(rref_rows(ctx, [p, k])[0]) == 2)
    v = next(k for k in kern if len(rref_rows(ctx, [p, u, k])[0]) == 3)
    dirs = [v] + [tuple(a ^ ctx.mul(c, b) for a, b in zip(u, v))
                  for c in ctx.subfield(2 * ctx.h)]
    out = []
    for x in dirs:
        if hermitian(ctx, x, x) == 0:
            line = line_through(ctx, p, x)
            meets = any(is_w_point(ctx, pt) for pt in line_points(ctx, line))
            out.append((line, meets))
    out.sort(key=lambda t: t[0])
    return out


def w_meeting_line_through(ctx, p):
    """The unique extended GF(q)-line through an external isotropic point.

    The pattern vectors orthogonal to p under the hermitian form are cut
    out by a 2x4 GF(q)-linear system whose kernel is exactly that line's
    GF(q)-point structure; anything but a 2-dimensional kernel would
    contradict the point structure of the polar space and raises.
    """
    fq = ctx.frob_q
    c1, c2, c3, c4 = fq(p[3]), fq(p[1]), fq(p[2]), fq(p[0])
    e, _ = q2_basis(ctx)
    cols = [c1, c2 ^ c3, ctx.mul(fq(e), c2) ^ ctx.mul(e, c3), c4]
    rows = [[], []]
    for c in cols:
        c0, c1b = split_q2(ctx, c)
        rows[0].append(c0)
        rows[1].append(c1b)
    kern = nullspace(ctx, rows, 4)
    if len(kern) != 2:
        raise ValueError(f"external point {p} has a {len(kern)}-dim orthogonal pattern space")
    wa, wb = (w_from_coords(ctx, k) for k in kern)
    return line_through(ctx, wa, wb)


# ---------------------------------------------------------------------------
# Klein correspondence

def plucker(ctx, r, s):
    """Minor vector (p01, p02, p03, p12, p31, p23) of a 2x4 basis."""
    m = ctx.mul
    return (m(r[0], s[1]) ^ m(r[1], s[0]),
            m(r[0], s[2]) ^ m(r[2], s[0]),
            m(r[0], s[3]) ^ m(r[3], s[0]),
            m(r[1], s[2]) ^ m(r[2], s[1]),
            m(r[3], s[1]) ^ m(r[1], s[3]),
            m(r[2], s[3]) ^ m(r[3], s[2]))


def plucker_arr(ctx, R1, R2):
    """`plucker` on (..., 4) arrays of basis rows: the (..., 6) minor vectors."""
    m = ctx.mul_arr
    return np.stack([m(R1[..., a], R2[..., b]) ^ m(R1[..., b], R2[..., a])
                     for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (2, 3))], axis=-1)


def klein_map(ctx, line):
    """Normalized Klein image point of a canonical line (basis-free)."""
    return normalize_point(ctx, plucker(ctx, *line))


# ---------------------------------------------------------------------------
# the conjugate-pattern 6-space and its elliptic quadric

def is_vt(ctx, w):
    fq = ctx.frob_q
    return (w[1] == fq(w[0]) and w[3] == fq(w[2]) and w[5] == fq(w[4])
            and all(ctx.in_subfield(c, 2 * ctx.h) for c in w))


def _check_vt(ctx, w):
    if not is_vt(ctx, w):
        raise ValueError(f"{w} does not have the (x, x^q, y, y^q, z, z^q) pattern")


def bt(ctx, w, w2):
    """The alternating polar form of q_t; lands in GF(q)."""
    _check_vt(ctx, w)
    _check_vt(ctx, w2)
    m = ctx.mul
    return (m(w[0], w2[5]) ^ m(w[1], w2[4]) ^ m(w[2], w2[3])
            ^ m(w[3], w2[2]) ^ m(w[4], w2[1]) ^ m(w[5], w2[0]))


def pattern_scalars(ctx, V):
    """Per row of the (k, 6) array V, the least nonzero c in GF(q^2) whose
    multiple c V[i] has the conjugate pattern, or 0 where there is none.

    The rows must have GF(q^2) entries.
    """
    c = np.array(ctx.subfield(2 * ctx.h)[1:], dtype=np.int64)
    W = ctx.mul_arr(c[:, None, None], np.asarray(V, dtype=np.int64)[None])
    ok = np.all(W[..., 1::2] == ctx.frob_arr(W[..., 0::2], ctx.h), axis=-1)
    return np.where(ok.any(axis=0), c[np.argmax(ok, axis=0)], 0)
