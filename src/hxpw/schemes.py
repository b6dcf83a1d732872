"""Association-scheme analytics over relation tables.

A relation table is an n x n integer matrix with 0 exactly on the diagonal
and symmetric classes 1..d off it.  Axiom verification counts two-step
walks: for 1 <= i <= j <= d-1 it forms the product A_i A_j of the class
adjacency matrices and demands that it be constant on every class k; the
constants are the intersection numbers p^k_ij.  That is (d-1)d/2 products
(3 for d = 3) instead of all (d+1)(d+2)/2, by the Bose-Mesner argument
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 2.1): A_0 = I gives
p^k_0j = delta_jk, the diagonal of A_i A_i shows class i regular with
valency k_i, and sum_j A_j = J then closes the span under products, with
p^k_id = k_i - sum_{j<d} p^k_ij and k_d = n - 1 - sum_{i<d} k_i.  The
products run in float32, which is exact here: every partial sum is a walk
count of at most n, and tables with n >= 2^24 are refused.

Everything downstream of the counts is exact rational arithmetic on
(d+1)-square matrices:

* the first eigenmatrix P has the valencies as row 0 and column 0 all
  ones; its rows are the common left eigenvectors of the intersection
  matrices B_1, B_2, ..., which split the space in turn into their exact
  eigenspaces.  Floats only propose the eigenvalues, as the integers
  nearest np.linalg.eigvals; each proposal is confirmed or rejected by an
  exact nullspace, and eigenspaces that do not fill a space abort
  certification (these schemes have integral character tables, so a
  non-integer eigenvalue is a failure, never an approximation);
* the second eigenmatrix is Q = n P^(-1), multiplicities are row 0 of Q;
* Krein parameters solve Q[l][i] Q[l][j] = sum_k q^k_ij Q[l][k], i.e.
  q^._ij = (1/n) P (Q[:,i] o Q[:,j]); they must be nonnegative;
* cometric (Q-polynomial) orderings are eigenspace reorderings making the
  matrix (q^k_1j) tridiagonal with nonzero off-diagonals, and metric
  (P-polynomial) orderings are the analogous relation reorderings on
  (p^k_1j).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np


class SchemeAxiomError(Exception):
    """A relation table failed an axiom; carries a reproducible witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


# ---------------------------------------------------------------------------
# exact linear algebra on small Fraction matrices

def _frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _frac_rref(rows):
    """Reduced row echelon form of a Fraction matrix: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _frac_inverse(A):
    n = len(A)
    rows, pivots = _frac_rref([list(row) + ident for row, ident in zip(A, _frac_identity(n))])
    if pivots != list(range(n)):  # a pivot in the identity half: A is singular
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]


def _frac_nullspace(A):
    rows, pivots = _frac_rref(A)
    width = len(rows[0]) if rows else 0
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def _eigenspaces(B, lams, basis):
    """The nonzero spaces {v in span(basis) : v B = lam v}, for lam in `lams`.

    The rows `basis` span a space that B maps into itself, so its
    eigenvalues are among B's.  `lams` only proposes integers: a wrong one
    has an empty exact nullspace, and unless the spaces found fill the span
    some eigenvalue was not proposed, which raises SchemeAxiomError.
    """
    m = len(B)
    images = [[sum(v[k] * B[k][j] for k in range(m)) for j in range(m)] for v in basis]
    spaces = []
    for lam in sorted(set(lams)):
        # the coefficients c with sum_b c_b (basis_b B - lam basis_b) = 0
        coeffs = _frac_nullspace([[w[j] - lam * v[j] for w, v in zip(images, basis)]
                                  for j in range(m)])
        if coeffs:
            spaces.append([[sum(c * v[j] for c, v in zip(cs, basis)) for j in range(m)]
                           for cs in coeffs])
    if sum(map(len, spaces)) != len(basis):
        raise SchemeAxiomError("non-integer eigenvalue of an intersection matrix")
    return spaces


# ---------------------------------------------------------------------------
# relation tables

class RelationTable:
    """n x n class matrix with identity class 0 on the diagonal."""

    def __init__(self, classes, d=None):
        classes = np.asarray(classes)
        if classes.ndim != 2 or classes.shape[0] != classes.shape[1]:
            raise ValueError("relation table must be square")
        self.classes = classes
        self.n = classes.shape[0]
        self.d = int(classes.max()) if d is None else d

    def structure_report(self):
        c = self.classes
        diag_ok = bool(np.all(np.diag(c) == 0))
        offdiag = c[~np.eye(self.n, dtype=bool)]
        off_ok = bool(offdiag.size == 0 or (offdiag.min() >= 1 and offdiag.max() <= self.d))
        sym_ok = bool(np.array_equal(c, c.T))
        empty = [k for k in range(1, self.d + 1) if not np.any(c == k)]
        return {"symmetric": sym_ok, "diagonal_ok": diag_ok,
                "classes_in_range": off_ok, "empty_classes": empty,
                "degenerate": bool(empty)}


FLOAT32_EXACT = 1 << 24  # float32 holds every integer below this exactly
# Rows of A_i per walk-count product; a table of at most this many points
# (every h <= 2) is one block.
WALK_ROWS = 256


def verify_scheme(table: RelationTable):
    """Intersection-number constancy from the products A_i A_j, 1 <= i <= j < d.

    The remaining p-numbers follow from A_0 = I and sum_j A_j = J (see the
    module docstring); returns the analytics.  Each product is formed by
    row blocks of WALK_ROWS rows and compared with the exact count at each
    class's first pair, so the working set is one n x n float32 class
    matrix A_j plus a few float32 blocks of WALK_ROWS x n; only a failing
    product is formed whole, for its witness.
    """
    n, d = table.n, table.d
    if n >= FLOAT32_EXACT:
        raise SchemeAxiomError(
            f"n = {n} is too large for exact float32 walk counts",
            {"n": n, "limit": FLOAT32_EXACT})
    rep = table.structure_report()
    if not (rep["symmetric"] and rep["diagonal_ok"] and rep["classes_in_range"]):
        raise SchemeAxiomError("structural invariant violated", rep)
    if rep["empty_classes"]:
        raise SchemeAxiomError(
            f"empty classes {rep['empty_classes']} (degenerate table)", rep)
    c = table.classes
    firsts = [divmod(int(np.argmax(c == k)), n) for k in range(d + 1)]
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(1, d):
        for j in range(i, d):
            # lut[k]: #{z : c[x, z] = i, c[z, y] = j} at the first pair (x, y) of class k
            lut = np.array([np.count_nonzero((c[x] == i) & (c[y] == j)) for x, y in firsts],
                           dtype=np.float32)  # c is symmetric: c[z, y] = c[y, z]
            Aj = (c == j).astype(np.float32)
            for r0 in range(0, n, WALK_ROWS):
                block = c[r0:r0 + WALK_ROWS]
                if not np.array_equal((block == i).astype(np.float32) @ Aj, lut[block]):
                    raise _walk_witness((c == i).astype(np.float32) @ Aj, c, i, j, firsts)
            del Aj  # not held while the next one is built
            for k in range(d + 1):
                p[k][i][j] = p[k][j][i] = int(lut[k])
    # the diagonal of A_i A_i was constant: class i is regular of degree k_i
    val = [1] + [p[0][i][i] for i in range(1, d)]
    val.append(n - 1 - sum(val[1:]))
    for k in range(d + 1):
        for j in range(d + 1):
            p[k][0][j] = p[k][j][0] = int(j == k)
        for i in range(1, d):
            p[k][i][d] = p[k][d][i] = val[i] - sum(p[k][i][:d])
        p[k][d][d] = val[d] - sum(p[k][i][d] for i in range(d))
    return SchemeAnalytics(table, p)


def _walk_witness(C, c, i, j, firsts):
    """The first class on which the (R_i, R_j) walk counts C vary."""
    for k, (x0, y0) in enumerate(firsts):
        vals = C[c == k]
        v0 = C[x0, y0]
        if not np.all(vals == v0):
            bad = int(np.argmax(vals != v0))
            xs, ys = np.nonzero(c == k)
            return SchemeAxiomError(
                f"count of (R{i}, R{j}) walks is not constant on class {k}",
                {"i": i, "j": j, "k": k,
                 "base_pair": [x0, y0],
                 "count": int(v0),
                 "other_pair": [int(xs[bad]), int(ys[bad])],
                 "other_count": int(vals[bad])})
    raise AssertionError("walk counts differ from the lookup but no class varies")


class SchemeAnalytics:
    """Intersection numbers and the exact eigen/Krein data derived from them."""

    def __init__(self, table, p):
        self.table = table
        self.n = table.n
        self.d = table.d
        self.p = p
        self.valencies = [p[0][i][i] for i in range(self.d + 1)]
        self._eigen = None
        self._krein = None

    # -- eigenmatrices ------------------------------------------------------

    def intersection_matrix(self, i):
        """B_i with (B_i)[k][j] = p^k_ij."""
        return [[Fraction(self.p[k][i][j]) for j in range(self.d + 1)]
                for k in range(self.d + 1)]

    def _common_left_eigenvectors(self):
        """One row v per common eigenspace, with v B_i = lam v for every i.

        B_1, ..., B_d in turn split every space found so far into its exact
        eigenspaces; the B_i commute, so each space is B_i-invariant.  The
        candidate eigenvalues are the integers nearest the float ones.
        """
        d1 = self.d + 1
        spaces = [_frac_identity(d1)]
        for i in range(1, d1):
            B = self.intersection_matrix(i)
            lams = [round(x.real) for x in np.linalg.eigvals(np.array(B, dtype=float))]
            spaces = [part for basis in spaces
                      for part in ([basis] if len(basis) == 1 else _eigenspaces(B, lams, basis))]
        if len(spaces) != d1:
            raise SchemeAxiomError(
                f"eigenspace split exhausted the algebra: found {len(spaces)} "
                f"common eigenvectors, expected {d1}")
        return [basis[0] for basis in spaces]

    def eigenmatrix(self):
        """(P, Q, multiplicities): row 0 of P is the valency row."""
        if self._eigen is not None:
            return self._eigen
        d1 = self.d + 1
        rows = []
        for v in self._common_left_eigenvectors():
            if v[0] == 0:
                raise SchemeAxiomError("eigenvector with zero identity coordinate")
            rows.append([x / v[0] for x in v])
        kvec = [Fraction(k) for k in self.valencies]
        try:
            rows.remove(kvec)
        except ValueError:
            raise SchemeAxiomError("valency row missing from the eigenvectors")
        rows.sort(key=lambda r: r[1:], reverse=True)
        P = [kvec] + rows
        Q = [[self.n * x for x in row] for row in _frac_inverse(P)]
        mult = Q[0]
        if any(m.denominator != 1 or m <= 0 for m in mult):
            raise SchemeAxiomError(f"multiplicities {mult} are not positive integers")
        if sum(mult) != self.n:
            raise SchemeAxiomError("multiplicities do not sum to the point count")
        self._eigen = (P, Q, [int(m) for m in mult])
        return self._eigen

    # -- Krein parameters and polynomial orderings ----------------------------

    def krein(self):
        """q[k][i][j], exact; raises on any negative value."""
        if self._krein is not None:
            return self._krein
        P, Q, _ = self.eigenmatrix()
        d1 = self.d + 1
        q = [[[Fraction(0)] * d1 for _ in range(d1)] for _ in range(d1)]
        for i in range(d1):
            for j in range(i, d1):
                rhs = [Q[l][i] * Q[l][j] for l in range(d1)]
                for k in range(d1):
                    val = sum(P[k][l] * rhs[l] for l in range(d1)) / self.n
                    if val < 0:
                        raise SchemeAxiomError(
                            f"negative Krein parameter q^{k}_{i}{j} = {val}")
                    q[k][i][j] = val
                    q[k][j][i] = val
        self._krein = q
        return q

    @staticmethod
    def _tridiagonal_orderings(d, entry):
        """Orderings sigma of 1..d making entry(sigma(k), sigma(1), sigma(j))
        tridiagonal with nonzero off-diagonals (indices 0 fixed)."""
        return [list(perm) for perm in permutations(range(1, d + 1))
                if all((entry(s[k], s[1], s[j]) != 0) == (abs(j - k) == 1)
                       for s in [(0, *perm)] for j in range(d + 1) for k in range(d + 1)
                       if j != k)]

    def q_polynomial_orderings(self):
        q = self.krein()
        return self._tridiagonal_orderings(self.d, lambda k, i, j: q[k][i][j])

    def p_polynomial_orderings(self):
        return self._tridiagonal_orderings(self.d, lambda k, i, j: self.p[k][i][j])

    # -- strongly regular fusion -------------------------------------------------

    def srg_parameters(self, merged):
        """Strongly regular parameters of the union of the given classes,
        from the p-numbers.

        A = sum_{m in M} A_m has A^2 = sum_{a,b in M} A_a A_b, so a pair in
        class c has sum_{a,b in M} p^c_ab common neighbours.
        """
        merged = sorted(set(merged))
        if not merged or merged[0] < 1 or merged[-1] > self.d:
            raise ValueError(f"merged classes {merged} are not a nonempty subset of 1..{self.d}")
        walks = [sum(self.p[c][a][b] for a in merged for b in merged)
                 for c in range(self.d + 1)]
        k = walks[0]
        lams = {walks[c] for c in merged}
        if len(lams) != 1:
            return {"pass": False, "reason": "common-neighbor count varies on edges"}
        lam = lams.pop()
        mus = {walks[c] for c in range(1, self.d + 1) if c not in merged}
        if not mus:
            return {"pass": True, "degenerate": True, "v": self.n, "k": k,
                    "lambda": lam, "mu": None,
                    "reason": "complete graph; mu undefined"}
        if len(mus) != 1:
            return {"pass": False, "reason": "common-neighbor count varies on non-edges"}
        return {"pass": True, "degenerate": False, "v": self.n, "k": k,
                "lambda": lam, "mu": mus.pop()}

    # -- primitivity ----------------------------------------------------------

    def primitivity(self):
        return primitivity(self.table)


def _connected(adj):
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = True
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())


def primitivity(table: RelationTable):
    """Connectivity of every nonidentity class graph (no axioms assumed)."""
    report = {}
    for k in range(1, table.d + 1):
        report[f"class_{k}_connected"] = _connected(table.classes == k)
    report["pass"] = all(v for kk, v in report.items() if kk != "pass")
    return report


# ---------------------------------------------------------------------------
# fusions

def fuse(table: RelationTable, partition):
    """Relabel classes by their part index (1-based); identity stays 0."""
    flat = [c for part in partition for c in part]
    if sorted(flat) != list(range(1, table.d + 1)):
        raise ValueError(f"{partition} is not a partition of 1..{table.d}")
    lut = np.zeros(table.d + 1, dtype=table.classes.dtype)
    for idx, part in enumerate(partition, start=1):
        for c in part:
            lut[c] = idx
    return RelationTable(lut[table.classes], d=len(partition))


# ---------------------------------------------------------------------------
# the family's known first eigenmatrix

@lru_cache(maxsize=None)
def expected_p_matrix(q: int):
    """First eigenmatrix of the 3-class family at even q, valency row first."""
    F = Fraction
    return (
        (F(1), F((q - 2) * (q * q + 1), 2), F(q * (q * q + 1), 2),
         F(q * (q - 2) * (q * q + 1), 2)),
        (F(1), F(-(q - 1) * (q - 2), 2), F(-q * (q - 1), 2), F(q * (q - 2))),
        (F(1), F(-(q * q - q + 2), 2), F(q * (q + 1), 2), F(-q)),
        (F(1), F(q - 1), F(0), F(-q)),
    )


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_matrix(M):
    """A Fraction matrix as rows of `frac_str` strings."""
    return [[frac_str(x) for x in row] for row in M]
