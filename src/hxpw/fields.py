"""Exact arithmetic in the binary field tower GF(2^h) < GF(2^(2h)) < GF(2^(4h)).

All scalars live in one ambient field GF(2^(4h)); the proper subfields are
recovered as fixed-point sets of Frobenius powers, so no isomorphism
bookkeeping between separately constructed fields is ever needed.

An element is a plain int: bit i is the coefficient of X^i in the residue
polynomial, and the int value doubles as the element's canonical encoding.
Every "smallest element" tie-break in the package compares these encodings.
Zero and one are literally 0 and 1, and addition is xor.

The reducing modulus is the lexicographically smallest irreducible
polynomial of degree 4h over GF(2) (encodings compared as integers), found
by trial division.  Each tower also carries a distinguished element
``omega`` satisfying omega^(q^2) = omega + 1; together with 1 it is a
GF(q^2)-basis of GF(q^4) and pins down every construction that needs a
fixed basis choice.

Scalar and bulk operations read one set of numpy log/exp tables over
``generator``, the smallest g = 2, 3, ... whose first q^4 - 1 powers hold
every nonzero element; exp is built by doubling, each block the one before
times a power of g.  The tests check the tables against a scalar power
walk, and inversion against the extended Euclidean algorithm.

The package's one exact Gauss-Jordan elimination (`rref_rows`, `nullspace`)
runs over any field object with ``zero``, ``one``, ``inv``, ``mul`` and
``sub``: a FieldTower in the geometry, the rationals in `schemes`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# GF(2)[X] helpers on int-encoded polynomials (bit i = coefficient of X^i)

def poly_degree(p: int) -> int:
    """Degree of the polynomial p; degree of 0 is -1 by convention."""
    return p.bit_length() - 1


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[X]) product of two polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def polymod(p: int, m: int) -> int:
    """Remainder of p modulo m (m != 0)."""
    dm = poly_degree(m)
    dp = poly_degree(p)
    while dp >= dm:
        p ^= m << (dp - dm)
        dp = poly_degree(p)
    return p


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2) by trial division.

    A reducible polynomial of degree d has a factor of degree <= d // 2, so
    dividing by every polynomial of degree 1 .. d // 2 is a complete test
    (and is feasible for every degree this package constructs).
    """
    d = poly_degree(p)
    if d < 1:
        return False
    for f in range(2, 1 << (d // 2 + 1)):
        if polymod(p, f) == 0:
            return False
    return True


def smallest_irreducible(degree: int) -> int:
    """Lexicographically smallest irreducible polynomial of the degree.

    Encodings are compared as integers with the low bit holding the
    constant term, so "lexicographically smallest" is just the smallest
    int whose top bit sits at `degree`.
    """
    for p in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(p):
            return p
    raise RuntimeError(f"no irreducible polynomial of degree {degree}")  # unreachable


class FieldTower:
    """GF(2^(4h)) with its GF(2^h) and GF(2^(2h)) subfields.

    Attributes
    ----------
    h : base exponent, q = 2^h
    q, q2, q4 : orders of the three tower fields (q4 = field size)
    degree : 4h, the ambient extension degree over GF(2)
    modulus : int-encoded reducing polynomial
    omega : distinguished element with omega^(q^2) = omega + 1
    generator : the multiplicative generator behind the log/exp tables
    zero, one : the additive and multiplicative identities, 0 and 1
    """

    zero, one = 0, 1

    def __init__(self, h: int) -> None:
        if not isinstance(h, int) or h < 1:
            raise ValueError(f"h must be a positive integer, got {h!r}")
        self.h = h
        self.degree = 4 * h
        self.q = 1 << h
        self.q2 = 1 << (2 * h)
        self.q4 = 1 << (4 * h)
        self.size = self.q4
        self.modulus = smallest_irreducible(self.degree)

        self._build_tables()

        # omega: smallest solution of X^(q^2) + X = 1, searched in blocks of 2^16
        for start in range(0, self.size, 1 << 16):
            arr = np.arange(start, min(start + (1 << 16), self.size), dtype=np.int64)
            sol = arr[(self.frob_arr(arr, 2 * h) ^ arr) == 1]
            if sol.size:
                break
        self.omega = int(sol[0])  # x + x^(q^2) maps onto GF(q^2), so sol is never empty

        self._subfields: dict[int, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"FieldTower(h={self.h}, modulus={hex(self.modulus)})"

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        n1 = self.size - 1
        for g in range(2, self.size):
            # exp is doubled so log sums need no %; log[0] = 2 n1 sends every sum or
            # difference with it into the zero padding, so mul and div need no zero test.
            exp = np.zeros(4 * n1 + 1, dtype=np.int64)
            exp[0], k, gk = 1, 1, g
            while k < n1:  # exp[k:2k] = exp[:k] * g^k, Horner over the bits of g^k
                p = exp[k:min(2 * k, n1)]
                for i in reversed(range(gk.bit_length())):
                    p <<= 1
                    p ^= (p >> self.degree) * self.modulus
                    if gk >> i & 1:
                        p ^= exp[:p.size]
                k, gk = 2 * k, polymod(clmul(gk, gk), self.modulus)
            log = np.full(self.size, 2 * n1, dtype=np.int32)
            log[exp[:n1]] = np.arange(n1, dtype=np.int32)
            if np.array_equal(np.flatnonzero(log == 2 * n1), [0]):  # only 0 unhit: g primitive
                break
        else:
            raise RuntimeError("no multiplicative generator found")
        self.generator = g
        exp[n1:2 * n1] = exp[:n1]
        self._exp_table, self._log_table, self._sqr_table = exp, log, exp[2 * log]

    # -- scalar operations ---------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        return self._exp_table.item(self._log_table.item(a) + self._log_table.item(b))

    def sub(self, a: int, b: int) -> int:
        return a ^ b  # characteristic 2: a - b = a + b

    def inv(self, a: int) -> int:
        """Multiplicative inverse: g^(-log a) from the log/exp tables."""
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._exp_table.item(self.size - 1 - self._log_table.item(a))

    def div(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if b == 0:
            raise ZeroDivisionError("division by 0")
        log = self._log_table
        return self._exp_table.item(log.item(a) - log.item(b) + self.size - 1)

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(2^k); k is reduced mod 4h.  frobenius(a, h) is a -> a^q."""
        self.check(a)
        for _ in range(k % self.degree):
            a = self._sqr_table.item(a)
        return a

    def frob_q(self, a: int) -> int:
        return self.frobenius(a, self.h)

    def conj(self, a: int) -> int:
        """The GF(q^2)-conjugate a^(q^2)."""
        return self.frobenius(a, 2 * self.h)

    # -- subfields and traces -------------------------------------------------

    def in_subfield(self, a: int, m: int) -> bool:
        """Whether a lies in GF(2^m); requires m | 4h."""
        if self.degree % m:
            raise ValueError(f"GF(2^{m}) is not a subfield of GF(2^{self.degree})")
        return self.frobenius(a, m) == a

    def subfield(self, m: int) -> tuple[int, ...]:
        """All 2^m elements of GF(2^m) in ascending encoding order."""
        if self.degree % m:
            raise ValueError(f"GF(2^{m}) is not a subfield of GF(2^{self.degree})")
        if m not in self._subfields:  # GF(2^m)* = <g^s>, s = (q^4 - 1) / (2^m - 1)
            n1 = self.size - 1
            fixed = np.sort(np.append(self._exp_table[:n1:n1 // ((1 << m) - 1)], 0))
            if fixed.size != 1 << m:
                raise RuntimeError(f"subfield GF(2^{m}) has wrong size {fixed.size}")
            self._subfields[m] = tuple(int(x) for x in fixed)
        return self._subfields[m]

    def abs_trace(self, a: int, m: int) -> int:
        """Absolute trace of GF(2^m) -> GF(2); requires a in GF(2^m)."""
        if not self.in_subfield(a, m):
            raise ValueError(f"element {a} is not in GF(2^{m})")
        t = 0
        x = a
        for _ in range(m):
            t ^= x
            x = self._sqr_table.item(x)
        return t

    # -- bulk operations on numpy int arrays ----------------------------------

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._exp_table[self._log_table[a] + self._log_table[b]]

    def inv_arr(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in bulk operand")
        return self._exp_table[(self.size - 1) - self._log_table[a]]

    def div_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any(b == 0):
            raise ZeroDivisionError("division by 0 in bulk operand")
        return self._exp_table[self._log_table[a] - self._log_table[b] + (self.size - 1)]

    def frob_arr(self, a, k: int = 1):
        a = np.asarray(a, dtype=np.int64)
        for _ in range(k % self.degree):
            a = self._sqr_table[a]
        return a


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over an exact field

def rref_rows(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = field.inv(rows[r][c])
        rows[r] = [field.mul(pv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def nullspace(field, rows, width):
    """A basis of {v : M v = 0} for the matrix M given by `rows`, one per free column."""
    red, pivots = rref_rows(field, rows)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [field.one if c == fc else field.zero for c in range(width)]
        for row, pc in zip(red, pivots):
            v[pc] = field.sub(field.zero, row[fc])
        basis.append(tuple(v))
    return basis


@lru_cache(maxsize=None)
def tower(h: int) -> FieldTower:
    """Shared FieldTower instances (immutable after construction)."""
    return FieldTower(h)
