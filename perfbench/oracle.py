"""Independent GF(2^(4h)) arithmetic for checking hxpw's outputs.

Nothing here imports hxpw.  The modulus is found by Rabin's irreducibility
test (hxpw uses trial division), products are carry-less multiplications
reduced by the modulus, and inverses come from Fermat's little theorem,
a^(2^d - 2).  Log/exp tables over a primitive element that this module
finds itself make the per-pair classification fast enough to sweep every
pair at q = 8; the tests cross-check the tables against the plain
clmul-and-reduce route.

The classification follows the trace invariant directly:

    rho(s, t)  = (s+t)(s'+t') / ((s+t')(s'+t)),   x' = x^(q^2)
    rhat       = 1 / (rho + 1/rho)
    class      = 1 if rhat is a nonzero trace-0 element of GF(q),
                 2 if rhat lies in GF(q) with trace 1,
                 3 otherwise.
"""

from __future__ import annotations


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[X] polynomials (bit i = X^i)."""
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def reduce(a: int, m: int) -> int:
    """a mod m in GF(2)[X]."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, reduce(a, b)
    return a


def _prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % r for r in range(2, p))]


def is_irreducible(f: int) -> bool:
    """Rabin's test: X^(2^d) = X mod f, and gcd(X^(2^(d/r)) - X, f) = 1
    for every prime r dividing d."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    frob = [2]  # frob[k] = X^(2^k) mod f
    for _ in range(d):
        frob.append(reduce(clmul(frob[-1], frob[-1]), f))
    if reduce(frob[d] ^ 2, f) != 0:
        return False
    return all(poly_gcd(f, reduce(frob[d // r] ^ 2, f)) == 1
               for r in _prime_divisors(d))


def smallest_irreducible(d: int) -> int:
    """The lexicographically smallest irreducible of degree d (as an int)."""
    return next(f for f in range(1 << d, 1 << (d + 1)) if is_irreducible(f))


class Field:
    """GF(2^(4h)) over the smallest irreducible, with its tower subfields."""

    def __init__(self, h: int) -> None:
        self.h = h
        self.q = 1 << h
        self.degree = 4 * h
        self.size = 1 << self.degree
        self.modulus = smallest_irreducible(self.degree)
        order = self.size - 1
        primes = _prime_divisors(order) if order > 1 else []
        g = next(g for g in range(2, self.size)
                 if all(self.power_slow(g, order // p) != 1 for p in primes))
        exp = [1] * (2 * order)
        for i in range(1, 2 * order):
            exp[i] = self.mul_slow(exp[i - 1], g)
        log = [0] * self.size
        for i in range(order):
            log[exp[i]] = i
        self.generator = g
        self._exp = exp
        self._log = log
        self._order = order
        self._class_of_rho = None

    # -- reference arithmetic ------------------------------------------------

    def mul_slow(self, a: int, b: int) -> int:
        return reduce(clmul(a, b), self.modulus)

    def power_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul_slow(r, a)
            a = self.mul_slow(a, a)
            e >>= 1
        return r

    def inv_slow(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.power_slow(a, self.size - 2)

    # -- table arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self._order - self._log[a]]

    def frob(self, a: int, k: int) -> int:
        """a^(2^k)."""
        if a == 0:
            return 0
        return self._exp[(self._log[a] << k) % self._order]

    def conj(self, a: int) -> int:
        """The GF(q^2)-conjugate a^(q^2)."""
        return self.frob(a, 2 * self.h)

    # -- the pair index set and its classification ---------------------------

    def pair_reps(self) -> list[int]:
        """Smaller member of each conjugate pair {t, t^(q^2)}, t not in GF(q^2)."""
        return [t for t in range(self.size) if t < self.conj(t)]

    def in_base(self, a: int) -> bool:
        return self.frob(a, self.h) == a

    def base_trace(self, a: int) -> int:
        """Absolute trace GF(q) -> GF(2) of a base-field element."""
        t = 0
        for k in range(self.h):
            t ^= self.frob(a, k)
        return t

    def rho(self, s: int, t: int) -> int:
        s2, t2 = self.conj(s), self.conj(t)
        num = self.mul(s ^ t, s2 ^ t2)
        den = self.mul(s ^ t2, s2 ^ t)
        return self.mul(num, self.inv(den))

    def class_of_rhat(self, rhat: int) -> int:
        if not self.in_base(rhat):
            return 3
        return 2 if self.base_trace(rhat) else (1 if rhat else 0)

    def class_of_rho(self, r: int) -> int:
        return self.class_of_rhat(self.inv(r ^ self.inv(r)))

    def classify(self, s: int, t: int) -> int:
        """Class 1..3 of the unordered pair of pairs with reps s != t."""
        return self.class_of_rho(self.rho(s, t))

    def fine_label(self, s: int, t: int) -> int:
        """The smaller of rho, 1/rho: the refinement's class label."""
        r = self.rho(s, t)
        return min(r, self.inv(r))

    def row_classes(self, reps: list[int], i: int) -> list[int]:
        """Classes of pair i against every pair (0 on the diagonal), by a
        lookup table of class_of_rho over the whole field."""
        if self._class_of_rho is None:
            self._class_of_rho = [0, 0] + [self.class_of_rho(r)
                                           for r in range(2, self.size)]
        log, exp, order = self._log, self._exp, self._order
        cls = self._class_of_rho
        s = reps[i]
        s2 = self.conj(s)
        out = []
        for j, t in enumerate(reps):
            if j == i:
                out.append(0)
                continue
            t2 = self.conj(t)
            e = (log[s ^ t] + log[s2 ^ t2] - log[s ^ t2] - log[s2 ^ t]) % order
            out.append(cls[exp[e]])
        return out


def closed_forms(q: int) -> dict:
    """Sizes and valencies the PAPER.md family must have at even q."""
    n = (q ** 4 - q ** 2) // 2
    k1 = (q * q + 1) * (q // 2 - 1)
    k2 = (q * q + 1) * q // 2
    k3 = n - 1 - (q * q + 1) * (q - 1)
    return {
        "q": q, "n": n, "valencies": (k1, k2, k3),
        "pairs": n * (n - 1) // 2,
        "class_pairs": (n * k1 // 2, n * k2 // 2, n * k3 // 2),
        "srg": (q * q * (q * q - 1) // 2, (q * q + 1) * (q - 1),
                q * q + q - 2, 2 * (q * q - q)),
        "lines": (q + 1) * (q ** 3 + 1),
        "fine_classes": q * q // 2 - 1,
    }
