import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from hxpw import fields
from hxpw.fields import (FieldTower, clmul, is_irreducible, nullspace, polymod,
                         rref_rows, smallest_irreducible, tower)
from hxpw.schemes import _frac_inverse, _Rationals
from scalar_oracles import power_walk


# ---------------------------------------------------------------------------
# independent oracle: irreducibility by remainder-free trial division over
# GF(2), written against plain ints with no reuse of the package internals

def _oracle_polymul(a, b):
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def _oracle_divides(f, p):
    # long division of p by f, checking zero remainder
    df = f.bit_length() - 1
    while p.bit_length() - 1 >= df and p:
        p ^= f << (p.bit_length() - 1 - df)
    return p == 0


def _oracle_irreducible(p):
    d = p.bit_length() - 1
    return d >= 1 and not any(
        _oracle_divides(f, p) for f in range(2, 1 << d) if f.bit_length() - 1 < d)


def _oracle_divmod(p, m):
    q = 0
    dm = m.bit_length() - 1
    while p and p.bit_length() - 1 >= dm:
        shift = p.bit_length() - 1 - dm
        q |= 1 << shift
        p ^= m << shift
    return q, p


def _oracle_inverse(a, modulus):
    """Inverse of a modulo the irreducible modulus by the extended Euclidean
    algorithm on GF(2)[X]."""
    # Invariant: ua * a == ra and ub * a == rb (mod modulus).
    ra, rb = modulus, a
    ua, ub = 0, 1
    while rb != 1:
        qt, rr = _oracle_divmod(ra, rb)
        ra, rb = rb, rr
        ua, ub = ub, ua ^ _oracle_divmod(_oracle_polymul(qt, ub), modulus)[1]
    return ub


def _pow(ctx, a, e):
    """a**e by square-and-multiply over ctx.mul."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    r = 1
    while e:
        if e & 1:
            r = ctx.mul(r, a)
        a = ctx.mul(a, a)
        e >>= 1
    return r


def _trace_to_base(ctx, a):
    """Trace from GF(q^4) down to GF(q): a + a^q + a^(q^2) + a^(q^3)."""
    t = a
    for _ in range(3):
        a = ctx.frob_q(a)
        t ^= a
    return t


def test_smallest_irreducible_degree4_oracle():
    # oracle: enumerate all degree-4 polynomials and take the first irreducible
    expected = next(p for p in range(1 << 4, 1 << 5) if _oracle_irreducible(p))
    assert expected == 0b10011  # X^4 + X + 1, frozen
    assert smallest_irreducible(4) == expected
    assert tower(1).modulus == expected


def test_is_irreducible_agrees_with_oracle_through_degree8():
    for p in range(2, 1 << 9):
        assert is_irreducible(p) == _oracle_irreducible(p), bin(p)


def test_ctx_orders():
    ctx = tower(1)
    assert (ctx.q, ctx.q2, ctx.q4) == (2, 4, 16)
    assert tower(3).size == 4096


def test_rejects_h_zero():
    with pytest.raises(ValueError):
        FieldTower(0)
    with pytest.raises(ValueError):
        FieldTower(-2)


def test_omega_equation_and_minimality():
    for h in (1, 2, 3):
        ctx = tower(h)
        om = ctx.omega
        assert ctx.frobenius(om, 2 * h) == om ^ 1
        assert not ctx.in_subfield(om, 2 * h)
        for x in range(om):
            assert ctx.frobenius(x, 2 * h) ^ x != 1
    # q = 4: omega^16 = omega + 1 inside GF(256)
    ctx = tower(2)
    assert _pow(ctx, ctx.omega, 16) == ctx.omega ^ 1


def test_generator_of_x_at_h1():
    ctx = tower(1)
    g = 0b0010  # the class of X
    assert _pow(ctx, g, 4) == g ^ 1  # X^4 reduces to X + 1


def _order(g, modulus, bound):
    """Multiplicative order of g mod the modulus, or None past `bound` powers."""
    v = g
    for k in range(1, bound + 1):
        if v == 1:
            return k
        v = polymod(clmul(v, g), modulus)
    return None


def test_generator_is_smallest_primitive_element():
    gens = []
    for h in (1, 2, 3, 4):
        ctx = tower(h)
        n1 = ctx.size - 1
        orders = [_order(g, ctx.modulus, n1) for g in range(2, ctx.generator + 1)]
        assert orders[-1] == n1
        assert n1 not in orders[:-1]
        gens.append(ctx.generator)
    assert gens == [2, 3, 3, 3]


# sha256 of exp[:q^4 - 1] as <i8 and of log as <i4, pinned from the scalar walk
TABLE_DIGESTS = {
    4: ("a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
        "aa194579043b126ca61765a52a6d9f5bd71ef9f12fa58cd70331362397778a3c"),
    5: ("d9bbf13f33c1e260b790f9f421b476acf69614250c250c8fc849abd27eb5c2fb",
        "eec756b96c3636051087afb217280e313f34367d47f5ebf2aca2514f170268bd"),
}


def test_tables_match_power_walk():
    for h in (1, 2, 3):
        ctx = tower(h)
        n1 = ctx.size - 1
        gen, exp = power_walk(ctx.modulus, ctx.size)
        log = [2 * n1] * ctx.size
        for i, x in enumerate(exp):
            log[x] = i
        assert ctx.generator == gen
        assert ctx._exp_table.tolist() == exp + exp + [0] * (2 * n1 + 1)
        assert ctx._log_table.tolist() == log
        assert ctx._sqr_table.tolist() == [polymod(clmul(x, x), ctx.modulus)
                                           for x in range(ctx.size)]
    gens, omegas = [], []
    for h in (1, 2, 3, 4, 5):
        ctx = tower(h) if h < 5 else FieldTower(5)  # h = 5 is not kept in the cache
        assert (ctx._exp_table.dtype, ctx._log_table.dtype, ctx._sqr_table.dtype) == (
            np.int64, np.int32, np.int64)
        assert ctx.mul_arr([2, 3], [3, 0]).dtype == np.int64
        if h in TABLE_DIGESTS:
            exp = ctx._exp_table[:ctx.size - 1].astype("<i8").tobytes()
            log = ctx._log_table.astype("<i4").tobytes()
            assert (hashlib.sha256(exp).hexdigest(),
                    hashlib.sha256(log).hexdigest()) == TABLE_DIGESTS[h]
        gens.append(ctx.generator)
        omegas.append(ctx.omega)
    assert gens == [2, 3, 3, 3, 2]
    assert omegas == [2, 18, 8, 620, 720]


def test_reducible_modulus_finds_no_generator(monkeypatch):
    # X^4 + 1 = (X + 1)^4: units have order dividing 8, zero divisors never return to 1
    monkeypatch.setattr(fields, "smallest_irreducible", lambda degree: 0b10001)
    with pytest.raises(RuntimeError):
        FieldTower(1)


def test_mul_identity_and_inverse_law():
    for h in (1, 2):
        ctx = tower(h)
        for x in range(ctx.size):
            assert ctx.mul(x, 1) == x
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1
    ctx = tower(3)
    rng = random.Random(11)
    for _ in range(500):
        x = rng.randrange(1, ctx.size)
        assert ctx.mul(x, ctx.inv(x)) == 1


def test_inv_matches_extended_euclid():
    for h in (1, 2):
        ctx = tower(h)
        for x in range(1, ctx.size):
            assert ctx.inv(x) == _oracle_inverse(x, ctx.modulus)
    ctx = tower(3)
    rng = random.Random(12)
    for _ in range(10_000):
        x = rng.randrange(1, ctx.size)
        assert ctx.inv(x) == _oracle_inverse(x, ctx.modulus)


def test_field_axioms_exhaustive_h1():
    ctx = tower(1)
    els = range(ctx.size)
    for a in els:
        for b in els:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in (0, 1, 7, 13):
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_inv_zero_and_range_errors():
    ctx = tower(2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ValueError):
        ctx.mul(1, ctx.size)  # element of a wider tower: not ours
    with pytest.raises(ValueError):
        ctx.check(-1)


def test_pow_matches_repeated_mul():
    ctx = tower(2)
    rng = random.Random(5)
    for _ in range(100):
        x = rng.randrange(ctx.size)
        e = rng.randrange(0, 40)
        acc = 1
        for _ in range(e):
            acc = ctx.mul(acc, x)
        assert _pow(ctx, x, e) == acc
    with pytest.raises(ValueError):
        _pow(ctx, 3, -1)


def test_frobenius_basics():
    for h in (1, 2, 3):
        ctx = tower(h)
        rng = random.Random(h)
        for _ in range(200):
            x = rng.randrange(ctx.size)
            assert ctx.frobenius(x, 0) == x
            assert ctx.frobenius(x, 4 * h) == x
            assert ctx.frobenius(x, 1) == ctx.mul(x, x)


def test_full_frobenius_fixes_everything():
    ctx = tower(1)
    for x in range(ctx.size):
        assert _pow(ctx, x, 16) == x
    for h in (2, 3):
        ctx = tower(h)
        rng = random.Random(h)
        for _ in range(10_000):
            x = rng.randrange(ctx.size)
            assert ctx.frobenius(x, 4 * h) == x


def test_subfield_membership_h1_exhaustive():
    # oracle: count fixed points of x -> x^4 in GF(16) by brute force
    ctx = tower(1)
    fixed = [x for x in range(16) if _pow(ctx, x, 4) == x]
    assert len(fixed) == 4  # frozen from the enumeration
    for x in range(16):
        assert ctx.in_subfield(x, 2) == (x in fixed)


def test_subfield_sizes_and_lattice():
    for h in (1, 2, 3):
        ctx = tower(h)
        s1 = set(ctx.subfield(h))
        s2 = set(ctx.subfield(2 * h))
        s4 = set(ctx.subfield(4 * h))
        assert len(s1) == ctx.q and len(s2) == ctx.q2 and len(s4) == ctx.q4
        assert s1 < s2 < s4
        assert list(ctx.subfield(h)) == sorted(ctx.subfield(h))


def test_subfield_is_the_frobenius_fixed_set():
    for h in (1, 2, 3, 4):
        ctx = tower(h)
        for m in range(1, 4 * h + 1):
            if 4 * h % m == 0:
                fixed = tuple(x for x in range(ctx.size) if ctx.frobenius(x, m) == x)
                assert ctx.subfield(m) == fixed


def test_subfield_gf4_inside_gf256():
    # degree-2 subfield over the prime field, independent of h
    ctx = tower(2)
    assert len(ctx.subfield(2)) == 4


def test_subfield_rejects_non_divisor():
    with pytest.raises(ValueError):
        tower(2).subfield(3)
    with pytest.raises(ValueError):
        tower(2).in_subfield(1, 5)


def test_abs_trace_zero_counts():
    # oracle: enumerate GF(4) and evaluate x + x^2 directly
    ctx = tower(1)
    t0 = [x for x in ctx.subfield(2) if (x ^ ctx.mul(x, x)) == 0]
    assert len(t0) == 2
    assert all(ctx.abs_trace(x, 2) == 0 for x in t0)
    for h in (1, 2, 3):
        ctx = tower(h)
        m = 2 * h
        zeros = sum(1 for x in ctx.subfield(m) if ctx.abs_trace(x, m) == 0)
        assert zeros == ctx.q2 // 2


def test_abs_trace_balanced_every_subfield():
    for h in (1, 2, 3):
        ctx = tower(h)
        for m in (h, 2 * h, 4 * h):
            zeros = sum(1 for x in ctx.subfield(m) if ctx.abs_trace(x, m) == 0)
            assert zeros == (1 << m) // 2


def test_abs_trace_domain_checked():
    ctx = tower(2)
    outside = next(x for x in range(ctx.size) if not ctx.in_subfield(x, 2 * ctx.h))
    with pytest.raises(ValueError):
        ctx.abs_trace(outside, 2 * ctx.h)
    assert ctx.abs_trace(0, 4) == 0


def test_trace_zero_set_is_artin_schreier_image():
    for h in (1, 2, 3):
        ctx = tower(h)
        m = 2 * h
        t0 = {x for x in ctx.subfield(m) if ctx.abs_trace(x, m) == 0}
        image = {x ^ ctx.mul(x, x) for x in ctx.subfield(m)}
        assert t0 == image


def test_relative_trace_properties():
    ctx = tower(1)
    for c in ctx.subfield(1):
        assert _trace_to_base(ctx, c) == 0  # four equal summands in char 2
    ctx = tower(3)
    rng = random.Random(31)
    for _ in range(1000):
        x = rng.randrange(ctx.size)
        t = _trace_to_base(ctx, x)
        assert ctx.frob_q(t) == t  # lands in GF(q)
    for _ in range(200):
        x, y = rng.randrange(ctx.size), rng.randrange(ctx.size)
        assert _trace_to_base(ctx, x ^ y) == _trace_to_base(ctx, x) ^ _trace_to_base(ctx, y)


def test_omega_outside_middle_field_exhaustive():
    for h in (1, 2):
        ctx = tower(h)
        assert all(c != ctx.omega for c in ctx.subfield(2 * h))


def test_bulk_ops_match_scalar():
    for h in (1, 2, 3):
        ctx = tower(h)
        rng = np.random.default_rng(h)
        a = rng.integers(0, ctx.size, 400)
        b = rng.integers(0, ctx.size, 400)
        assert all(int(z) == ctx.mul(int(x), int(y))
                   for x, y, z in zip(a, b, ctx.mul_arr(a, b)))
        nz = np.where(b == 0, 1, b)
        assert all(int(z) == ctx.div(int(x), int(y))
                   for x, y, z in zip(a, nz, ctx.div_arr(a, nz)))
        for k in (1, h, 2 * h):
            fk = ctx.frob_arr(a, k)
            assert all(int(z) == ctx.frobenius(int(x), k) for x, z in zip(a, fk))
        with pytest.raises(ZeroDivisionError):
            ctx.inv_arr(np.array([1, 0, 2]))


# ---------------------------------------------------------------------------
# the one Gauss-Jordan elimination, over GF(q^2) and over Q

def _random_matrix(rng, entries, height, width):
    """Random rows, with a repeated row and a row of entries[0] now and then to lose rank."""
    rows = [[rng.choice(entries) for _ in range(width)] for _ in range(height)]
    if height > 1 and rng.random() < 0.3:
        rows[-1] = list(rows[0])
    if rng.random() < 0.2:
        rows[0] = [entries[0]] * width
    return rows


def _check_elimination(field, rows, width, dot):
    red, pivots = rref_rows(field, rows)
    for row, pc in zip(red, pivots):
        assert row[pc] == field.one
        assert all(other[pc] == field.zero for other in red if other is not row)
    basis = nullspace(field, rows, width)
    assert len(basis) == width - len(red)
    assert len(rref_rows(field, basis)[0]) == len(basis)  # independent
    for v in basis:
        assert all(dot(row, v) == field.zero for row in rows)
    return basis


def test_elimination_over_gf_q2():
    ctx = tower(2)
    F = ctx.subfield(2 * ctx.h)
    rng = random.Random(41)

    def dot(row, v):
        out = 0
        for a, b in zip(row, v):
            out ^= ctx.mul(a, b)
        return out

    for _ in range(300):
        width = rng.randint(1, 6)
        _check_elimination(ctx, _random_matrix(rng, F, rng.randint(1, 5), width), width, dot)


def test_elimination_over_the_rationals():
    rng = random.Random(42)
    small = [Fraction(k) for k in (0, -3, -2, -1, 1, 2, 3)]  # zero first, as in GF(q^2)

    def dot(row, v):
        return sum(a * b for a, b in zip(row, v))

    for _ in range(300):
        width = rng.randint(1, 6)
        basis = _check_elimination(
            _Rationals, _random_matrix(rng, small, rng.randint(1, 5), width), width, dot)
        assert all(type(x) is Fraction for v in basis for x in v)
    inverted = 0
    while inverted < 50:
        n = rng.randint(1, 5)
        A = _random_matrix(rng, small, n, n)
        if len(rref_rows(_Rationals, A)[0]) < n:
            with pytest.raises(ValueError, match="singular"):
                _frac_inverse(A)
            continue
        inverted += 1
        inv = _frac_inverse(A)
        assert [[dot(row, col) for col in zip(*A)] for row in inv] == [
            [int(i == j) for j in range(n)] for i in range(n)]
