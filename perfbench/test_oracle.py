"""Self-tests of the benchmark's field oracle.

Run with `python3 -m pytest perfbench/test_oracle.py`.  They are not part
of the repository's test suite: they check the checker, not hxpw.
"""

import random

import pytest

from oracle import Field, clmul, closed_forms, is_irreducible, reduce


def _reducible_by_trial_division(f):
    d = f.bit_length() - 1
    return any(reduce(f, g) == 0 for g in range(2, 1 << (d // 2 + 1)))


def test_clmul_small_products():
    assert clmul(0b11, 0b11) == 0b101          # (X+1)^2 = X^2+1
    assert clmul(0b111, 0b10) == 0b1110
    assert clmul(0, 12345) == 0


@pytest.mark.parametrize("d", [2, 4, 8, 12])
def test_modulus_is_smallest_irreducible(d):
    f = Field(d // 4).modulus if d % 4 == 0 else None
    g = next(x for x in range(1 << d, 1 << (d + 1)) if is_irreducible(x))
    assert not _reducible_by_trial_division(g)
    assert all(_reducible_by_trial_division(x) for x in range(1 << d, g))
    if f is not None:
        assert f == g


@pytest.mark.parametrize("h", [1, 2, 3])
def test_tables_match_clmul(h):
    F = Field(h)
    rng = random.Random(h)
    for _ in range(2000):
        a, b = rng.randrange(F.size), rng.randrange(F.size)
        assert F.mul(a, b) == F.mul_slow(a, b)
        if a:
            assert F.inv(a) == F.inv_slow(a)
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("h", [1, 2, 3])
def test_pair_reps(h):
    F = Field(h)
    reps = F.pair_reps()
    cf = closed_forms(F.q)
    assert len(reps) == cf["n"]
    assert all(F.conj(F.conj(t)) == t != F.conj(t) for t in reps)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_every_row_has_closed_form_valencies(h):
    F = Field(h)
    reps = F.pair_reps()
    k = closed_forms(F.q)["valencies"]
    for i in range(len(reps)):
        row = F.row_classes(reps, i)
        assert (row.count(1), row.count(2), row.count(3)) == k, i


@pytest.mark.parametrize("h", [2, 3])
def test_scalar_classify_matches_rows_and_is_symmetric(h):
    F = Field(h)
    reps = F.pair_reps()
    rng = random.Random(7)
    for _ in range(300):
        i, j = rng.sample(range(len(reps)), 2)
        c = F.classify(reps[i], reps[j])
        assert c == F.classify(reps[j], reps[i]) == F.row_classes(reps, i)[j]


@pytest.mark.parametrize("h", [2, 3])
def test_fine_labels_count(h):
    F = Field(h)
    reps = F.pair_reps()
    labels = {F.fine_label(reps[0], t) for t in reps[1:]}
    assert len(labels) == closed_forms(F.q)["fine_classes"]
