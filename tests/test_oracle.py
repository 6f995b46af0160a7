import random
from fractions import Fraction
from math import comb

import pytest

from cftorus.exterior import index_sets, rank
from cftorus.oracle import koszul_rescale_check, simplex_coboundary
from cftorus.scalars import root_of_unity
from reference import dense, matrix_is_zero, reference_matmul


def test_coboundary_row_is_alternating_removal():
    m = dense(simplex_coboundary(3, 1), 3)
    rows = index_sets(3, 2)
    cols = index_sets(3, 1)
    row = m[rows.index((1, 2))]
    assert row[cols.index((2,))] == 1 and row[cols.index((1,))] == -1
    assert row[cols.index((3,))] == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_coboundary_composites_vanish(n):
    for k in range(n - 1):
        assert matrix_is_zero(reference_matmul(
            dense(simplex_coboundary(n, k + 1), comb(n, k + 1)),
            dense(simplex_coboundary(n, k), comb(n, k))))


def test_coboundary_rank_example():
    assert rank(simplex_coboundary(3, 1)) == comb(2, 1) == 2


@pytest.mark.parametrize("n", range(2, 8))
def test_simplex_cohomology_vanishes_between_ends(n):
    profile = [rank(simplex_coboundary(n, k)) for k in range(n)]
    for k in range(1, n):
        below = profile[k - 1]
        above = profile[k] if k < n else 0
        assert below + above == comb(n, k)


def test_koszul_rescale_check_simple_cases():
    assert koszul_rescale_check([Fraction(1), Fraction(1)])
    assert koszul_rescale_check([Fraction(1), Fraction(2), Fraction(3)])


def test_koszul_rescale_check_rejects_zero_weight():
    with pytest.raises(ValueError):
        koszul_rescale_check([Fraction(1), 0, Fraction(3)])


def test_koszul_rescale_check_root_of_unity_weights():
    a = root_of_unity(1, 5)
    v = [a - 1, a * a - 1, a * a * a - 1]
    assert koszul_rescale_check(v)


@pytest.mark.parametrize("n", range(1, 6))
def test_koszul_rescale_check_random_nonzero_weights(n):
    rng = random.Random(300 + n)
    for _ in range(10):
        v = [Fraction(rng.choice([x for x in range(-4, 5) if x]),
                      rng.randint(1, 3)) for _ in range(n)]
        assert koszul_rescale_check(v)
