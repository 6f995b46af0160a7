import random
from fractions import Fraction
from math import comb

import pytest

from cftorus.exterior import index_sets, rank
from cftorus.oracle import (
    CochainAssignment,
    NotACocycleError,
    coboundary_apply,
    koszul_rescale_check,
    simplex_coboundary,
    simplex_rank_profile,
    solve_cocycle,
    weighted_cocycle_preimage,
)
from cftorus.scalars import ApproxComplex, root_of_unity
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
    profile = simplex_rank_profile(n)
    for k in range(1, n):
        below = profile[k - 1]
        above = profile[k] if k < n else 0
        assert below + above == comb(n, k)


def test_solve_cocycle_all_equal_case():
    a = CochainAssignment(3, 1, {(1,): 7, (2,): 7, (3,): 7})
    b = solve_cocycle(a)
    assert b.k == 0 and b.values[()] == 7


def test_solve_cocycle_rejects_non_cocycle():
    a = CochainAssignment(3, 1, {(1,): 1, (2,): 0, (3,): 0})
    with pytest.raises(NotACocycleError) as info:
        solve_cocycle(a)
    assert info.value.violations


@pytest.mark.parametrize("n", range(2, 7))
def test_solve_cocycle_roundtrips_random_cocycles(n):
    # cocycles generated independently as coboundaries of random cochains
    rng = random.Random(200 + n)
    for k in range(1, n + 1):
        for _ in range(100):
            lower = CochainAssignment(n, k - 1, {
                I: Fraction(rng.randint(-5, 5)) for I in index_sets(n, k - 1)})
            target = coboundary_apply(lower)
            solved = solve_cocycle(target)
            assert coboundary_apply(solved).values == target.values


def test_solve_cocycle_approx_backend_roundtrip():
    rng = random.Random(31)
    lower = CochainAssignment(4, 1, {
        I: ApproxComplex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for I in index_sets(4, 1)})
    target = coboundary_apply(lower)
    solved = solve_cocycle(target)
    redone = coboundary_apply(solved)
    for I in index_sets(4, 2):
        assert abs(complex(redone.values[I]) - complex(target.values[I])) < 1e-9


def test_cochain_must_be_complete():
    with pytest.raises(ValueError):
        CochainAssignment(3, 1, {(1,): 1})


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


@pytest.mark.parametrize("n", range(2, 6))
def test_weighted_preimage_hits_the_target(n):
    # targets generated as genuine weighted coboundaries of random classes,
    # so they satisfy the cocycle condition by construction
    from cftorus.exterior import ExteriorClass
    from cftorus.floer import WeightVector, delta2

    rng = random.Random(500 + n)
    for _ in range(10):
        v = [Fraction(rng.choice([x for x in range(-3, 4) if x]),
                      rng.randint(1, 2)) for _ in range(n)]
        w = WeightVector.from_vector(v)
        for k in range(1, n + 1):
            source = ExteriorClass(n, {
                I: Fraction(rng.randint(-4, 4)) for I in index_sets(n, k - 1)})
            image = delta2(source, w)
            target = CochainAssignment(n, k, {
                I: image.coefficient(I) for I in index_sets(n, k)})
            preimage = weighted_cocycle_preimage(v, target)
            back = delta2(ExteriorClass(n, dict(preimage.values)), w)
            assert all(back.coefficient(I) == target.values[I]
                       for I in index_sets(n, k))


def test_weighted_preimage_rejects_zero_weights():
    target = CochainAssignment(2, 1, {(1,): Fraction(0), (2,): Fraction(2)})
    with pytest.raises(ValueError):
        weighted_cocycle_preimage([Fraction(1), 0], target)


def test_weighted_preimage_takes_its_rank_from_the_target():
    # one weight per generator of the target's rank; any other count is
    # refused naming both lengths
    target = CochainAssignment(2, 1, {(1,): Fraction(3), (2,): Fraction(3)})
    with pytest.raises(ValueError, match="got 3 weights for a target of rank 2"):
        weighted_cocycle_preimage([Fraction(1)] * 3, target)
    with pytest.raises(ValueError, match="got 1 weights for a target of rank 2"):
        weighted_cocycle_preimage([Fraction(1)], target)
    preimage = weighted_cocycle_preimage([Fraction(1), Fraction(1)], target)
    assert (preimage.n, preimage.k, preimage.values) == (2, 0, {(): 3})
