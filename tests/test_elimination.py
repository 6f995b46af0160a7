"""The sparse exact elimination against the dense routine it replaced."""

import random
from fractions import Fraction
from math import comb
from typing import Optional

import pytest

from cftorus.exterior import _rank_exact, rank, wedge_by_vector
from cftorus.scalars import prime_field, reduce_mod_p, root_of_unity
from reference import dense, rows_of


def _dense_rank_exact(matrix, modulus: Optional[int] = None) -> int:
    if modulus:
        rows = [[x % modulus for x in row] for row in matrix]
    else:
        rows = [list(row) for row in matrix]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:  # exact scalars are falsy exactly at zero
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            if a:
                # division-free update keeps every entry in the ring
                row = [pivot * x - a * y for x, y in zip(rows[i], rows[r])]
                rows[i] = [x % modulus for x in row] if modulus else row
        r += 1
        if r == len(rows):
            break
    return r


def _combination(rng, basis, scalars, zero):
    # a random combination of basis rows, so that ranks fall short and
    # entries cancel to zero
    row = [zero] * len(basis[0])
    for b in basis:
        s = rng.choice(scalars)
        row = [x + s * y for x, y in zip(row, b)]
    return row


def _draw(rng, rows, cols, entries, zero, density):
    """A rows x cols matrix of sparse entries, or of sums of a few sparse
    rows when a coin says so; every third row of a low-rank draw is zero."""
    def sparse_row():
        return [rng.choice(entries) if rng.random() < density else zero
                for _ in range(cols)]

    if rng.random() < 0.5:
        return [sparse_row() for _ in range(rows)]
    basis = [sparse_row() for _ in range(rng.randint(1, max(1, rows - 1)))]
    return [[zero] * cols if i % 3 == 2 else
            _combination(rng, basis, entries + [zero], zero)
            for i in range(rows)]


# wide, tall, square and degenerate shapes
SHAPES = [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (5, 5), (3, 12), (12, 3),
          (8, 8), (6, 10), (10, 6)]

PRIMES = [2, 3, 7, prime_field(10)[0]]


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_rank_equals_dense_rank_mod_p(p):
    rng = random.Random("mod-%d" % p)
    # small integers, negatives and multiples of p, so cancellations are frequent
    entries = [1, 2, 3, -1, -2, p, 2 * p + 1, p - 1, 12345]
    for rows, cols in SHAPES:
        for density in (0.1, 0.3, 0.6, 1.0):
            for _ in range(6):
                m = _draw(rng, rows, cols, entries, 0, density)
                assert _rank_exact(rows_of(m), p) == _dense_rank_exact(m, p), (p, m)
                assert rank(rows_of(m), modulus=p) == _dense_rank_exact(m, p)


def test_sparse_rank_equals_dense_rank_over_fractions():
    rng = random.Random("fractions")
    entries = [Fraction(a, b) for a in (-3, -1, 1, 2, 5) for b in (1, 2, 3)]
    for rows, cols in SHAPES:
        for density in (0.2, 0.5, 1.0):
            for _ in range(4):
                m = _draw(rng, rows, cols, entries, Fraction(0), density)
                assert _rank_exact(rows_of(m)) == _dense_rank_exact(m), m
                assert rank(rows_of(m)) == _dense_rank_exact(m)


@pytest.mark.parametrize("order", [5, 12])
def test_sparse_rank_equals_dense_rank_over_cyclotomics(order):
    rng = random.Random("zeta-%d" % order)
    roots = [root_of_unity(k, order) for k in range(order)]
    entries = roots[:4] + [-roots[1], 1 - roots[1], roots[2] - roots[3]]
    zero = roots[0] - roots[0]
    for rows, cols in [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 4)]:
        for density in (0.3, 0.7):
            for _ in range(3):
                m = _draw(rng, rows, cols, entries, zero, density)
                assert _rank_exact(rows_of(m)) == _dense_rank_exact(m), m
                assert rank(rows_of(m)) == _dense_rank_exact(m)


def test_sparse_rank_of_zero_and_empty_rows():
    for p in (None, 7):
        assert _rank_exact(rows_of([[0, 0, 0], [0, 0, 0]]), p) == 0
        assert _rank_exact(rows_of([[], []]), p) == _dense_rank_exact([[], []], p) == 0
        assert _rank_exact(rows_of([[0, 0], [0, 3], [0, 0]]), p) == 1
        # an entry stored as zero is dropped before it can pivot
        assert _rank_exact([{0: 0, 1: 0}, {1: 3}, {0: Fraction(0)}], p) == 1
    assert _rank_exact(rows_of([[7, 14], [0, 21]]), 7) == 0
    assert _rank_exact(rows_of([[Fraction(0)], [Fraction(1, 3)]])) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_sparse_rank_equals_dense_rank_on_wedge_matrices(n):
    # the matrices the scans eliminate: signed roots of unity minus another
    # one, taken to F_p, with zero weights among them
    rng = random.Random("wedge-%d" % n)
    for _ in range(3):
        v = [rng.choice([0, 0, 1, -1]) * root_of_unity(rng.randint(0, 5), 6)
             - rng.choice([0, 1]) for _ in range(n)]
        p, residues = reduce_mod_p(v)
        for k in range(n):
            m = wedge_by_vector(residues, k)
            assert _rank_exact(m, p) == _dense_rank_exact(dense(m, comb(n, k)), p)
