import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from cftorus import exterior
from cftorus.exterior import (
    ExteriorClass,
    GradedMatrixComplex,
    NotAComplexError,
    _rank_svd,
    _sparse_product,
    cohomology_ranks,
    index_sets,
    koszul_complex,
    rank,
    wedge_by_vector,
)
from cftorus.floer import WeightVector, delta2
from cftorus.scalars import ApproxComplex, reduce_mod_p, root_of_unity, scalar_str
from reference import (
    dense,
    insert_sign,
    matrix_is_zero,
    reference_matmul,
    reference_rank_svd,
    reference_wedge_by_vector,
    rows_of,
)


def dense_wedge(v, k):
    # the wedge matrix from degree k as a list of lists, C(n, k) columns
    return dense(wedge_by_vector(v, k), comb(len(v), k))


def test_insert_sign_square_vanishes():
    assert insert_sign(2, (2,)) == (0, None)


def test_insert_sign_prepend_is_positive():
    assert insert_sign(1, (2, 3)) == (1, (1, 2, 3))


def test_insert_sign_hand_counted_transpositions():
    assert insert_sign(3, (1, 2)) == (1, (1, 2, 3))
    assert insert_sign(2, (1, 3)) == (-1, (1, 2, 3))


def test_insert_sign_rejects_out_of_range():
    with pytest.raises(IndexError):
        insert_sign(0, ())
    with pytest.raises(IndexError):
        insert_sign(5, (1,), n=4)


@pytest.mark.parametrize("n", range(1, 5))
def test_insert_sign_matches_alternating_removal_expansion(n):
    # independent oracle: inserting j into I lands at 1-based slot s in the
    # union J, and the sign must be (-1)**(s-1) -- the alternating sign of
    # the removal expansion over J
    for k in range(n):
        for I in combinations(range(1, n + 1), k):
            for j in range(1, n + 1):
                if j in I:
                    assert insert_sign(j, I)[0] == 0
                    continue
                J = tuple(sorted(I + (j,)))
                s = J.index(j) + 1
                sign, merged = insert_sign(j, I)
                assert merged == J
                assert sign == (-1) ** (s - 1)


def test_wedge_by_zero_vector_is_zero_matrix():
    assert matrix_is_zero(dense_wedge([0, 0], 0))
    # a zero weight stores no entry, on every backend
    assert wedge_by_vector([0, 0], 0) == [{}, {}]
    assert wedge_by_vector([0j, Fraction(0), 0], 1) == [{}, {}, {}]


def test_wedge_matrix_unrolled_definition():
    m = wedge_by_vector([Fraction(3), Fraction(5)], 0)
    assert dense(m, 1) == [[Fraction(3)], [Fraction(5)]]
    assert m == [{0: Fraction(3)}, {0: Fraction(5)}]


@pytest.mark.parametrize("n", range(1, 7))
def test_wedge_composites_vanish_for_random_vectors(n):
    rng = random.Random(50 + n)
    for _ in range(5):
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for k in range(n - 1):
            product = reference_matmul(dense_wedge(v, k + 1), dense_wedge(v, k))
            assert matrix_is_zero(product)


def exact_entry(rng):
    return rng.choice([
        0, 0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        root_of_unity(rng.randint(0, 11), 12) - rng.choice([0, 1])])


def approx_entry(rng):
    return rng.choice([0j, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                       ApproxComplex(rng.uniform(-1, 1), rng.uniform(-1, 1))])


@pytest.mark.parametrize("n", range(1, 9))
def test_wedge_matrix_equals_the_insert_sign_loop(n):
    # the running insertion sign against one insert_sign call per entry,
    # for every degree, on exact and approximate vectors with zero entries
    rng = random.Random("wedge-%d" % n)
    for entry in (exact_entry, approx_entry):
        for _ in range(3):
            v = [entry(rng) for _ in range(n)]
            for k in range(n + 1):
                got = wedge_by_vector(v, k)
                want = reference_wedge_by_vector(n, v, k)
                assert got == rows_of(want), (v, k)
                assert dense(got, comb(n, k)) == want, (v, k)
                assert [list(map(type, row.values())) for row in got] == \
                    [list(map(type, row.values())) for row in rows_of(want)]
    with pytest.raises(ValueError, match="k=%d out of range 0..%d" % (n + 1, n)):
        wedge_by_vector([1] * n, n + 1)


def test_graded_complex_rank_is_its_matrix_count():
    assert GradedMatrixComplex(([{0: 1, 1: 2}], [])).n == 2
    assert koszul_complex([0, 1, 0]).n == 3
    assert GradedMatrixComplex(()).n == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_svd_rank_equals_the_per_entry_route(n):
    # the array filled from the stored entries of each row, against the
    # array built by converting every entry of the dense form, on wedge
    # matrices and on matrices of mixed scalar types, some rank-deficient
    rng = random.Random("svd-%d" % n)
    matrices = []
    for _ in range(4):
        v = [approx_entry(rng) for _ in range(n)]
        matrices += [dense_wedge(v, k) for k in range(n)]
    for _ in range(10):
        rows, cols = rng.randint(1, n + 2), rng.randint(1, n + 2)
        kinds = [exact_entry, approx_entry, lambda r: r.choice([0, 0.0, -1.5])]
        matrices.append([[rng.choice(kinds)(rng) for _ in range(cols)]
                         for _ in range(rows)])
        left = [[complex(rng.gauss(0, 1), rng.gauss(0, 1))] for _ in range(rows)]
        top = [rng.choice([0, complex(rng.gauss(0, 1), rng.gauss(0, 1))])
               for _ in range(cols)]
        matrices.append([[a * b for b in top] for [a] in left])  # rank <= 1
    for m in matrices:
        if not m or not m[0]:
            continue
        for tol in (1e-9, 1e-3, 0.5):
            assert _rank_svd(rows_of(m), tol) == reference_rank_svd(m, tol), (m, tol)


@pytest.mark.parametrize("bad", [None, "1"])
def test_svd_rank_refuses_entries_that_are_not_scalars(bad):
    for m in ([{0: bad}], [{0: 0.5j, 1: bad}], [{0: bad}, {1: 1.5}]):
        with pytest.raises(TypeError, match="not a scalar"):
            rank(m)
        with pytest.raises(TypeError, match="not a scalar"):
            _rank_svd(m, 1e-9)


def sparse_matmul(a, b):
    # the product behind `validate`, over the nonzero entries of both
    # factors, written out densely; an entry no product reaches is int 0
    return dense(_sparse_product(rows_of(a), rows_of(b)), len(b[0]))


def zeta_entry(order):
    # a nonzero element of Q(zeta_order): a root of unity, or 1 minus another one
    def draw(rng):
        if rng.random() < 0.5:
            return 1 - root_of_unity(rng.randint(1, order - 1), order)
        return root_of_unity(rng.randint(0, order - 1), order)
    return draw, root_of_unity(0, order) - 1


# a draw of a nonzero entry of each kind, and the kind's own zero; zeros
# are drawn as int 0 or that zero
MATMUL_KINDS = {
    "int": (lambda rng: rng.choice([-3, -2, -1, 1, 2, 5]), 0),
    "fraction": (lambda rng: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                 Fraction(0)),
    "zeta5": zeta_entry(5),
    "zeta12": zeta_entry(12),
    "complex": (lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 0j),
}


@pytest.mark.parametrize("kind", sorted(MATMUL_KINDS))
def test_matmul_equals_the_triple_sum(kind):
    nonzero, zero = MATMUL_KINDS[kind]
    rng = random.Random("matmul-" + kind)

    def draw(rows, cols, density):
        return [[nonzero(rng) if rng.random() < density
                 else rng.choice([0, zero]) for _ in range(cols)]
                for _ in range(rows)]

    shapes = [(1, 1, 1), (1, 6, 1), (6, 1, 6), (1, 5, 4), (4, 5, 1), (3, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(24)]
    for rows, inner, cols in shapes:
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            a, b = draw(rows, inner, density), draw(inner, cols, density)
            assert sparse_matmul(a, b) == reference_matmul(a, b)


def test_matmul_refuses_shape_mismatch_and_takes_empty_operands():
    # validate refuses a row of D_(k+1) naming a column at or past the
    # rows of D_k before it multiplies, skips a composite with an empty
    # factor, and takes an inner dimension of 0
    with pytest.raises(ValueError, match="shape mismatch"):
        GradedMatrixComplex(([{0: 1, 1: 2}], [{0: 1, 1: 2}])).validate()
    with pytest.raises(ValueError, match="shape mismatch"):
        GradedMatrixComplex(([{0: 1}, {0: 2}], [{0: 1, 1: 2}, {2: 3}])).validate()
    GradedMatrixComplex(([{0: 1}, {0: 2}], [{0: 2, 1: -1}])).validate()
    GradedMatrixComplex(([{0: 1, 1: 2}], [])).validate()
    GradedMatrixComplex(([], [{0: 1, 1: 2}])).validate()
    GradedMatrixComplex(([{}, {}], [{0: 1, 1: 2}])).validate()
    assert sparse_matmul([[1, 2]], [[], []]) == [[]]


def test_rank_of_zero_and_identity():
    assert rank(rows_of([[0, 0], [0, 0]])) == 0
    assert rank(rows_of([[1 if i == j else 0 for j in range(4)] for i in range(4)])) == 4
    assert rank([]) == 0
    assert _rank_svd([{}, {}], 1e-9) == _rank_svd([], 1e-9) == 0


def test_rank_takes_the_exact_route_when_every_row_is_empty(monkeypatch):
    # a zero weight stores no entry on either backend, and rows holding no
    # inexact entry are eliminated exactly: no SVD, so no numpy
    calls = []
    exact = exterior._rank_exact
    monkeypatch.setattr(exterior, "_rank_exact",
                        lambda m, p=None: calls.append(p) or exact(m, p))
    monkeypatch.setattr(exterior, "_rank_svd",
                        lambda m, tol: pytest.fail("SVD on empty rows"))
    assert rank([{}, {}]) == 0 and rank([{}], modulus=7) == 0
    assert cohomology_ranks(koszul_complex([ApproxComplex(0.0)] * 3)) == [1, 3, 3, 1]
    assert calls == [None, 7, None, None, None]


def test_rank_example_cross_checked_against_svd():
    # exact elimination vs an independent numeric route
    m = wedge_by_vector([1, 1, 1], 1)
    assert rank(m) == comb(2, 1) == 2
    arr = np.array([[float(x) for x in row] for row in dense(m, 3)])
    assert np.linalg.matrix_rank(arr) == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_nonzero_vector_gives_exact_complex(n):
    # wedging by v != 0 is exact: every rank C(n-1, k), cohomology zero
    rng = random.Random(80 + n)
    vectors = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
               for _ in range(4)]
    vectors.append([0] * (n - 1) + [2])  # some zero entries, still nonzero
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        cx = koszul_complex(v)
        assert cohomology_ranks(cx) == [0] * (n + 1)
        for k in range(n):
            assert rank(cx.matrix(k)) == comb(n - 1, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_zero_vector_gives_binomial_ranks(n):
    cx = koszul_complex([0] * n)
    assert cohomology_ranks(cx) == [comb(n, k) for k in range(n + 1)]


def test_n1_zero_vector_ranks():
    assert cohomology_ranks(koszul_complex([0])) == [1, 1]


def test_not_a_complex_is_rejected():
    bad = GradedMatrixComplex((rows_of([[1], [0]]), rows_of([[1, 0]])))
    with pytest.raises(NotAComplexError):
        cohomology_ranks(bad)


def flip_one_entry(cx, k, rng):
    # the family with one nonzero entry of D_k negated
    matrices = [[dict(row) for row in m] for m in cx.matrices]
    spots = [(r, c) for r, row in enumerate(matrices[k])
             for c, x in row.items() if x]
    r, c = rng.choice(spots)
    entry = -matrices[k][r][c]
    matrices[k][r][c] = entry % cx.modulus if cx.modulus else entry
    return GradedMatrixComplex(tuple(matrices), cx.modulus)


@pytest.mark.parametrize("n, field", [(n, "F_p") for n in range(2, 9)]
                         + [(n, "Q(zeta_5)") for n in range(2, 6)])
def test_square_zero_check_refuses_one_flipped_sign(n, field):
    rng = random.Random("%s-%d" % (field, n))
    # v_j = +-zeta_5^a - 1 with a in 1..4 is never 0: -1 is no fifth root of 1
    v = [rng.choice([1, -1]) * root_of_unity(rng.randint(1, 4), 5) - 1
         for _ in range(n)]
    p = None
    if field == "F_p":
        p, v = reduce_mod_p(v)
        assert all(v)
    cx = koszul_complex(v, p)
    assert cohomology_ranks(cx) == [0] * (n + 1)
    for k in range(n):
        with pytest.raises(NotAComplexError):
            cohomology_ranks(flip_one_entry(cx, k, rng))


def test_modulus_reads_entries_in_the_prime_field():
    p = 7
    # rank 2 over Q, 1 over F_7
    assert rank(rows_of([[1, 1], [1, 8]])) == 2
    assert rank(rows_of([[1, 1], [1, 8]]), modulus=p) == 1
    assert rank(rows_of([[p, 2 * p]]), modulus=p) == 0
    # D_1 o D_0 = (7) is zero only mod 7
    family = (rows_of([[1], [0]]), rows_of([[p, 0]]))
    with pytest.raises(NotAComplexError):
        cohomology_ranks(GradedMatrixComplex(family))
    assert cohomology_ranks(GradedMatrixComplex(family, p)) == [0, 1, 1]
    assert cohomology_ranks(koszul_complex([0, p], p)) == [1, 2, 1]


def test_exact_and_approx_backends_agree_on_root_of_unity_ranks():
    rng = random.Random(17)
    for n in range(1, 8):
        for _ in range(3):
            angles = [(rng.randint(0, 11), 12) for _ in range(n)]
            exact_v = [root_of_unity(p, q) - 1 for p, q in angles]
            approx_v = [ApproxComplex(x.to_complex()) for x in exact_v]
            for k in range(n):
                exact_rank = rank(wedge_by_vector(exact_v, k))
                approx_rank = rank(wedge_by_vector(approx_v, k), tol=1e-9)
                assert exact_rank == approx_rank


def test_matrix_serializes_to_scalar_strings():
    m = wedge_by_vector([Fraction(1, 2), root_of_unity(1, 3)], 0)
    assert [[scalar_str(x) for x in row] for row in dense(m, 1)] == [["1/2"], ["1*z3"]]


def test_basis_order_is_lexicographic():
    assert index_sets(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


# -- ExteriorClass ------------------------------------------------------------

def test_exterior_class_normalizes_away_zeros():
    x = ExteriorClass(3, {(1,): 0, (2,): 5})
    assert (1,) not in x.terms
    assert x.coefficient((2,)) == 5


def test_exterior_class_wedge_generator_signs():
    # L_j wedged onto x is (-1)^n delta2(x, e_j), e_j the j-th unit weight vector
    x = ExteriorClass(3, {(1, 3): 1})

    def e(j):
        return WeightVector.from_vector([int(i == j) for i in range(1, 4)])

    assert (-1) ** 3 * delta2(x, e(2)).coefficient((1, 2, 3)) == -1
    assert delta2(x, e(1)).is_zero()


def test_exterior_class_algebra():
    a = ExteriorClass.unit(2)
    b = ExteriorClass.generator(2, 1)
    total = a + b - a
    assert total == b
    assert (2 * b).coefficient((1,)) == 2
    assert ExteriorClass.fundamental(2).coefficient((1, 2)) == 1


def test_exterior_class_rejects_bad_index_sets():
    with pytest.raises(ValueError):
        ExteriorClass(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        ExteriorClass(2, {(3,): 1})
