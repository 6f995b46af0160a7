import random
from fractions import Fraction

import pytest

from cftorus.scalars import (
    ApproxComplex,
    Cyclotomic,
    cyclotomic_polynomial,
    root_of_unity,
    scalar_is_zero,
    simplify_exact,
)


def test_root_of_unity_identity_cases():
    assert root_of_unity(0, 3) == 1
    assert root_of_unity(1, 2) == -1


def test_zeta3_satisfies_its_minimal_polynomial():
    x = root_of_unity(1, 3)
    assert (x * x + x + 1).is_zero()


def test_root_of_unity_rejects_zero_order():
    with pytest.raises(ValueError):
        root_of_unity(1, 0)


@pytest.mark.parametrize("q", range(1, 25))
def test_every_root_of_unity_has_exact_order_q_power(q):
    for p in range(q):
        assert root_of_unity(p, q) ** q == 1


def test_scalar_is_zero_examples():
    z3 = root_of_unity(1, 3)
    assert scalar_is_zero(1 + z3 + z3 * z3)
    assert scalar_is_zero(ApproxComplex(1e-12, 0.0), tol=1e-9)
    assert not scalar_is_zero(ApproxComplex(1e-6, 0.0), tol=1e-9)
    z4 = root_of_unity(1, 4)
    assert scalar_is_zero(z4 - z4)


def test_canonical_reduction_is_idempotent():
    rng = random.Random(100)
    for _ in range(50):
        m = rng.randint(1, 12)
        raw = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m)]
        x = Cyclotomic(m, raw)
        again = Cyclotomic(m, x.coeffs)
        assert again.coeffs == x.coeffs


def _random_cyclotomic(rng, m):
    return Cyclotomic(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(m)])


def test_field_axioms_on_random_values():
    # distributivity, commutativity, associativity and inverses; the three
    # values of each triple share an order so products stay in one field
    rng = random.Random(7)
    for _ in range(1000):
        m = rng.randint(1, 12)
        a, b, c = (_random_cyclotomic(rng, m) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == 1


@pytest.mark.parametrize("m", range(1, 31))
def test_inverse_of_exact_weight_shapes(m):
    # every exact weight is a signed root of unity or a difference of two,
    # so zeta^a - 1 (a not 0 mod m) and -zeta^a cover the Galois-norm inverse
    for a in range(m):
        z = root_of_unity(a, m)
        shapes = [-z] if a == 0 else [z - 1, -z]
        for x in shapes:
            assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(m, [0] * m).inverse()


def test_cross_order_promotion_matches_numeric_values():
    a = root_of_unity(1, 3)
    b = root_of_unity(1, 4)
    total = a + b
    assert total.order == 12
    assert abs(total.to_complex() - (a.to_complex() + b.to_complex())) < 1e-12


def test_conjugate_gives_unit_for_roots_of_unity():
    for q in (2, 3, 5, 8):
        x = root_of_unity(1, q)
        assert x * x.conjugate() == 1
    for q, k in ((3, 2), (5, 3), (8, 5), (12, 7)):
        assert root_of_unity(1, q).galois(k) == root_of_unity(k, q)
    with pytest.raises(ValueError):
        root_of_unity(1, 4).galois(2)  # not a unit mod 4


def test_cyclotomic_polynomial_degree_and_values():
    # degrees are Euler phi; a primitive root kills its own polynomial
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for m in range(1, 16):
        phi = cyclotomic_polynomial(m)
        z = root_of_unity(1, m)
        acc = Cyclotomic.zero()
        for k, coeff in enumerate(phi):
            acc = acc + coeff * z ** k
        assert acc.is_zero()


def test_simplify_exact_collapses_rationals():
    assert simplify_exact(root_of_unity(0, 5)) == 1
    assert isinstance(simplify_exact(root_of_unity(0, 5)), int)
    half = Cyclotomic(6, [Fraction(1, 2)] + [0] * 5)
    assert simplify_exact(half) == Fraction(1, 2)
    z = root_of_unity(1, 5)
    assert simplify_exact(z) is z


def test_approx_complex_arithmetic():
    a = ApproxComplex(0.6, 0.8)
    assert abs(abs(complex(a)) - 1.0) < 1e-12
    assert complex(a * a.conjugate()) == pytest.approx(1.0)
    assert complex(1 - a) == pytest.approx(complex(0.4, -0.8))
    assert complex(a / a) == pytest.approx(1.0)


def test_mixed_backend_arithmetic_promotes_to_approx():
    z3 = root_of_unity(1, 3)
    mixed = ApproxComplex(1.0) - z3
    assert isinstance(mixed, ApproxComplex)
    assert complex(mixed) == pytest.approx(1 - z3.to_complex())
    # a builtin complex operand on either side promotes the same way
    c3 = z3.to_complex()
    for got, want in [
        (z3 - (1 + 0j), c3 - 1),
        ((2 + 0j) * z3, 2 * c3),
        (z3 / ApproxComplex(2.0), c3 / 2),
        (Fraction(1) / ApproxComplex(0.6, 0.8), complex(0.6, -0.8)),
    ]:
        assert isinstance(got, complex)
        assert got == pytest.approx(want)
    assert isinstance(z3 - (1 + 0j), ApproxComplex)
    assert (z3 == complex(z3)) is True
    assert (z3 == c3 + 1e-3) is False
    with pytest.raises(ValueError, match="either a complex value or re/im parts"):
        ApproxComplex(1 + 1j, 2)
