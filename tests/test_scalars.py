import cmath
import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from cftorus.scalars import (
    PRIME_BOUND,
    ApproxComplex,
    Cyclotomic,
    check_prime_field,
    cyclotomic_polynomial,
    is_prime,
    prime_field,
    reduce_mod_p,
    root_of_unity,
    scalar_is_zero,
    simplify_exact,
)


def _power(x, e):
    """x**e for e >= 0, as repeated products with the ring's *."""
    out = Cyclotomic(1, [1])
    for _ in range(e):
        out = out * x
    return out


def _inverse(x):
    """x**-1 for nonzero x: its other Galois conjugates over the rational norm.

    The conjugate under zeta -> zeta^k (k a unit mod m) permutes the
    coefficients; the product of all conjugates is the norm, a rational.
    """
    m = x.order
    others = Cyclotomic(1, [1])
    for k in range(2, m):
        if gcd(k, m) == 1:
            image = [0] * m
            for j, c in enumerate(x.coeffs):
                image[j * k % m] = c
            others = others * Cyclotomic(m, image)
    norm = x * others
    assert norm.is_rational(), x
    return Cyclotomic(m, [c / norm.coeffs[0] for c in others.coeffs])


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
        assert _power(root_of_unity(p, q), q) == 1


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
            assert a * _inverse(a) == 1


@pytest.mark.parametrize("m", range(1, 31))
def test_inverse_of_exact_weight_shapes(m):
    # every exact weight is a signed root of unity or a difference of two,
    # so zeta^a - 1 (a not 0 mod m) and -zeta^a cover the Galois-norm inverse
    for a in range(m):
        z = root_of_unity(a, m)
        shapes = [-z] if a == 0 else [z - 1, -z]
        for x in shapes:
            assert x * _inverse(x) == 1


def test_cross_order_promotion_matches_numeric_values():
    a = root_of_unity(1, 3)
    b = root_of_unity(1, 4)
    total = a + b
    assert total.order == 12
    assert abs(total.to_complex() - (a.to_complex() + b.to_complex())) < 1e-12


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
        acc = Cyclotomic(1, [0])
        for k, coeff in enumerate(phi):
            acc = acc + coeff * _power(z, k)
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


def test_mixed_backend_arithmetic_raises_type_error():
    # the backends meet only where an input is parsed (cli.parse_holonomy),
    # never in an operation: a float or complex operand on either side of a
    # Cyclotomic is refused, and compares unequal
    z3 = root_of_unity(1, 3)
    for op in (lambda: z3 + 0.5, lambda: 0.5 * z3, lambda: ApproxComplex(1.0) - z3,
               lambda: z3 - (1 + 0j), lambda: (2 + 0j) * z3):
        with pytest.raises(TypeError):
            op()
    assert (z3 == z3.to_complex()) is False
    assert (root_of_unity(0, 1) == 1.0) is False
    assert Fraction(1) / ApproxComplex(0.6, 0.8) == pytest.approx(complex(0.6, -0.8))
    with pytest.raises(ValueError, match="either a complex value or re/im parts"):
        ApproxComplex(1 + 1j, 2)


# -- prime-field images --------------------------------------------------------

def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytearray(len(flags[q * q::q]))
    return [q for q in range(limit + 1) if flags[q]]


_PRIMES_TO_2_16 = _sieve(1 << 16)  # enough trial divisors for any p < 2^31


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % q for q in _PRIMES_TO_2_16 if q * q <= n)


def test_is_prime_matches_trial_division():
    small = set(_sieve(5000))
    assert [n for n in range(5001) if is_prime(n)] == sorted(small)
    # strong pseudoprimes to some of the bases, Carmichael numbers, and the
    # largest primes below the bound
    for n in (2047, 1373653, 25326001, 3215031751 - 2, 561, 41041, 825265,
              PRIME_BOUND - 1, PRIME_BOUND - 3, PRIME_BOUND - 19):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


@pytest.mark.parametrize("m", range(1, 201))
def test_prime_field_has_prime_one_mod_m_and_root_of_exact_order(m):
    p, g = prime_field(m)
    assert p < PRIME_BOUND and _is_prime_by_trial_division(p)
    assert (p - 1) % m == 0
    # order by brute force: g^d == 1 for d = m and no smaller positive d
    powers, x = [], 1
    for _ in range(m):
        x = x * g % p
        powers.append(x)
    assert powers[-1] == 1 and 1 not in powers[:-1]


def test_prime_field_check_refuses_wrong_prime_or_root():
    p, g = prime_field(10)
    check_prime_field(p, g, 10)
    with pytest.raises(ValueError, match="1 mod 10"):
        check_prime_field(2147483647, g, 10)  # prime, but 6 mod 10
    with pytest.raises(ValueError, match="1 mod 10"):
        check_prime_field(p - 10, g, 10)  # 1 mod 10, not prime
    with pytest.raises(ValueError, match="order 10"):
        check_prime_field(p, g * g % p, 10)  # order 5
    with pytest.raises(ValueError, match="order 10"):
        check_prime_field(p, p - 1, 10)  # order 2


def test_reduce_mod_p_is_a_ring_map_on_roots_of_unity():
    rng = random.Random(23)
    for _ in range(40):
        q1, q2 = rng.randint(1, 12), rng.randint(1, 12)
        x = root_of_unity(rng.randrange(q1), q1) - Fraction(rng.randint(1, 5), 3)
        y = root_of_unity(rng.randrange(q2), q2)
        p, (rx, ry, rxy, rsum) = reduce_mod_p([x, y, x * y, x + y])
        assert rxy == rx * ry % p and rsum == (rx + ry) % p


def test_reduce_mod_p_refuses_hidden_zeros_and_p_denominators():
    p, _ = prime_field(2)
    assert reduce_mod_p([0, 3, Fraction(-1, 2)]) == (p, [0, 3, (p - 1) // 2])
    with pytest.raises(ValueError, match="vanishes mod p"):
        reduce_mod_p([p])
    with pytest.raises(ValueError, match="divisible by p"):
        reduce_mod_p([Fraction(1, p)])



# orders of the canonical-form pin: every order up to 80, plus larger ones
# with many small prime factors, twice a prime (694) and up to the CLI's
# holonomy cap (720)
PIN_ORDERS = tuple(range(1, 81)) + (210, 360, 462, 665, 694, 713, 720)


def _raw_vector(rng, length):
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.5:
            out.append(0)
        elif r < 0.8:
            out.append(rng.randint(-3, 3))
        else:
            out.append(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


CANONICAL_DIGEST = (
    "7efc97307057fd1d0302a60e69e81ac4e53f28139c089cb0aa4b6e7993363494")


@pytest.fixture(scope="module")
def canonical_form_cases():
    """(element, its value computed with cmath, error scale) triples.

    Seeded raw vectors of lengths up to 3m, products and differences of
    roots of unity (the second of an order dividing m, so it is promoted
    into Q(zeta_m)) and, for m <= 40, inverses.  The error scale is
    1 + the sum of |coefficients| the value was computed from.
    """
    rng = random.Random(2003)
    cases = []
    for m in PIN_ORDERS:
        angle = 2j * cmath.pi / m
        for length in (3 * m, rng.randint(1, 3 * m)):
            raw = _raw_vector(rng, length)
            value = sum(float(c) * cmath.exp(angle * k)
                        for k, c in enumerate(raw) if c)
            cases.append((Cyclotomic(m, raw), value,
                          1 + sum(abs(float(c)) for c in raw)))
        d = rng.choice([q for q in range(1, m + 1) if m % q == 0])
        a, b = rng.randrange(m), rng.randrange(d)
        x, y = root_of_unity(a, m), root_of_unity(b, d)
        ex, ey = cmath.exp(angle * a), cmath.exp(2j * cmath.pi * b / d)
        cases.append((x * y, ex * ey, 2))
        cases.append((x - y, ex - ey, 3))
        if m <= 40:
            s = Fraction(rng.choice((2, 4, 5)), 3)  # |x| != s|y|, so nonzero
            inv = _inverse(x - s * y)
            cases.append((inv, 1 / (ex - float(s) * ey),
                          1 + sum(abs(float(c)) for c in inv.coeffs)))
    return cases


def test_canonical_forms_are_pinned(canonical_form_cases):
    # the remainder mod Phi_m is unique, so any correct reduction gives
    # these exact vectors; the digest was taken from the table-based one
    digest = hashlib.sha256()
    for x, _, _ in canonical_form_cases:
        digest.update(("%d:%s\n" % (x.order, ",".join(map(str, x.coeffs))))
                      .encode())
    assert digest.hexdigest() == CANONICAL_DIGEST


def test_canonical_forms_match_numeric_values(canonical_form_cases):
    for x, value, scale in canonical_form_cases:
        phi_deg = len(cyclotomic_polynomial(x.order)) - 1
        assert len(x.coeffs) == x.order
        assert not any(x.coeffs[phi_deg:])
        assert abs(x.to_complex() - value) <= 1e-9 * scale, (x.order, value)
