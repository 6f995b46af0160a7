"""Scalar arithmetic backends.

Two backends feed every linear-algebra routine in this package:

* exact: :class:`Cyclotomic`, the ring Q(zeta_m) with rational
  coordinates under +, - and * (nothing divides one).  Zero testing is
  exact, which is what decides the knife-edge vanishing dichotomies
  downstream -- a holonomy weight is either exactly zero or it is not.
* approximate: :class:`ApproxComplex`, a ``complex`` subclass whose
  arithmetic returns builtin ``complex``; the zero test compares against a
  tolerance (default ``DEFAULT_TOL``).

The exact dense rank route does not compute in Q(zeta_m) itself:
:func:`reduce_mod_p` maps its exact entries into a prime field F_p with
p = 1 (mod m), refusing any nonzero entry that would vanish there.

Rational angles ("p/q" of a full turn) are routed to the exact backend,
decimal inputs to the approximate one; ``cli.parse_holonomy`` promotes a
mixed input to approximate, and a ``Cyclotomic`` with a ``float`` or
``complex`` operand raises ``TypeError``.

All values are immutable after construction and pickle, so they can be
sent to worker processes; every operation here is a pure function, safe
for concurrent use.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable

# defined in the package root, so the disc path need not run this module
from . import DEFAULT_TOL


def _divide_monic(num: list, divisor) -> list:
    """Divide ``num`` in place by a monic polynomial; return the quotient.

    Both are ascending coefficient lists.  The remainder is left in ``num``,
    below the divisor's degree, with zeros above it.
    """
    deg = len(divisor) - 1
    quot = [0] * (len(num) - deg)
    for shift in reversed(range(len(quot))):
        coeff = quot[shift] = num[shift + deg]
        if coeff:
            for i, c in enumerate(divisor):
                if c:
                    num[shift + i] -= coeff * c
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be a positive integer, got %r" % (m,))
    num = [-1] + [0] * (m - 1) + [1]  # z^m - 1
    for d in range(1, m):
        if m % d == 0:
            # dividing by the monic integer Phi_d stays in Z
            quot = _divide_monic(num, cyclotomic_polynomial(d))
            if any(num):
                raise AssertionError("cyclotomic division left a remainder")
            num = quot
    return tuple(num)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Cyclotomic:
    """Exact element of Q(zeta_m), zeta_m = exp(2*pi*i/m).

    Stored as a rational coefficient vector ``coeffs`` of length ``order``
    against the powers zeta^0..zeta^(m-1); construction reduces modulo the
    m-th cyclotomic polynomial, so canonical vectors are zero at indices
    >= euler_phi(m) and reduction is idempotent.  Elements of different
    orders combine by promotion into Q(zeta_lcm).
    """

    order: int
    coeffs: tuple

    def __init__(self, order: int, coeffs: Iterable):
        if order < 1:
            raise ValueError("order must be a positive integer, got %r" % (order,))
        # fold by zeta^m = 1 and, for even m, by zeta^(m/2) = -1, so the
        # division by Phi_m (degree at most m/2 for even m) starts short
        fold = order // 2 if order % 2 == 0 else order
        folded = [Fraction(0)] * fold
        for k, c in enumerate(coeffs):
            if c:
                k %= order
                if k < fold:
                    folded[k] += Fraction(c)
                else:
                    folded[k - fold] -= Fraction(c)
        _divide_monic(folded, cyclotomic_polynomial(order))
        folded.extend([Fraction(0)] * (order - fold))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(folded))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        return cls(1, [Fraction(value)])

    # -- promotion ---------------------------------------------------------

    def with_order(self, new_order: int) -> "Cyclotomic":
        """Re-express in Q(zeta_new_order); new_order must be a multiple."""
        if new_order % self.order:
            raise ValueError(
                "cannot lower order %d to %d" % (self.order, new_order))
        if new_order == self.order:
            return self
        step = new_order // self.order
        lifted = [Fraction(0)] * new_order
        for k, c in enumerate(self.coeffs):
            if c:
                lifted[k * step] = c
        return Cyclotomic(new_order, lifted)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return None, None  # a float or complex: the operators return NotImplemented
        m = lcm(self.order, other.order)
        return self.with_order(m), other.with_order(m)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        m = a.order
        out = [Fraction(0)] * m
        b_terms = [(j, bj) for j, bj in enumerate(b.coeffs) if bj]
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in b_terms:
                    out[(i + j) % m] += ai * bj
        return Cyclotomic(m, out)

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    __hash__ = None

    # -- conversions -----------------------------------------------------------

    def to_complex(self) -> complex:
        z = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                z += float(c) * cmath.exp(2j * cmath.pi * k / self.order)
        return z

    def __complex__(self):
        return self.to_complex()

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*z%d" % (c, self.order))
            else:
                parts.append("%s*z%d^%d" % (c, self.order, k))
        return " + ".join(parts)

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coeffs))


def root_of_unity(p: int, q: int) -> Cyclotomic:
    """zeta_q^p as an exact cyclotomic value; q must be >= 1."""
    if q < 1:
        raise ValueError("invalid order: q must be a positive integer, got %r" % (q,))
    coeffs = [0] * q
    coeffs[p % q] = 1
    return Cyclotomic(q, coeffs)


# ---------------------------------------------------------------------------
# approximate backend
# ---------------------------------------------------------------------------

class ApproxComplex(complex):
    """Floating-point complex scalar for the tolerance-based backend.

    A builtin ``complex``: its arithmetic is the builtin's, so results are
    plain ``complex``.  A complex value given with an imaginary part is
    refused.
    """

    __slots__ = ()

    def __new__(cls, real=0.0, imag=0.0):
        # refused before complex() sees it: Python 3.14 warns on complex(z, im)
        if isinstance(real, complex):
            if imag:
                raise ValueError("pass either a complex value or re/im parts")
            return super().__new__(cls, real)
        return super().__new__(cls, real, imag)

    def __init__(self, real=0.0, imag=0.0):
        pass  # object.__init__ would refuse the arguments once __init__ is wrapped


# ---------------------------------------------------------------------------
# backend-dispatching helpers
# ---------------------------------------------------------------------------

def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, Cyclotomic))


def scalar_is_zero(x, tol: float = DEFAULT_TOL) -> bool:
    """Exact zero test for the exact backend, |x| < tol for the approximate."""
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, (float, complex)):
        return abs(x) < tol
    raise TypeError("not a scalar: %r" % (x,))


def scalar_to_complex(x) -> complex:
    if isinstance(x, Cyclotomic):
        return x.to_complex()
    if isinstance(x, Fraction):
        return complex(float(x))
    if isinstance(x, (int, float, complex)):
        return complex(x)
    raise TypeError("not a scalar: %r" % (x,))


def scalar_str(x) -> str:
    if isinstance(x, (Cyclotomic, int, Fraction)):
        return str(x)
    if isinstance(x, complex):
        return "%r,%r" % (x.real, x.imag)
    if isinstance(x, float):
        return repr(x)
    raise TypeError("not a scalar: %r" % (x,))


def simplify_exact(x):
    """Collapse rational cyclotomic values to Fraction (int when integral)."""
    if isinstance(x, Cyclotomic) and x.is_rational():
        f = x.coeffs[0]
        return int(f) if f.denominator == 1 else f
    return x


# ---------------------------------------------------------------------------
# prime-field images of exact values
# ---------------------------------------------------------------------------

PRIME_BOUND = 1 << 31


def is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list:
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


def check_prime_field(p: int, g: int, m: int) -> None:
    """Refuse (p, g) unless p is a prime = 1 (mod m) below 2^31 and g has order m.

    Then zeta_m -> g is a ring map Z[zeta_m] -> F_p.
    """
    if not (p < PRIME_BOUND and is_prime(p) and (p - 1) % m == 0):
        raise ValueError("%d is not a prime below 2^31 that is 1 mod %d" % (p, m))
    if pow(g, m, p) != 1 or any(pow(g, m // q, p) == 1 for q in _prime_factors(m)):
        raise ValueError("%d does not have order %d mod %d" % (g, m, p))


@lru_cache(maxsize=None)
def prime_field(m: int) -> tuple:
    """(p, g): the largest prime p = 1 (mod m) below 2^31, g of exact order m mod p."""
    p = (PRIME_BOUND - 2) // m * m + 1
    while not is_prime(p):
        p -= m
        if p < 2:
            raise ValueError("no prime below 2^31 is 1 mod %d" % m)
    factors = _prime_factors(m)
    for h in range(2, p):
        g = pow(h, (p - 1) // m, p)
        if all(pow(g, m // q, p) != 1 for q in factors):
            break
    check_prime_field(p, g, m)
    return p, g


def _rational_mod(c, p: int) -> int:
    if c.denominator % p == 0:
        raise ValueError("denominator of %s is divisible by p=%d" % (c, p))
    return c.numerator * pow(c.denominator, -1, p) % p


def reduce_mod_p(values) -> tuple:
    """(p, residues) of exact values under zeta_q -> g^(M/q), M = lcm(2, orders).

    (p, g) is `prime_field(M)`.  A value whose image is 0 but which is not
    0 itself is refused, as is a denominator divisible by p; so a residue
    vanishes exactly when its value does.
    """
    m = lcm(2, *(x.order for x in values if isinstance(x, Cyclotomic)))
    p, g = prime_field(m)
    residues = []
    for x in values:
        if isinstance(x, Cyclotomic):
            root = pow(g, m // x.order, p)
            r = sum(_rational_mod(c, p) * pow(root, k, p)
                    for k, c in enumerate(x.coeffs) if c) % p
        else:
            r = _rational_mod(x, p)
        if x and not r:
            raise ValueError("%s is not zero but vanishes mod p=%d" % (scalar_str(x), p))
        residues.append(r)
    return p, residues
