"""Scalar arithmetic backends.

Two backends feed every linear-algebra routine in this package:

* exact: :class:`Cyclotomic`, elements of the cyclotomic field Q(zeta_m)
  with rational coordinates.  Zero testing is exact, which is what decides
  the knife-edge vanishing dichotomies downstream -- a holonomy weight is
  either exactly zero or it is not.
* approximate: :class:`ApproxComplex`, a thin complex-float wrapper whose
  zero test compares against a tolerance (default ``DEFAULT_TOL``).

Rational angles ("p/q" of a full turn) are routed to the exact backend,
decimal inputs to the approximate one; mixing the two promotes everything
to approximate.

All values are immutable after construction and pickle, so they can be
sent to worker processes; every operation here is a pure function, safe
for concurrent use.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable

DEFAULT_TOL = 1e-9


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be a positive integer, got %r" % (m,))
    num = [-1] + [0] * (m - 1) + [1]  # z^m - 1
    for d in range(1, m):
        if m % d == 0:
            # long division by the monic integer Phi_d stays in Z
            phi = cyclotomic_polynomial(d)
            deg = len(phi) - 1
            quot = [0] * (len(num) - deg)
            for shift in reversed(range(len(quot))):
                coeff = quot[shift] = num[shift + deg]
                for i, c in enumerate(phi):
                    num[shift + i] -= coeff * c
            if any(num):
                raise AssertionError("cyclotomic division left a remainder")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple:
    """z^k mod Phi_m for deg(Phi_m) <= k < 2m, as degree-<deg tuples."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = {}
    # z^deg = -(phi minus leading term), then multiply up by z repeatedly
    cur = [Fraction(-c) for c in phi[:-1]]
    for k in range(deg, 2 * m):
        rows[k] = tuple(cur)
        cur = [Fraction(0)] + cur
        top = cur.pop()
        if top:
            for i, c in enumerate(phi[:-1]):
                cur[i] -= top * c
    return tuple(rows[k] for k in range(deg, 2 * m))


def _reduce_mod_phi(coeffs, m):
    """Reduce an ascending list (degree < 2m) to canonical degree < phi(m)."""
    phi_deg = len(cyclotomic_polynomial(m)) - 1
    table = _reduction_table(m)
    out = [Fraction(c) for c in coeffs[:phi_deg]]
    out.extend([Fraction(0)] * (phi_deg - len(out)))
    for k in range(phi_deg, len(coeffs)):
        ck = coeffs[k]
        if ck == 0:
            continue
        row = table[k - phi_deg]
        for i, r in enumerate(row):
            out[i] += ck * r
    return out


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
        folded = [Fraction(0)] * order
        for k, c in enumerate(coeffs):
            if c:
                folded[k % order] += Fraction(c)
        reduced = _reduce_mod_phi(folded, order)
        reduced.extend([Fraction(0)] * (order - len(reduced)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(reduced))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        return cls(1, [Fraction(value)])

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [1])

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

    @staticmethod
    def _coerce(value):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return None

    def _pair(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return None, None
        m = self.order * other.order // gcd(self.order, other.order)
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
        for i, ai in enumerate(a.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(b.coeffs):
                if bj:
                    out[(i + j) % m] += ai * bj
        return Cyclotomic(m, out)

    __rmul__ = __mul__

    def galois(self, k: int) -> "Cyclotomic":
        """Image under the automorphism zeta -> zeta^k; k must be a unit mod order."""
        m = self.order
        if gcd(k, m) != 1:
            raise ValueError("zeta -> zeta^%d is not an automorphism of Q(zeta_%d)"
                             % (k, m))
        out = [Fraction(0)] * m
        for j, c in enumerate(self.coeffs):
            if c:
                out[j * k % m] = c
        return Cyclotomic(m, out)

    def inverse(self) -> "Cyclotomic":
        """Product of the other Galois conjugates, divided by the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        m = self.order
        others = Cyclotomic.one()
        for k in range(2, m):
            if gcd(k, m) == 1:
                others = others * self.galois(k)
        norm = self * others
        if not norm.is_rational():
            raise AssertionError("Galois norm of %r is not rational" % (self,))
        return Cyclotomic(m, [c / norm.coeffs[0] for c in others.coeffs])

    def __truediv__(self, other):
        other_c = Cyclotomic._coerce(other)
        if other_c is None:
            return NotImplemented
        return self * other_c.inverse()

    def __rtruediv__(self, other):
        other_c = Cyclotomic._coerce(other)
        if other_c is None:
            return NotImplemented
        return other_c * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

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

@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class ApproxComplex:
    """Floating-point complex scalar for the tolerance-based backend."""

    re: float
    im: float

    def __init__(self, re, im=0.0):
        if isinstance(re, (complex, ApproxComplex)):
            if im:
                raise ValueError("pass either a complex value or re/im parts")
            re, im = re.re if isinstance(re, ApproxComplex) else re.real, \
                re.im if isinstance(re, ApproxComplex) else re.imag
        object.__setattr__(self, "re", float(re))
        object.__setattr__(self, "im", float(im))

    @staticmethod
    def _value(other):
        if isinstance(other, ApproxComplex):
            return complex(other.re, other.im)
        if isinstance(other, (int, float, complex)):
            return complex(other)
        if isinstance(other, Fraction):
            return complex(float(other))
        if isinstance(other, Cyclotomic):
            return other.to_complex()
        return None

    def __complex__(self):
        return complex(self.re, self.im)

    def __abs__(self):
        return abs(complex(self))

    def conjugate(self) -> "ApproxComplex":
        return ApproxComplex(self.re, -self.im)

    def _binary(self, other, op):
        v = ApproxComplex._value(other)
        if v is None:
            return NotImplemented
        return ApproxComplex(op(complex(self), v))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return ApproxComplex(-self.re, -self.im)

    def __pow__(self, exponent: int):
        return ApproxComplex(complex(self) ** exponent)

    def __eq__(self, other):
        v = ApproxComplex._value(other)
        if v is None:
            return NotImplemented
        return complex(self) == v

    __hash__ = None

    def __str__(self):
        return "%r,%r" % (self.re, self.im)

    def __repr__(self):
        return "ApproxComplex(%r, %r)" % (self.re, self.im)


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
    if isinstance(x, (ApproxComplex, float, complex)):
        return abs(complex(x)) < tol
    raise TypeError("not a scalar: %r" % (x,))


def scalar_inverse(x):
    if isinstance(x, Cyclotomic):
        return x.inverse()
    if isinstance(x, (int, Fraction)):
        return Fraction(1, 1) / Fraction(x)
    if isinstance(x, ApproxComplex):
        return ApproxComplex(1.0) / x
    if isinstance(x, (float, complex)):
        return 1.0 / x
    raise TypeError("not a scalar: %r" % (x,))


def scalar_to_complex(x) -> complex:
    if isinstance(x, Cyclotomic):
        return x.to_complex()
    if isinstance(x, ApproxComplex):
        return complex(x)
    if isinstance(x, Fraction):
        return complex(float(x))
    if isinstance(x, (int, float, complex)):
        return complex(x)
    raise TypeError("not a scalar: %r" % (x,))


def scalar_str(x) -> str:
    if isinstance(x, (Cyclotomic, ApproxComplex)):
        return str(x)
    if isinstance(x, (int, Fraction)):
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
