"""Holomorphic discs with boundary on the Clifford torus.

Every such disc is, coordinate by coordinate, a finite Blaschke product:
a unit phase times factors (z - a)/(1 - conj(a) z) with zeros a strictly
inside the unit disc, the n+1 coordinates sharing no common zero.  Discs
are stored by their zero lists, never by polynomial coefficients: the
zeros are the canonical data and make the Maslov index a plain count,
twice the total number of factors.

Per-coordinate zero counts (mu_0,..,mu_n) pin the homotopy class; the
boundary circle class is (mu_1 - mu_0, .., mu_n - mu_0) after
eliminating the zeroth generator.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import DEFAULT_TOL

if TYPE_CHECKING:  # the exact stack and Fraction are imported where they are used
    from fractions import Fraction

    from .floer import HomotopyClass

TWO_PI = 2.0 * math.pi


class DegenerateDiscError(ValueError):
    """All coordinates vanish somewhere: not a map to projective space."""


class _Frozen:
    """Immutable value with the repr, equality and hash of a frozen dataclass.

    `_fields` names the constructor's fields in order, and `_compared`
    those that equality and hash read.  `__init__` stores the fields in
    the instance dict, which pickle and deepcopy restore without running
    it.  Written out rather than generated so that the disc path never
    imports `dataclasses` (and with it `inspect`).
    """

    _fields: Tuple[str, ...] = ()
    _compared: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _finite_phase(theta, what: str) -> float:
    """theta as a float in [0, 2pi); inf and nan are refused, naming them."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("%s theta=%r is not finite" % (what, theta))
    return theta % TWO_PI


class MoebiusMap(_Frozen):
    """Disc automorphism z -> exp(i*theta) (z - a)/(1 - conj(a) z)."""

    _fields = _compared = ("theta", "a")

    def __init__(self, theta: float = 0.0, a: complex = 0j):
        if not abs(a) < 1.0:
            if not cmath.isfinite(a):
                raise ValueError("Moebius parameter a=%r is not finite" % (a,))
            raise ValueError("Moebius parameter must lie inside the unit disc")
        self.__dict__.update(theta=_finite_phase(theta, "Moebius angle"),
                             a=complex(a))

    def __call__(self, z: complex) -> complex:
        return cmath.exp(1j * self.theta) * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(-self.theta, -self.a * cmath.exp(1j * self.theta))


class BlaschkeFactor(_Frozen):
    """One factor (z - alpha)/(1 - conj(alpha) z), |alpha| < 1 strictly.

    `exact` optionally keeps the zero as a Gaussian-rational pair so that
    coincidence of zeros can be decided without tolerance.
    """

    _fields = _compared = ("alpha", "exact")

    def __init__(self, alpha: complex,
                 exact: Optional[Tuple[Fraction, Fraction]] = None):
        alpha = complex(alpha)
        if not abs(alpha) < 1.0:
            if not cmath.isfinite(alpha):
                raise ValueError("Blaschke zero %r is not finite" % (alpha,))
            raise ValueError("Blaschke zero must lie strictly inside the unit disc")
        if exact is not None:
            from fractions import Fraction

            re, im = exact
            exact = (Fraction(re), Fraction(im))
        self.__dict__.update(alpha=alpha, exact=exact)

    @classmethod
    def from_rational(cls, re, im=0) -> "BlaschkeFactor":
        from fractions import Fraction

        re, im = Fraction(re), Fraction(im)
        return cls(complex(float(re), float(im)), exact=(re, im))

    def eval(self, z: complex) -> complex:
        return (z - self.alpha) / (1.0 - self.alpha.conjugate() * z)

    def same_zero(self, other: "BlaschkeFactor", tol: float) -> bool:
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return abs(self.alpha - other.alpha) < tol


class BlaschkeComponent(_Frozen):
    """Phase times a (possibly empty) product of Blaschke factors."""

    _fields = _compared = ("theta", "factors")

    def __init__(self, theta: float = 0.0,
                 factors: Sequence[BlaschkeFactor] = ()):
        self.__dict__.update(theta=_finite_phase(theta, "component phase"),
                             factors=tuple(factors))

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def zeros(self) -> Tuple[complex, ...]:
        return tuple(f.alpha for f in self.factors)

    def eval(self, z: complex) -> complex:
        out = cmath.exp(1j * self.theta)
        for f in self.factors:
            out *= f.eval(z)
        return out

    def eval_many(self, z: Sequence[complex]) -> List[complex]:
        out = [cmath.exp(1j * self.theta)] * len(z)
        for f in self.factors:
            alpha, conj = f.alpha, f.alpha.conjugate()
            out = [o * ((x - alpha) / (1.0 - conj * x)) for o, x in zip(out, z)]
        return out


class BlaschkeDisc(_Frozen):
    """Coordinates (gamma_0,..,gamma_n) with pairwise disjoint zero sets.

    Pairwise disjointness is stricter than the bare requirement that no
    point kills every coordinate at once; it is the validation contract
    here, and it makes zero counts per coordinate unambiguous data.
    `tol` decides which zeros coincide; equality and hash ignore it.
    """

    _fields = ("components", "tol")
    _compared = ("components",)

    def __init__(self, components: Sequence[BlaschkeComponent],
                 tol: float = DEFAULT_TOL):
        self.__dict__.update(components=tuple(components), tol=tol)
        # a nan or non-positive tol would let no two zeros coincide
        if not 0 < tol < math.inf:
            raise ValueError("disc tol must be a finite positive number, got %r"
                             % (tol,))
        if len(self.components) < 2:
            raise ValueError("need n+1 >= 2 coordinate components")
        self._check_no_shared_zero()

    def _check_no_shared_zero(self):
        for i, first in enumerate(self.components):
            for second in self.components[i + 1:]:
                for candidate in first.factors:
                    if any(candidate.same_zero(f, self.tol) for f in second.factors):
                        raise DegenerateDiscError(
                            "coordinates share the zero %r" % (candidate.alpha,))

    @property
    def n(self) -> int:
        return len(self.components) - 1

    @property
    def mu(self) -> Tuple[int, ...]:
        return tuple(c.degree for c in self.components)


def disc_make(components: Sequence[BlaschkeComponent],
              tol: float = DEFAULT_TOL) -> BlaschkeDisc:
    """Validated disc; rejects boundary zeros and common zeros."""
    return BlaschkeDisc(tuple(components), tol)


def disc_eval(d: BlaschkeDisc, z: complex) -> Tuple[complex, ...]:
    """Homogeneous coordinates of the disc at |z| <= 1."""
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("evaluation point %r outside the closed disc" % (z,))
    return tuple(c.eval(z) for c in d.components)


def maslov_index(d: BlaschkeDisc) -> int:
    """Twice the total zero count across all coordinates."""
    return 2 * sum(d.mu)


def homotopy_class(d: BlaschkeDisc) -> HomotopyClass:
    """Intersection vector of the disc; `.boundary` gives its circle class."""
    from .floer import HomotopyClass

    return HomotopyClass(d.mu)


def psl2_act(d: BlaschkeDisc, phi: MoebiusMap,
             tol: float = DEFAULT_TOL) -> BlaschkeDisc:
    """The reparametrized disc d o phi^(-1), again in Blaschke form.

    Each factor's zero moves to phi(zero); the residual unit constant is
    matched by evaluation at z = 1, so the result is the same map of the
    disc, not merely the same homotopy class.
    """
    inv = phi.inverse()
    new_components = []
    for comp in d.components:
        moved = tuple(BlaschkeFactor(phi(f.alpha)) for f in comp.factors)
        base = BlaschkeComponent(0.0, moved)
        target = comp.eval(inv(1.0 + 0j))
        ratio = target / base.eval(1.0 + 0j)
        if abs(abs(ratio) - 1.0) > max(tol, 1e-7):
            raise AssertionError("phase matching lost unit modulus: %r" % (ratio,))
        new_components.append(BlaschkeComponent(cmath.phase(ratio), moved))
    return BlaschkeDisc(tuple(new_components), tol)


def solve_disc_through_point(class_index: int, target: Sequence[complex],
                             tol: float = DEFAULT_TOL) -> BlaschkeDisc:
    """The unique minimal disc through `target` with marked point z = 1.

    `target` lists the n unit phases of a torus point in the chart where
    the zeroth coordinate is 1.  The residual disc automorphism is fixed
    by normalizing the moving coordinate's zero to the origin and the
    zeroth phase to 0, after which evaluation at the marked point z = 1
    reproduces the target exactly.
    """
    n = len(target)
    if not 0 <= class_index <= n:
        raise ValueError("class index %d out of range 0..%d" % (class_index, n))
    phases = []
    for t in target:
        t = complex(t)
        if abs(abs(t) - 1.0) > max(tol, 1e-7):
            raise ValueError("target entry %r is not unit modulus" % (t,))
        phases.append(cmath.phase(t) % TWO_PI)
    zero_factor = (BlaschkeFactor(0j, exact=(0, 0)),)
    components = [BlaschkeComponent(0.0, zero_factor if class_index == 0 else ())]
    for j, psi in enumerate(phases, start=1):
        factors = zero_factor if j == class_index else ()
        components.append(BlaschkeComponent(psi, factors))
    return BlaschkeDisc(tuple(components), tol)


def random_disc(rng, n: int, max_degree: int = 4, chart0: bool = False,
                max_radius: float = 0.9, tol: float = DEFAULT_TOL) -> BlaschkeDisc:
    """Random valid disc; chart0 forces the zeroth coordinate constant."""
    while True:
        components = []
        for i in range(n + 1):
            degree = 0 if (chart0 and i == 0) else rng.randint(0, max_degree)
            factors = []
            for _ in range(degree):
                radius = max_radius * math.sqrt(rng.random())
                angle = TWO_PI * rng.random()
                factors.append(BlaschkeFactor(cmath.rect(radius, angle)))
            components.append(BlaschkeComponent(TWO_PI * rng.random(), tuple(factors)))
        try:
            return BlaschkeDisc(tuple(components), tol)
        except DegenerateDiscError:  # pragma: no cover - measure-zero event
            continue


# ---------------------------------------------------------------------------
# JSON form: {"components": [{"theta": "p/q"|float, "zeros": [{"re","im"}]}]}
# ---------------------------------------------------------------------------

def disc_to_json_dict(d: BlaschkeDisc) -> dict:
    return {
        "components": [
            {
                "theta": c.theta,
                "zeros": [{"re": f.alpha.real, "im": f.alpha.imag} for f in c.factors],
            }
            for c in d.components
        ]
    }


def disc_from_json_dict(data: dict, tol: float = DEFAULT_TOL) -> BlaschkeDisc:
    components = []
    for entry in data["components"]:
        theta = entry.get("theta", 0.0)
        if isinstance(theta, str):
            from fractions import Fraction

            theta = TWO_PI * float(Fraction(theta))
        factors = tuple(BlaschkeFactor(complex(zd["re"], zd["im"]))
                        for zd in entry.get("zeros", ()))
        components.append(BlaschkeComponent(float(theta), factors))
    return BlaschkeDisc(tuple(components), tol)
