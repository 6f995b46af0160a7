"""Floer coboundary of the Clifford torus and its vanishing scans.

The torus T^n in complex projective n-space bounds one minimal-index
holomorphic disc class per homogeneous coordinate; the coboundary those
discs induce on the cohomology model acts, degree by degree, as signed
weighted wedging by the vector

    v_j = c_j - c_0,        c_j = eps_j * h_j,

where eps is the sign vector of a spin structure (product 1) and h_j the
holonomy of a flat line bundle along the j-th generating circle, with
h_0 determined by h_0 * h_1 * .. * h_n = 1.  The zeroth generator never
appears explicitly: its cycle is eliminated through
L_0 = -L_1 - .. - L_n, which is where the differences c_j - c_0 come
from.

Everything downstream is decided by whether v vanishes: wedging by a
nonzero vector is exact, wedging by zero is the zero map.  Ranks are
computed both ways -- brute force from the matrices and in closed form --
so each route checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .exterior import (
    ExteriorClass,
    GradedMatrixComplex,
    cohomology_ranks,
    index_sets,
    koszul_complex,
)
from .scalars import (
    DEFAULT_TOL,
    ApproxComplex,
    is_exact_scalar,
    root_of_unity,
    scalar_is_zero,
    scalar_str,
    scalar_to_complex,
    simplify_exact,
)


@dataclass(frozen=True)
class SpinStructure:
    """Sign vector (eps_0,..,eps_n) in {-1,+1}^(n+1) with product 1.

    The all-plus vector is the standard structure; eps_i records the
    orientation flip of the i-th minimal disc moduli space relative to
    it.  Structures are labelled by the subset of {1..n} carrying -1,
    with eps_0 forced by the product constraint.
    """

    eps: Tuple[int, ...]

    def __post_init__(self):
        if len(self.eps) < 2:
            raise ValueError("need at least two sign entries (n >= 1)")
        if any(e not in (-1, 1) for e in self.eps):
            raise ValueError("sign entries must be +1 or -1: %r" % (self.eps,))
        prod = 1
        for e in self.eps:
            prod *= e
        if prod != 1:
            raise ValueError("sign product must be 1: %r" % (self.eps,))

    @property
    def n(self) -> int:
        return len(self.eps) - 1

    @classmethod
    def from_subset(cls, subset: Iterable[int], n: int) -> "SpinStructure":
        subset = set(subset)
        if not subset <= set(range(1, n + 1)):
            raise ValueError("subset %r not within 1..%d" % (sorted(subset), n))
        body = [-1 if i in subset else 1 for i in range(1, n + 1)]
        eps0 = 1
        for e in body:
            eps0 *= e
        return cls((eps0, *body))

    @property
    def twisted_subset(self) -> Tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.eps[i] == -1)

    def label_bits(self) -> Tuple[int, ...]:
        """(a_1,..,a_n) with a_i = 1 exactly on the twisted generators."""
        return tuple(1 if self.eps[i] == -1 else 0 for i in range(1, self.n + 1))

    def is_standard(self) -> bool:
        return all(e == 1 for e in self.eps)


def standard_spin(n: int) -> SpinStructure:
    return SpinStructure.from_subset((), n)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class HolonomyAssignment:
    """Unit holonomies (h_1,..,h_n) with derived h_0 = (h_1 * .. * h_n)^-1.

    Exact assignments are built from rational angles p/q (fractions of a
    full turn); approximate ones from complex values of unit modulus
    within the tolerance.
    """

    h: tuple
    h0: object
    angles: Optional[tuple]
    exact: bool

    def __init__(self, h: Sequence, h0, angles: Optional[Sequence], exact: bool):
        object.__setattr__(self, "h", tuple(h))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "angles", tuple(angles) if angles is not None else None)
        object.__setattr__(self, "exact", exact)
        prod = h0
        for x in self.h:
            prod = prod * x
        if exact:
            if prod != 1:
                raise ValueError("holonomy product h_0 * h_1 * .. * h_n must be 1")
        elif abs(scalar_to_complex(prod) - 1.0) > 1e-6:
            raise ValueError("holonomy product h_0 * h_1 * .. * h_n must be 1")

    @property
    def n(self) -> int:
        return len(self.h)

    @classmethod
    def trivial(cls, n: int) -> "HolonomyAssignment":
        return cls.from_angles([Fraction(0)] * n)

    @classmethod
    def from_angles(cls, angles: Sequence[Fraction]) -> "HolonomyAssignment":
        """Exact backend: h_j = exp(2*pi*i*angles[j])."""
        angles = [Fraction(a) for a in angles]
        values = [root_of_unity(a.numerator, a.denominator) for a in angles]
        angle0 = -sum(angles, Fraction(0))
        h0 = root_of_unity(angle0.numerator, angle0.denominator)
        norm_angles = [a - (a.numerator // a.denominator) for a in angles]
        return cls(values, h0, angles=norm_angles, exact=True)

    @classmethod
    def from_values(cls, values: Sequence, tol: float = DEFAULT_TOL) -> "HolonomyAssignment":
        """Approximate backend from unit-modulus complex values."""
        vals = []
        for x in values:
            z = scalar_to_complex(x)
            if not abs(abs(z) - 1.0) <= tol:  # also refuses nan and inf
                raise ValueError("holonomy %r is not unit modulus within %g" % (x, tol))
            vals.append(ApproxComplex(z))
        prod = 1.0 + 0j
        for z in vals:
            prod *= complex(z)
        h0 = ApproxComplex(1.0 / prod)
        return cls(vals, h0, angles=None, exact=False)

    def with_h0(self) -> Tuple:
        """(h_0, h_1, .., h_n)."""
        return (self.h0, *self.h)

    def entry_strings(self):
        if self.angles is not None:
            return ["%d/%d" % (a.numerator, a.denominator) for a in self.angles]
        return [scalar_str(x) for x in self.h]

    def __repr__(self):
        return "HolonomyAssignment(%s)" % (", ".join(self.entry_strings()),)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class WeightVector:
    """Combined spin/holonomy weights c_j = eps_j * h_j and v_j = c_j - c_0."""

    c: tuple
    v: tuple
    exact: bool

    def __init__(self, c: Sequence, v: Sequence, exact: Optional[bool] = None):
        object.__setattr__(self, "c", tuple(c))
        object.__setattr__(self, "v", tuple(v))
        if exact is None:
            exact = all(is_exact_scalar(x) for x in self.v)
        object.__setattr__(self, "exact", exact)
        if len(self.c) != len(self.v) + 1:
            raise ValueError("need one more c entry than v entries")

    @property
    def n(self) -> int:
        return len(self.v)

    @classmethod
    def from_vector(cls, v: Sequence) -> "WeightVector":
        """A bare wedge vector, with c backfilled as (0, v_1, .., v_n)."""
        return cls((0, *v), tuple(v))

    def is_trivial(self, tol: float = DEFAULT_TOL) -> bool:
        return all(scalar_is_zero(x, tol) for x in self.v)

    def __repr__(self):
        return "WeightVector(v=%s)" % ([scalar_str(x) for x in self.v],)


def weights(spin: SpinStructure, holonomy: HolonomyAssignment) -> WeightVector:
    """Per-generator weights of the minimal-disc coboundary."""
    if spin.n != holonomy.n:
        raise ValueError("spin rank %d != holonomy rank %d" % (spin.n, holonomy.n))
    hs = holonomy.with_h0()
    c = [simplify_exact(spin.eps[j] * hs[j]) for j in range(spin.n + 1)]
    v = [simplify_exact(c[j] - c[0]) for j in range(1, spin.n + 1)]
    return WeightVector(c, v, exact=holonomy.exact)


def delta2(x: ExteriorClass, w: WeightVector, tol: float = DEFAULT_TOL) -> ExteriorClass:
    """The minimal-disc coboundary (-1)**n (v_1 L_1 + .. + v_n L_n) ^ x."""
    n = x.n
    if n != w.n:
        raise ValueError("class rank %d != weight rank %d" % (n, w.n))
    acc = ExteriorClass(n)
    for j, vj in enumerate(w.v, start=1):
        if not scalar_is_zero(vj, tol):
            acc = acc + vj * x.wedge_generator(j)
    return ((-1) ** n) * acc


@dataclass(frozen=True)
class RankTable:
    """Cohomology ranks by internal wedge degree |I| = 0..n.

    Cochain degree p relabels as p = n - |I|, so the reversed tuple is
    the table by cochain degree.
    """

    n: int
    by_lambda_degree: Tuple[int, ...]

    @property
    def by_cochain_degree(self) -> Tuple[int, ...]:
        return tuple(reversed(self.by_lambda_degree))

    @property
    def nonvanishing(self) -> bool:
        return any(r != 0 for r in self.by_lambda_degree)


def floer_coboundary_complex(n: int, w: WeightVector) -> GradedMatrixComplex:
    """Matrices of the coboundary in the index-set basis (global sign excluded)."""
    return koszul_complex(n, list(w.v))


def floer_ranks_bruteforce(n: int, w: WeightVector,
                           tol: float = DEFAULT_TOL) -> RankTable:
    """Ranks from the actual matrices of the coboundary."""
    if w.n != n:
        raise ValueError("weight rank %d != n=%d" % (w.n, n))
    cx = floer_coboundary_complex(n, w)
    return RankTable(n, tuple(cohomology_ranks(cx, tol)))


def floer_ranks_closedform(n: int, w: WeightVector,
                           tol: float = DEFAULT_TOL) -> RankTable:
    """Binomial ranks when the weight vector vanishes, zero otherwise."""
    if w.n != n:
        raise ValueError("weight rank %d != n=%d" % (w.n, n))
    if w.is_trivial(tol):
        return RankTable(n, tuple(comb(n, k) for k in range(n + 1)))
    return RankTable(n, (0,) * (n + 1))


# ---------------------------------------------------------------------------
# homotopy classes and the full Novikov-graded operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyClass:
    """Disc class recorded by its intersection vector (mu_0,..,mu_n)."""

    mu: Tuple[int, ...]

    def __post_init__(self):
        if len(self.mu) < 2:
            raise ValueError("need mu_0..mu_n with n >= 1")
        if any(m < 0 or not isinstance(m, int) for m in self.mu):
            raise ValueError("intersection counts must be integers >= 0")

    @property
    def n(self) -> int:
        return len(self.mu) - 1

    @property
    def maslov_index(self) -> int:
        return 2 * sum(self.mu)

    @property
    def boundary(self) -> Tuple[int, ...]:
        """Boundary class in H_1(T^n), via L_0 = -L_1 - .. - L_n."""
        return tuple(self.mu[j] - self.mu[0] for j in range(1, len(self.mu)))

    def is_zero(self) -> bool:
        return all(m == 0 for m in self.mu)


def dimension_deficit(b: HomotopyClass) -> int:
    """(mu(b) - 1) minus the largest possible evaluation-image dimension.

    Through a fixed point, a disc in class b moves at most one boundary
    phase per coordinate it actually crosses, so the image dimension is
    at most the support size of mu; a positive deficit certifies that the
    class contributes zero as a current.
    """
    if b.is_zero():
        raise ValueError("deficit undefined for the zero class")
    support = sum(1 for m in b.mu if m > 0)
    return (b.maslov_index - 1) - support


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class NovikovCochain:
    """Cochain with formal-variable coefficients: exponent -> class."""

    n: int
    parts: dict

    def __init__(self, n: int, parts: Optional[Dict[int, ExteriorClass]] = None,
                 tol: float = DEFAULT_TOL):
        stored = {}
        for exp, cls in (parts or {}).items():
            if not isinstance(exp, int) or exp < 0:
                raise ValueError("exponents must be integers >= 0, got %r" % (exp,))
            if cls.n != n:
                raise ValueError("rank mismatch in cochain part")
            if not cls.is_zero(tol):
                stored[exp] = cls
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", stored)

    @classmethod
    def from_class(cls, x: ExteriorClass, exp: int = 0) -> "NovikovCochain":
        return cls(x.n, {exp: x})

    def __add__(self, other):
        if not isinstance(other, NovikovCochain) or other.n != self.n:
            return NotImplemented
        merged = dict(self.parts)
        for exp, x in other.parts.items():
            merged[exp] = merged[exp] + x if exp in merged else x
        return NovikovCochain(self.n, merged)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(x.is_zero(tol) for x in self.parts.values())

    def __eq__(self, other):
        if not isinstance(other, NovikovCochain) or other.n != self.n:
            return NotImplemented
        exps = set(self.parts) | set(other.parts)
        zero = ExteriorClass(self.n)
        return all(self.parts.get(e, zero) == other.parts.get(e, zero) for e in exps)

    __hash__ = None

    def __str__(self):
        if not self.parts:
            return "0"
        return " + ".join("(%s)*e^%d" % (self.parts[e], e) for e in sorted(self.parts))


class FullDifferential:
    """The graded operator delta = delta_0 + delta_2 (x) e on the model.

    On harmonic representatives delta_0 vanishes, and every disc class of
    index 4 or more has a positive dimension deficit, so the whole
    operator is the minimal-disc term with one power of e (degree 2).
    Construction verifies both facts: the deficit for every candidate
    class below the sphere-bubbling threshold, and the square of the
    operator on the basis.
    """

    e_exponent = 1

    def __init__(self, n: int, w: WeightVector, tol: float = DEFAULT_TOL):
        if w.n != n:
            raise ValueError("weight rank %d != n=%d" % (w.n, n))
        self.n = n
        self.weights = w
        self.tol = tol
        self._verify_truncation()
        self._verify_square_zero()

    def _verify_truncation(self):
        # every class with 2 <= sum(mu) <= n (index 4 .. 2n, all below the
        # 2n+2 bubbling threshold) must have positive deficit
        for total in range(2, self.n + 1):
            for mu in _compositions(total, self.n + 1):
                if dimension_deficit(HomotopyClass(mu)) <= 0:
                    raise AssertionError(
                        "class %r of index %d has no dimension deficit"
                        % (mu, 2 * total))

    def _verify_square_zero(self):
        for k in range(self.n + 1):
            for I in index_sets(self.n, k):
                once = delta2(ExteriorClass(self.n, {I: 1}), self.weights, self.tol)
                twice = delta2(once, self.weights, self.tol)
                if not twice.is_zero(self.tol):
                    raise AssertionError("operator square nonzero on L%s" % (list(I),))

    def apply(self, x: NovikovCochain) -> NovikovCochain:
        if x.n != self.n:
            raise ValueError("rank mismatch")
        out = {}
        for exp, cls in x.parts.items():
            image = delta2(cls, self.weights, self.tol)
            if not image.is_zero(self.tol):
                key = exp + self.e_exponent
                out[key] = out[key] + image if key in out else image
        return NovikovCochain(self.n, out)

    def apply_class(self, x: ExteriorClass) -> NovikovCochain:
        return self.apply(NovikovCochain.from_class(x))

    def is_zero_operator(self) -> bool:
        return self.weights.is_trivial(self.tol)


def full_differential(n: int, w: WeightVector, tol: float = DEFAULT_TOL) -> FullDifferential:
    return FullDifferential(n, w, tol)


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


# ---------------------------------------------------------------------------
# scan drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanCell:
    """One (spin, holonomy) configuration with its computed rank table."""

    n: int
    spin: SpinStructure
    holonomy: HolonomyAssignment
    table: RankTable
    backend: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "spin": list(self.spin.eps),
            "holonomy": self.holonomy.entry_strings(),
            "ranks_by_lambda_degree": list(self.table.by_lambda_degree),
            "ranks_by_cochain_degree": list(self.table.by_cochain_degree),
            "nonvanishing": self.table.nonvanishing,
            "backend": self.backend,
        }


def evaluate_cell(spin: SpinStructure, holonomy: HolonomyAssignment,
                  tol: float = DEFAULT_TOL) -> ScanCell:
    w = weights(spin, holonomy)
    table = floer_ranks_bruteforce(spin.n, w, tol)
    check = floer_ranks_closedform(spin.n, w, tol)
    if table != check:
        if w.exact:
            raise AssertionError(
                "brute-force and closed-form rank tables disagree: %r vs %r"
                % (table, check))
        raise ValueError(
            "holonomy lies within tolerance of a vanishing transition "
            "(brute-force %r vs closed-form %r); adjust the tolerance"
            % (table.by_lambda_degree, check.by_lambda_degree))
    return ScanCell(spin.n, spin, holonomy, table,
                    "exact" if w.exact else "approx")


def spin_configs(n: int) -> Iterator[Tuple[SpinStructure, HolonomyAssignment]]:
    """All 2^n spin structures under trivial holonomy, by subset bit mask."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hol = HolonomyAssignment.trivial(n)
    for bits in range(1 << n):
        subset = [i + 1 for i in range(n) if bits >> i & 1]
        yield SpinStructure.from_subset(subset, n), hol


def brane_configs(n: int) -> Iterator[Tuple[SpinStructure, HolonomyAssignment]]:
    """All (n+1)^n tuples of (n+1)-th roots of unity, standard spin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spin = standard_spin(n)
    for ks in product(range(n + 1), repeat=n):
        yield spin, HolonomyAssignment.from_angles([Fraction(k, n + 1) for k in ks])


def spin_scan(n: int, tol: float = DEFAULT_TOL):
    """Rank tables for all 2^n spin structures under trivial holonomy."""
    return [evaluate_cell(spin, hol, tol) for spin, hol in spin_configs(n)]


def brane_scan_cells(n: int, tol: float = DEFAULT_TOL) -> Iterator[ScanCell]:
    """Rank tables for all (n+1)^n root-of-unity holonomies, standard spin."""
    return (evaluate_cell(spin, hol, tol) for spin, hol in brane_configs(n))


def brane_scan(n: int, tol: float = DEFAULT_TOL):
    """The holonomy assignments with nonvanishing cohomology."""
    return [cell.holonomy for cell in brane_scan_cells(n, tol)
            if cell.table.nonvanishing]
