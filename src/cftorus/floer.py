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

Only the Maslov index 2 discs contribute: the truncation of Cho-Oh
(math/0308225).  Through a fixed boundary point, a disc class with
intersection counts mu_0..mu_n moves at most one boundary phase per
coordinate it crosses, so for 2 <= sum(mu) <= n its dimension deficit
2*sum(mu) - 1 - support is at least sum(mu) - 1 > 0 and it contributes
zero; a class with sum(mu) > n lowers the cochain degree past the model.
With delta_0 = 0 on harmonic representatives, delta = delta_2 (x) e, and
delta_2 is the wedging by v that `wedge_by_vector` builds.

Everything downstream is decided by whether v vanishes: wedging by a
nonzero vector is exact, wedging by zero is the zero map.  Ranks are
computed both ways -- brute force from the matrices and in closed form --
so each route checks the other.  For exact weights the two routes also
run over different fields: the matrices over a prime field F_p, the
closed-form zero test in Q(zeta_m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .exterior import NotAComplexError, cohomology_ranks, koszul_complex
from .scalars import (
    DEFAULT_TOL,
    ApproxComplex,
    is_exact_scalar,
    reduce_mod_p,
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


def _check_unit_modulus(values, tol: float) -> None:
    for x in values:
        if not abs(abs(scalar_to_complex(x)) - 1.0) <= tol:  # also refuses nan and inf
            raise ValueError("holonomy %r is not unit modulus within %g" % (x, tol))


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class HolonomyAssignment:
    """Unit holonomies (h_1,..,h_n) with derived h_0 = (h_1 * .. * h_n)^-1.

    An assignment is exact exactly when it is built from rational angles
    p/q (fractions of a full turn), and then from them alone, so its
    values and labels cannot disagree.  Approximate ones take complex
    values h, h0 of unit modulus within the tolerance, which also bounds
    |h_0 * h_1 * .. * h_n - 1|, and refuse exact values.
    """

    h: tuple
    h0: object
    angles: Optional[tuple]

    def __init__(self, h: Optional[Sequence] = None, h0=None,
                 angles: Optional[Sequence] = None, tol: float = DEFAULT_TOL):
        given = (h is not None, h0 is not None, angles is not None)
        if given not in ((False, False, True), (True, True, False)):
            raise ValueError("holonomies are built from angles alone or from "
                             "values h and h0 alone; got h=%r, h0=%r, angles=%r"
                             % (h, h0, angles))
        if angles is not None:
            angles = [Fraction(a) for a in angles]
            h = [root_of_unity(a.numerator, a.denominator) for a in angles]
            angle0 = -sum(angles, Fraction(0))
            h0 = root_of_unity(angle0.numerator, angle0.denominator)
            angles = [a - (a.numerator // a.denominator) for a in angles]
        object.__setattr__(self, "h", tuple(h))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "angles", tuple(angles) if angles is not None else None)
        exact = [] if self.exact else [x for x in (*self.h, h0) if is_exact_scalar(x)]
        if exact:
            raise ValueError("holonomy value %s is exact; build exact holonomies "
                             "from their angles with from_angles" % (exact[0],))
        prod = h0
        for x in self.h:
            prod = prod * x
        if self.exact:
            if prod != 1:
                raise ValueError("holonomy product h_0 * h_1 * .. * h_n must be 1")
        elif not abs(scalar_to_complex(prod) - 1.0) <= tol:
            raise ValueError("holonomy product h_0 * h_1 * .. * h_n must be 1 "
                             "within %g" % tol)
        else:
            _check_unit_modulus((*self.h, h0), tol)

    @property
    def n(self) -> int:
        return len(self.h)

    @property
    def exact(self) -> bool:
        return self.angles is not None

    @classmethod
    def trivial(cls, n: int) -> "HolonomyAssignment":
        return cls.from_angles([Fraction(0)] * n)

    @classmethod
    def from_angles(cls, angles: Sequence[Fraction]) -> "HolonomyAssignment":
        """Exact backend: h_j = exp(2*pi*i*angles[j])."""
        return cls(angles=angles)

    @classmethod
    def from_values(cls, values: Sequence, tol: float = DEFAULT_TOL) -> "HolonomyAssignment":
        """Approximate backend from unit-modulus complex values."""
        vals = [ApproxComplex(scalar_to_complex(x)) for x in values]
        _check_unit_modulus(vals, tol)  # before 1/prod can divide by zero
        prod = 1.0 + 0j
        for z in vals:
            prod *= complex(z)
        h0 = ApproxComplex(1.0 / prod)
        return cls(vals, h0, tol=tol)

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
    """Combined spin/holonomy weights c_j = eps_j * h_j and v_j = c_j - c_0,
    exact when every v_j is."""

    c: tuple
    v: tuple
    exact: bool

    def __init__(self, c: Sequence, v: Sequence):
        object.__setattr__(self, "c", tuple(c))
        object.__setattr__(self, "v", tuple(v))
        object.__setattr__(self, "exact", all(is_exact_scalar(x) for x in self.v))
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
    # eps_j = +-1, so c_j is h_j or its negation: no product is formed
    c = [simplify_exact(h if e == 1 else -h)
         for e, h in zip(spin.eps, holonomy.with_h0())]
    v = [simplify_exact(c[j] - c[0]) for j in range(1, spin.n + 1)]
    return WeightVector(c, v)


@dataclass(frozen=True)
class RankTable:
    """Cohomology ranks by internal wedge degree |I| = 0..n.

    Cochain degree p relabels as p = n - |I|, so the reversed tuple is
    the table by cochain degree.
    """

    by_lambda_degree: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.by_lambda_degree) - 1

    @property
    def by_cochain_degree(self) -> Tuple[int, ...]:
        return tuple(reversed(self.by_lambda_degree))

    @property
    def nonvanishing(self) -> bool:
        return any(r != 0 for r in self.by_lambda_degree)


def floer_ranks_bruteforce(w: WeightVector, tol: float = DEFAULT_TOL) -> RankTable:
    """Ranks from the actual matrices of the coboundary.

    Exact weights are taken to F_p by `reduce_mod_p`, which keeps every
    nonzero weight nonzero.  Wedging by a vector with a unit entry is
    exact over any field and wedging by zero is the zero map, so the
    F_p table equals the table over Q(zeta_m).
    """
    p, v = reduce_mod_p(w.v) if w.exact else (None, w.v)
    return RankTable(tuple(cohomology_ranks(koszul_complex(v, p), tol)))


def floer_ranks_closedform(w: WeightVector, tol: float = DEFAULT_TOL) -> RankTable:
    """Binomial ranks when the weight vector vanishes, zero otherwise."""
    n = w.n
    if w.is_trivial(tol):
        return RankTable(tuple(comb(n, k) for k in range(n + 1)))
    return RankTable((0,) * (n + 1))


# ---------------------------------------------------------------------------
# disc homotopy classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyClass:
    """Disc class recorded by its intersection vector (mu_0,..,mu_n)."""

    mu: Tuple[int, ...]

    def __post_init__(self):
        if len(self.mu) < 2:
            raise ValueError("need mu_0..mu_n with n >= 1")
        for m in self.mu:
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise ValueError("intersection counts must be integers >= 0, "
                                 "got %r in %r" % (m, self.mu))

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


# ---------------------------------------------------------------------------
# scan cells and the enumerations the scans run over
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanCell:
    """One (spin, holonomy) configuration with its computed rank table."""

    spin: SpinStructure
    holonomy: HolonomyAssignment
    table: RankTable

    @property
    def n(self) -> int:
        return self.spin.n

    @property
    def backend(self) -> str:
        return "exact" if self.holonomy.exact else "approx"

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


def _cell_name(spin: SpinStructure, holonomy: HolonomyAssignment) -> str:
    """The suffix by which a failure message names its cell."""
    return " (spin %s, holonomy %s)" % (
        ",".join(map(str, spin.eps)), " ".join(holonomy.entry_strings()))


def evaluate_cell(spin: SpinStructure, holonomy: HolonomyAssignment,
                  tol: float = DEFAULT_TOL) -> ScanCell:
    w = weights(spin, holonomy)
    try:
        table = floer_ranks_bruteforce(w, tol)
    except NotAComplexError as exc:
        raise AssertionError("%s%s" % (exc, _cell_name(spin, holonomy))) from exc
    check = floer_ranks_closedform(w, tol)
    if table != check:
        cell = _cell_name(spin, holonomy)
        if w.exact:
            raise AssertionError(
                "brute-force and closed-form rank tables disagree: %r vs %r%s"
                % (table, check, cell))
        raise ValueError(
            "holonomy lies within tolerance of a vanishing transition "
            "(brute-force %r vs closed-form %r); adjust the tolerance%s"
            % (table.by_lambda_degree, check.by_lambda_degree, cell))
    return ScanCell(spin, holonomy, table)


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
