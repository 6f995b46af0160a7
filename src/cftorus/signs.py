"""Orientation sign algebra for fibre products of oriented factors.

Orientations are tracked by dimension parity alone, never by bases:
moving a factor of dimension a past one of dimension b costs
(-1)**(a*b).  The fibre product X x_f P of a submersion from X (dim x)
and a chain P in L (dim l) is oriented as its kernel factor (dim x - l)
followed by P.  Boundaries are oriented outward normal first, so the
boundary of X x_f P splits as (dX) x_f P plus (-1)**(x+l) X x_f (dP);
gluing a split disc class into the boundary of its moduli space carries
the sign (-1)**(dim L + 1); and evaluation at the marked point, which
identifies the one-marked moduli space of minimal discs with the torus,
is declared orientation preserving.

`squarezero_chain` replays the sign bookkeeping that makes the full
coboundary square to zero: expanding delta_0 applied to a disc-class
term produces the split-class composition and the delta_0-on-the-chain
term, each with coefficient -1, cancelling the other two terms of the
square.  Its docstring lists the steps of the replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class OrientedFactor:
    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("factor dimension must be >= 0")


@dataclass(frozen=True)
class OrientedFactorization:
    """Ordered list of named oriented factors."""

    factors: Tuple[OrientedFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(
            f if isinstance(f, OrientedFactor) else OrientedFactor(*f)
            for f in self.factors))


def permute_sign(f: OrientedFactorization, perm: Sequence[int]) -> int:
    """Koszul sign of reordering f's factors by perm.

    perm[k] names which original factor lands in slot k; the sign is the
    product of (-1)**(a*b) over inverted pairs, by dimensions.
    """
    perm = list(perm)
    if sorted(perm) != list(range(len(f.factors))):
        raise ValueError("not a permutation of %d factors: %r"
                         % (len(f.factors), perm))
    dims = [f.factors[p].dim for p in perm]
    crossed = sum(dims[i] * dims[j] for j in range(len(perm)) for i in range(j)
                  if perm[i] > perm[j])
    return (-1) ** (crossed % 2)


def boundary_fibre_signs(x: int, l: int) -> Tuple[int, int]:
    """Signs of the two boundary terms of X x_f P: (dX term, dP term).

    Verified by replaying the factor shuffle: the dP term arises from
    writing [P] = [R_P] x [dP] and moving the 1-dimensional outward
    factor R_P in front of the kernel factor X0 of dimension x - l.
    """
    formula = (1, (-1) ** ((x + l) % 2))
    # only the parity of the kernel dimension x - l matters, so |x - l|
    # stands in for it outside the geometric regime x >= l
    shuffle = OrientedFactorization(
        (OrientedFactor("X0", abs(x - l)), OrientedFactor("R_P", 1)))
    replayed = permute_sign(shuffle, [1, 0])
    if replayed != formula[1]:
        raise AssertionError(
            "shuffle replay %+d disagrees with (-1)^(x+l)=%+d at x=%d l=%d"
            % (replayed, formula[1], x, l))
    return formula


def gluing_sign(dim_l: int) -> int:
    """Boundary-of-moduli gluing sign for a split disc class: (-1)**(dim L + 1)."""
    return (-1) ** ((dim_l + 1) % 2)


def moduli_dim(n: int, mu: int, marked_points: int = 2) -> int:
    """Dimension of the marked disc moduli space after the automorphism quotient."""
    return n + mu + marked_points - 3


def squarezero_chain(n: int, mu_a: int) -> Tuple[int, int]:
    """Coefficients picked up by the two cross terms when delta_0 hits a
    disc-class term: (coefficient on delta_A1 o delta_A2, coefficient on
    delta_A o delta_0).

    Step list of the replay:
      1. delta_0 is (-1)**n times the geometric boundary.
      2. The boundary of the fibre product splits via
         `boundary_fibre_signs(dim M_2(A), n)` with
         dim M_2(A) = n + mu(A) - 1.
      3. The moduli boundary term glues into the split-class composition
         with `gluing_sign(n)`.
      4. The chain boundary term converts back through
         dP = (-1)**n delta_0 P.
    Both coefficients come out -1 for every even mu(A) >= 2, which is the
    cancellation that forces the square of the full coboundary to vanish.
    """
    if mu_a < 2 or mu_a % 2:
        raise ValueError("mu(A) must be an even integer >= 2, got %r" % (mu_a,))
    delta0_sign = (-1) ** n
    dim_m2 = moduli_dim(n, mu_a)
    boundary_term, chain_term = boundary_fibre_signs(dim_m2, n)
    glue_coeff = delta0_sign * boundary_term * gluing_sign(n)
    chain_coeff = delta0_sign * chain_term * (-1) ** n
    return glue_coeff, chain_coeff
