"""Independent brute-force checks against the simplicial model.

Size-k subsets of {1..n} are the (k-1)-faces of the standard
(n-1)-simplex, so a cochain assignment I -> A_I is a simplicial cochain
and its coboundary row at J reads sum_s (-1)**(s-1) A_(J minus s-th
member).  Two facts get exercised here:

* the simplex has no cohomology between top and bottom, witnessed
  constructively by `solve_cocycle` through the cone on vertex 1;
* rescaling the weighted coboundary by prod_(i in I) v_i turns it into
  (-1)**n times the bare simplex coboundary whenever every weight v_i is
  nonzero, which is exactly why nontrivial weights kill every rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .exterior import (
    IndexSet,
    index_sets,
    rank,
    validate_index_set,
    wedge_by_vector,
    _basis_positions,
)
from .scalars import DEFAULT_TOL, scalar_is_zero


class NotACocycleError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "cocycle condition fails at %s" % (", ".join(map(str, self.violations)),))


@dataclass
class CochainAssignment:
    """A value A_I for every size-k subset I of {1..n}."""

    n: int
    k: int
    values: Dict[IndexSet, object]

    def __post_init__(self):
        expected = index_sets(self.n, self.k)
        cleaned = {}
        for I, val in self.values.items():
            cleaned[validate_index_set(I, self.n)] = val
        missing = [I for I in expected if I not in cleaned]
        if missing:
            raise ValueError("incomplete cochain, missing %s" % (missing,))
        self.values = cleaned


def simplex_coboundary(n: int, k: int):
    """Rows of the simplicial coboundary from size-k to size-(k+1) cochains."""
    if not 0 <= k < n:
        raise ValueError("degree k=%d out of range 0..%d" % (k, n - 1))
    pos = _basis_positions(n, k)
    # (-1)**(s-1) with s 1-based
    return [{pos[J[:s] + J[s + 1:]]: (-1) ** s for s in range(len(J))}
            for J in index_sets(n, k + 1)]


def coboundary_apply(a: CochainAssignment) -> CochainAssignment:
    out = {}
    for J in index_sets(a.n, a.k + 1):
        acc = 0
        for s in range(len(J)):
            acc = acc + (-1) ** s * a.values[J[:s] + J[s + 1:]]
        out[J] = acc
    return CochainAssignment(a.n, a.k + 1, out)


def solve_cocycle(a: CochainAssignment, tol: float = DEFAULT_TOL) -> CochainAssignment:
    """A degree-(k-1) cochain whose coboundary is `a`.

    Raises NotACocycleError (listing the violated index sets) when `a`
    fails the alternating-sum condition.  When it holds, the cone on
    vertex 1 gives the preimage directly: b_I = a_({1} + I) for I without
    1, and b_I = 0 otherwise.  For k = 1 the answer is the single value
    a_(1) on the empty set.
    """
    if a.k < 1:
        raise ValueError("no lower degree below k=0")
    violations = [J for J, acc in coboundary_apply(a).values.items()
                  if not scalar_is_zero(acc, tol)]
    if violations:
        raise NotACocycleError(violations)
    return CochainAssignment(a.n, a.k - 1, {
        I: 0 if 1 in I else a.values[(1,) + I]
        for I in index_sets(a.n, a.k - 1)})


def koszul_rescale_check(w, tol: float = DEFAULT_TOL) -> bool:
    """Conjugate the weighted coboundary into the bare simplex coboundary.

    `w` is a weight vector or its n weights, every one nonzero.  For each
    degree k the wedge matrix rescaled by diag(prod_(i in I) v_i) must
    equal `simplex_coboundary` (both sides of the full coboundary's check
    carry the same (-1)**n).  Weight vectors with some zero entries are
    out of scope here; their vanishing is covered by the brute-force rank
    computation directly.
    """
    v = list(w.v) if hasattr(w, "v") else list(w)
    n = len(v)
    bad = [j + 1 for j, vj in enumerate(v) if scalar_is_zero(vj, tol)]
    if bad:
        raise ValueError("every weight must be nonzero, got v_j = 0 at %s" % (bad,))
    scale = {(): 1}
    for k in range(n):
        for I in index_sets(n, k + 1):
            scale[I] = scale[I[:-1]] * v[I[-1] - 1]
    for k in range(n):
        cols = index_sets(n, k)
        for J, row, want in zip(index_sets(n, k + 1), wedge_by_vector(v, k),
                                simplex_coboundary(n, k)):
            inv = Fraction(1) / scale[J]
            for c in row.keys() | want.keys():
                rescaled = inv * row.get(c, 0) * scale[cols[c]]
                if not scalar_is_zero(rescaled - want.get(c, 0), tol):
                    return False
    return True


def simplex_rank_profile(n: int, tol: float = DEFAULT_TOL):
    """Ranks of the simplex coboundaries, degree by degree."""
    return [rank(simplex_coboundary(n, k), tol) for k in range(n)]


def weighted_cocycle_preimage(v, target: CochainAssignment,
                              tol: float = DEFAULT_TOL) -> CochainAssignment:
    """Explicit preimage of a weighted-coboundary cocycle, degree k >= 1.

    Requires one nonzero weight per generator of the target's rank.
    Divides the target by the weight products, solves the resulting bare
    simplex cocycle, and scales the solution back (with the global parity
    sign), so that the weighted coboundary of the result reproduces the
    target -- the constructive half of kernel = image.
    """
    v, n = list(v), target.n
    if len(v) != n:
        raise ValueError("got %d weights for a target of rank %d" % (len(v), n))
    bad = [j + 1 for j, vj in enumerate(v) if scalar_is_zero(vj, tol)]
    if bad:
        raise ValueError("every weight must be nonzero, got v_j = 0 at %s" % (bad,))
    if target.k < 1:
        raise ValueError("no preimage degree below k=0")

    def weight_product(I):
        prod = 1
        for i in I:
            prod = prod * v[i - 1]
        return prod

    rescaled = CochainAssignment(n, target.k, {
        I: target.values[I] * (Fraction(1) / weight_product(I))
        for I in index_sets(n, target.k)})
    solved = solve_cocycle(rescaled, tol)
    sign = (-1) ** n
    return CochainAssignment(n, target.k - 1, {
        G: sign * weight_product(G) * solved.values[G]
        for G in index_sets(n, target.k - 1)})
