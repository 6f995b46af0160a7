"""Independent checks against the simplicial model.

Size-k subsets of {1..n} are the (k-1)-faces of the standard
(n-1)-simplex, so a cochain assignment I -> A_I is a simplicial cochain
and its coboundary row at J reads sum_s (-1)**(s-1) A_(J minus s-th
member).  Two facts get exercised here:

* the simplex has no cohomology between top and bottom, so the ranks
  from `simplex_rank_profile` in degrees k - 1 and k add up to C(n, k);
* rescaling the weighted coboundary by prod_(i in I) v_i turns it into
  (-1)**n times the bare simplex coboundary whenever every weight v_i is
  nonzero, which is exactly why nontrivial weights kill every rank.
"""

from __future__ import annotations

from .exterior import index_sets, rank, wedge_by_vector, _basis_positions
from .scalars import DEFAULT_TOL, scalar_is_zero


def simplex_coboundary(n: int, k: int):
    """Rows of the simplicial coboundary from size-k to size-(k+1) cochains."""
    if not 0 <= k < n:
        raise ValueError("degree k=%d out of range 0..%d" % (k, n - 1))
    pos = _basis_positions(n, k)
    # (-1)**(s-1) with s 1-based
    return [{pos[J[:s] + J[s + 1:]]: (-1) ** s for s in range(len(J))}
            for J in index_sets(n, k + 1)]


def koszul_rescale_check(w, tol: float = DEFAULT_TOL) -> bool:
    """Conjugate the weighted coboundary into the bare simplex coboundary.

    `w` is a weight vector or its n weights, every one nonzero.  With
    s(I) = prod_(i in I) v_i, the wedge rows D and `simplex_coboundary`
    rows S of each degree must satisfy D diag(s) = diag(s) S, checked entry
    by entry without dividing (both sides of the full coboundary's check
    carry the same (-1)**n).  Weight vectors with some zero entries are out
    of scope; the brute-force ranks cover their vanishing directly.
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
            bound = tol * abs(complex(scale[J]))
            for c in row.keys() | want.keys():
                if not scalar_is_zero(row.get(c, 0) * scale[cols[c]]
                                      - want.get(c, 0) * scale[J], bound):
                    return False
    return True


def simplex_rank_profile(n: int, tol: float = DEFAULT_TOL):
    """Ranks of the simplex coboundaries, degree by degree."""
    return [rank(simplex_coboundary(n, k), tol) for k in range(n)]
