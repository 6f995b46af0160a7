"""Exterior algebra over a scalar backend.

The cochain groups of the torus T^n are modelled by the exterior algebra
on generators L_1,..,L_n.  A wedge monomial is keyed by its index set
(strictly increasing tuple of generators); a degree-k basis is the list
of all size-k index sets in lexicographic order, which keeps matrices
reproducible across backends and runs.

Degree bookkeeping: a monomial L_I sits in cochain degree n - |I| (the
point class is degree n, each L_i is degree n-1).  |I| is the internal
grading used for matrix shapes; rank tables report both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Tuple

from .scalars import (
    DEFAULT_TOL,
    is_exact_scalar,
    scalar_is_zero,
    scalar_str,
    scalar_to_complex,
)

IndexSet = Tuple[int, ...]


class NotAComplexError(ValueError):
    """A graded matrix family whose consecutive composites are nonzero."""


def validate_index_set(members: Sequence[int], n: int) -> IndexSet:
    I = tuple(members)
    if any(not isinstance(i, int) for i in I):
        raise ValueError("index set members must be integers: %r" % (I,))
    if any(not 1 <= i <= n for i in I):
        raise ValueError("index set %r out of range 1..%d" % (I, n))
    if any(I[k] >= I[k + 1] for k in range(len(I) - 1)):
        raise ValueError("index set must be strictly increasing: %r" % (I,))
    return I


@lru_cache(maxsize=None)
def index_sets(n: int, k: int) -> tuple:
    """All size-k subsets of {1..n} as tuples, lexicographic order."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _basis_positions(n: int, k: int) -> dict:
    return {I: pos for pos, I in enumerate(index_sets(n, k))}


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class ExteriorClass:
    """Formal linear combination of wedge monomials L_I over a scalar field."""

    n: int
    terms: dict

    def __init__(self, n: int, terms=None, tol: float = DEFAULT_TOL):
        stored = {}
        for I, coeff in (terms or {}).items():
            I = validate_index_set(I, n)
            if not scalar_is_zero(coeff, tol):
                stored[I] = stored[I] + coeff if I in stored else coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", stored)

    @classmethod
    def unit(cls, n: int) -> "ExteriorClass":
        """The point class <pt>: the empty wedge with coefficient 1."""
        return cls(n, {(): 1})

    @classmethod
    def generator(cls, n: int, i: int) -> "ExteriorClass":
        return cls(n, {(i,): 1})

    @classmethod
    def fundamental(cls, n: int) -> "ExteriorClass":
        return cls(n, {tuple(range(1, n + 1)): 1})

    def coefficient(self, I: Sequence[int]):
        return self.terms.get(tuple(I), 0)

    def __add__(self, other):
        if not isinstance(other, ExteriorClass) or other.n != self.n:
            return NotImplemented
        merged = dict(self.terms)
        for I, c in other.terms.items():
            merged[I] = merged[I] + c if I in merged else c
        return ExteriorClass(self.n, merged)

    def __neg__(self):
        return ExteriorClass(self.n, {I: -c for I, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ExteriorClass) or other.n != self.n:
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        return ExteriorClass(self.n, {I: scalar * c for I, c in self.terms.items()})

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(scalar_is_zero(c, tol) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, ExteriorClass) or other.n != self.n:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for I in sorted(self.terms, key=lambda t: (len(t), t)):
            coeff = scalar_str(self.terms[I])
            if " " in coeff or "," in coeff:
                coeff = "(%s)" % coeff
            parts.append("%s*L%s" % (coeff, list(I)) if I else coeff)
        return " + ".join(parts)

    def __repr__(self):
        return "ExteriorClass(n=%d, %s)" % (self.n, dict(self.terms))


# ---------------------------------------------------------------------------
# matrices in the lexicographic index-set basis: one {column: entry} dict
# per row, holding that row's nonzero entries only
# ---------------------------------------------------------------------------

def wedge_by_vector(v: Sequence, k: int):
    """Rows of (v_1 L_1 + .. + v_n L_n) ^ -  from degree k to k+1, n = len(v).

    Column at basis element I holds +-v_j in the row of I + {j}, the sign
    (-1)^(members of I below j) of wedging L_j onto L_I from the left; an
    entry is stored only when v_j is nonzero.  The global coboundary sign
    (-1)^n is *not* included here; it never moves ranks and is applied by
    callers that print coboundary values.
    """
    n = len(v)
    if not 0 <= k <= n:
        raise ValueError("degree k=%d out of range 0..%d" % (k, n))
    pos = _basis_positions(n, k + 1)
    rows = [{} for _ in pos]
    for col, I in enumerate(index_sets(n, k)):
        sign, below = 1, 0
        for j, vj in enumerate(v, 1):
            if below < k and I[below] == j:
                sign, below = -sign, below + 1
            elif vj:
                rows[pos[I[:below] + (j,) + I[below:]]][col] = sign * vj
    return rows


def _sparse_product(a, b):
    """Rows of a·b as {column: entry}, from the {column: entry} rows of both.

    Only products of two nonzero entries are formed, each column summed in
    the order of the inner index; a column that no product reaches is left
    out of its row.
    """
    out = []
    for row in a:
        acc = {}
        for i, x in row.items():
            for col, y in b[i].items():
                acc[col] = acc.get(col, 0) + x * y
        out.append(acc)
    return out


def matrix_is_exact(matrix) -> bool:
    return all(is_exact_scalar(x) for row in matrix for x in row.values())


def rank(matrix, tol: float = DEFAULT_TOL, modulus: Optional[int] = None) -> int:
    """Exact elimination rank over the field, or a singular-value count.

    With a prime modulus the integer entries are read in F_p.  The
    approximate backend counts singular values above
    tol * (largest singular value).  A matrix whose rows are all empty
    holds no inexact entry, so it takes the exact route.
    """
    if not matrix:
        return 0
    if modulus or matrix_is_exact(matrix):
        return _rank_exact(matrix, modulus)
    return _rank_svd(matrix, tol)


def _reduced(row: dict, modulus: Optional[int]) -> dict:
    """The nonzero entries of a {column: entry} row, read in F_p under a modulus."""
    if modulus:
        return {c: x % modulus for c, x in row.items() if x % modulus}
    return {c: x for c, x in row.items() if x}


def _rank_exact(matrix, modulus: Optional[int] = None) -> int:
    """Rank by sparse, division-free elimination in the entries' own ring.

    Rows are taken in turn, each kept as its nonzero entries, and reduced
    against the pivot rows found so far, each filed under its last
    nonzero column c: the row becomes pivot[c]*row - row[c]*pivot, which
    clears column c and never divides.  A row left nonzero is the pivot
    of its last column.  With a modulus the entries are read and kept in
    F_p; otherwise they stay in Z, Q or Q(zeta_m), where exact scalars
    are falsy exactly at zero.
    """
    pivots = {}
    for row in matrix:
        row = _reduced(row, modulus)
        while row:
            c = max(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            lead, a = pivot[c], row[c]
            row = {j: lead * x for j, x in row.items()}
            for j, y in pivot.items():
                row[j] = row.get(j, 0) - a * y
            row = _reduced(row, modulus)
    return len(pivots)


def _rank_svd(matrix, tol: float) -> int:
    import numpy as np  # only the approximate backend needs numpy

    # columns past the last one used are zero and cannot change the rank
    width = 1 + max((c for row in matrix for c in row), default=-1)
    if not width:
        return 0
    arr = np.zeros((len(matrix), width), dtype=complex)
    for r, row in enumerate(matrix):
        for c, x in row.items():
            arr[r, c] = scalar_to_complex(x)
    sv = np.linalg.svd(arr, compute_uv=False)
    # entries are O(1) by construction, so a largest singular value below
    # tol means the matrix is zero at tolerance; without this floor the
    # relative cutoff would read noise as rank
    if sv[0] <= tol:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


@dataclass(frozen=True)
class GradedMatrixComplex:
    """Per-degree matrices D_k: degree k -> k+1, k = 0..n-1, n = len(matrices).

    Each D_k is a list of {column: entry} rows, as `wedge_by_vector` builds.

    D_n (into the zero group) is implicitly zero.  The defining invariant
    is that consecutive composites vanish; `validate` checks it and
    `cohomology_ranks` refuses families that fail it.  With a prime
    `modulus` the entries are integers read in F_p, and both the check
    and the ranks are taken there.
    """

    matrices: tuple
    modulus: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.matrices)

    def matrix(self, k: int):
        if 0 <= k < self.n:
            return self.matrices[k]
        return []

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Refuse the family unless every composite D_(k+1) o D_k is zero.

        Each composite is formed over the nonzero entries of both factors;
        an entry no product reaches is zero in every backend.  A row of
        D_(k+1) naming a column past the rows of D_k is refused.
        """
        m = self.modulus
        for k in range(self.n - 1):
            a, b = self.matrices[k + 1], self.matrices[k]
            if not a or not b:
                continue
            if any(row and max(row) >= len(b) for row in a):
                raise ValueError("shape mismatch in matrix product")
            for acc in _sparse_product(a, b):
                if (any(x % m for x in acc.values()) if m else
                        not all(scalar_is_zero(x, tol) for x in acc.values())):
                    raise NotAComplexError(
                        "composite D_%d o D_%d is not zero" % (k + 1, k))


def koszul_complex(v: Sequence, modulus: Optional[int] = None) -> GradedMatrixComplex:
    """The wedge-by-v family on the exterior algebra of rank len(v).

    With a prime modulus, v holds residues mod it and the family is over F_p.
    """
    return GradedMatrixComplex(
        tuple(wedge_by_vector(v, k) for k in range(len(v))), modulus)


def cohomology_ranks(cx: GradedMatrixComplex, tol: float = DEFAULT_TOL):
    """Per-degree ranks C(n,k) - rank(D_k) - rank(D_(k-1)), k = 0..n."""
    cx.validate(tol)
    d_ranks = [rank(cx.matrix(k), tol, cx.modulus) for k in range(cx.n)]
    out = []
    for k in range(cx.n + 1):
        above = d_ranks[k] if k < cx.n else 0
        below = d_ranks[k - 1] if k > 0 else 0
        out.append(comb(cx.n, k) - above - below)
    return out
