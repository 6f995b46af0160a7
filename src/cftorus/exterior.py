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
from typing import Sequence, Tuple

import numpy as np

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


def insert_sign(j: int, I: Sequence[int], n: int | None = None):
    """Sign and index set of L_j wedged onto L_I from the left.

    Returns (0, None) when j already occurs (squares vanish), otherwise
    ((-1)**(number of members below j), sorted insertion).
    """
    if j < 1 or (n is not None and j > n):
        raise IndexError("generator index %d out of range" % j)
    I = tuple(I)
    if j in I:
        return 0, None
    below = sum(1 for i in I if i < j)
    merged = tuple(sorted(I + (j,)))
    return (-1) ** below, merged


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

    def wedge_generator(self, j: int) -> "ExteriorClass":
        """L_j wedged from the left onto every term."""
        out = {}
        for I, c in self.terms.items():
            sign, J = insert_sign(j, I, self.n)
            if sign:
                out[J] = out[J] + sign * c if J in out else sign * c
        return ExteriorClass(self.n, out)

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
# matrices in the lexicographic index-set basis (row-major list of rows)
# ---------------------------------------------------------------------------

def wedge_by_vector(n: int, v: Sequence, k: int):
    """Matrix of (v_1 L_1 + .. + v_n L_n) ^ -  from degree k to degree k+1.

    Column at basis element I holds sum_j v_j * insert_sign(j, I).  The
    global coboundary sign (-1)^n is *not* included here; it never moves
    ranks and is applied by callers that print coboundary values.
    """
    if not 0 <= k <= n:
        raise ValueError("degree k=%d out of range 0..%d" % (k, n))
    if len(v) != n:
        raise ValueError("expected %d vector entries, got %d" % (n, len(v)))
    rows = index_sets(n, k + 1)
    cols = index_sets(n, k)
    if not rows:
        return []
    pos = _basis_positions(n, k + 1)
    matrix = [[0] * len(cols) for _ in rows]
    for col, I in enumerate(cols):
        for j in range(1, n + 1):
            sign, J = insert_sign(j, I, n)
            if sign:
                matrix[pos[J]][col] = sign * v[j - 1]
    return matrix


def matrix_scale(scalar, matrix):
    return [[scalar * x for x in row] for row in matrix]


def matmul(a, b):
    if not a or not b:
        return []
    inner = len(b)
    out = []
    for row in a:
        if len(row) != inner:
            raise ValueError("shape mismatch in matrix product")
        out_row = []
        for col in range(len(b[0])):
            acc = 0
            for i in range(inner):
                acc = acc + row[i] * b[i][col]
            out_row.append(acc)
        out.append(out_row)
    return out


def matrix_is_zero(matrix, tol: float = DEFAULT_TOL) -> bool:
    return all(scalar_is_zero(x, tol) for row in matrix for x in row)


def matrix_is_exact(matrix) -> bool:
    return all(is_exact_scalar(x) for row in matrix for x in row)


def matrix_to_strings(matrix):
    """Row-major array of scalar strings, the JSON form of a matrix."""
    return [[scalar_str(x) for x in row] for row in matrix]


def rank(matrix, tol: float = DEFAULT_TOL) -> int:
    """Exact elimination rank over the field, or a singular-value count.

    The approximate backend counts singular values above
    tol * (largest singular value).
    """
    if not matrix or not matrix[0]:
        return 0
    if matrix_is_exact(matrix):
        return _rank_exact(matrix)
    return _rank_svd(matrix, tol)


def _rank_exact(matrix) -> int:
    rows = [list(row) for row in matrix]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not scalar_is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            if not scalar_is_zero(a):
                # division-free update keeps every entry in the ring
                rows[i] = [pivot * x - a * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _rank_svd(matrix, tol: float) -> int:
    arr = np.array([[scalar_to_complex(x) for x in row] for row in matrix],
                   dtype=complex)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    # entries are O(1) by construction, so a largest singular value below
    # tol means the matrix is zero at tolerance; without this floor the
    # relative cutoff would read noise as rank
    if sv.size == 0 or sv[0] <= tol:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def solve_linear_system(matrix, rhs, tol: float = DEFAULT_TOL):
    """One solution x of matrix @ x = rhs, or None when inconsistent.

    Exact entries get Gaussian elimination with free variables pinned to
    zero; approximate entries get the minimal-norm least-squares solution
    (rejected when the residual exceeds tol).
    """
    if not matrix:
        return [] if all(scalar_is_zero(b, tol) for b in rhs) else None
    ncols = len(matrix[0])
    if matrix_is_exact(matrix) and all(is_exact_scalar(b) for b in rhs):
        from .scalars import scalar_inverse

        aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
        pivots = []
        r = 0
        for c in range(ncols):
            pivot_row = next((i for i in range(r, len(aug))
                              if not scalar_is_zero(aug[i][c])), None)
            if pivot_row is None:
                continue
            aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
            inv = scalar_inverse(aug[r][c])
            aug[r] = [inv * x for x in aug[r]]
            for i in range(len(aug)):
                if i != r and not scalar_is_zero(aug[i][c]):
                    a = aug[i][c]
                    aug[i] = [x - a * y for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        for i in range(r, len(aug)):
            if not scalar_is_zero(aug[i][-1]):
                return None
        solution = [0] * ncols
        for row_idx, c in enumerate(pivots):
            solution[c] = aug[row_idx][-1]
        return solution
    arr = np.array([[scalar_to_complex(x) for x in row] for row in matrix],
                   dtype=complex)
    vec = np.array([scalar_to_complex(b) for b in rhs], dtype=complex)
    sol, *_ = np.linalg.lstsq(arr, vec, rcond=None)
    if np.max(np.abs(arr @ sol - vec), initial=0.0) > max(tol, tol * np.max(np.abs(vec), initial=0.0)):
        return None
    from .scalars import ApproxComplex

    return [ApproxComplex(z) for z in sol]


@dataclass(frozen=True)
class GradedMatrixComplex:
    """Per-degree matrices D_k: degree k -> degree k+1, k = 0..n-1.

    D_n (into the zero group) is implicitly zero.  The defining invariant
    is that consecutive composites vanish; `validate` checks it and
    `cohomology_ranks` refuses families that fail it.
    """

    n: int
    matrices: tuple

    def __post_init__(self):
        if len(self.matrices) != self.n:
            raise ValueError("expected %d matrices D_0..D_%d" % (self.n, self.n - 1))

    def matrix(self, k: int):
        if 0 <= k < self.n:
            return self.matrices[k]
        return []

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        for k in range(self.n - 1):
            if not matrix_is_zero(matmul(self.matrices[k + 1], self.matrices[k]), tol):
                raise NotAComplexError(
                    "composite D_%d o D_%d is not zero" % (k + 1, k))


def koszul_complex(n: int, v: Sequence) -> GradedMatrixComplex:
    """The wedge-by-v family on the exterior algebra of rank n."""
    return GradedMatrixComplex(
        n, tuple(wedge_by_vector(n, v, k) for k in range(n)))


def cohomology_ranks(cx: GradedMatrixComplex, tol: float = DEFAULT_TOL):
    """Per-degree ranks C(n,k) - rank(D_k) - rank(D_(k-1)), k = 0..n."""
    cx.validate(tol)
    d_ranks = [rank(cx.matrix(k), tol) for k in range(cx.n)]
    out = []
    for k in range(cx.n + 1):
        above = d_ranks[k] if k < cx.n else 0
        below = d_ranks[k - 1] if k > 0 else 0
        out.append(comb(cx.n, k) - above - below)
    return out
