"""Reference routines the tests compare the library against.

Each is the plain textbook form of something the library computes a
faster way, kept here so that a test has an independent route to the
same answer.
"""

import numpy as np

from cftorus.exterior import _basis_positions, index_sets
from cftorus.scalars import DEFAULT_TOL, scalar_is_zero, scalar_to_complex


def insert_sign(j, I, n=None):
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


def dense(rows, ncols):
    """The row-major list of lists of {column: entry} rows, int 0 where a
    row stores no entry."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def rows_of(matrix):
    """The {column: entry} rows of a row-major list of lists, over its
    nonzero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def reference_matmul(a, b):
    # the textbook triple sum over every term, zeros included, left to right
    out = []
    for row in a:
        out.append([])
        for col in range(len(b[0])):
            acc = 0
            for i in range(len(b)):
                acc = acc + row[i] * b[i][col]
            out[-1].append(acc)
    return out


def matrix_is_zero(matrix, tol=DEFAULT_TOL):
    return all(scalar_is_zero(x, tol) for row in matrix for x in row)


def disc_eval_boundary(d, num):
    """(n+1) x num numpy array of the disc's coordinate values at num
    equispaced boundary points."""
    z = np.exp(2j * np.pi * np.arange(num) / num)
    return np.array([c.eval_many(z) for c in d.components], dtype=complex)


def reference_wedge_by_vector(n, v, k):
    """The wedge-by-v matrix from degree k to k+1, one insert_sign call per
    (generator, column) pair."""
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


def reference_rank_svd(matrix, tol):
    """Singular-value rank of an array built by converting every entry."""
    arr = np.array([[scalar_to_complex(x) for x in row] for row in matrix],
                   dtype=complex)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] <= tol:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def _kept(terms):
    # a class keeps only the terms that are nonzero at the default tolerance
    return {I: c for I, c in terms.items() if not scalar_is_zero(c, DEFAULT_TOL)}


def reference_delta2(terms, v, tol=DEFAULT_TOL):
    """The terms of (-1)^n (v_1 L_1 + .. + v_n L_n) ^ x, x given by its
    terms and n = len(v): one generator at a time through insert_sign,
    skipping the weights zero at tol, with a class's arithmetic (terms
    zero at the default tolerance dropped after every sum and product)."""
    n = len(v)
    acc = {}
    for j, vj in enumerate(v, 1):
        if scalar_is_zero(vj, tol):
            continue
        wedged = {}
        for I, c in terms.items():
            sign, J = insert_sign(j, I, n)
            if sign:
                wedged[J] = wedged[J] + sign * c if J in wedged else sign * c
        for J, c in _kept({J: vj * c for J, c in _kept(wedged).items()}).items():
            acc[J] = acc[J] + c if J in acc else c
        acc = _kept(acc)
    return _kept({J: (-1) ** n * c for J, c in acc.items()})
