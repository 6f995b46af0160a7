"""Reference routines the tests compare the library against.

Each is the plain textbook form of something the library computes a
faster way, kept here so that a test has an independent route to the
same answer.
"""

import numpy as np

from cftorus.scalars import DEFAULT_TOL, scalar_is_zero


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
