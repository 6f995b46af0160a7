"""The abstract's last two claims, each held by an oracle that never uses
the rank formula.

* Hori's mirror prediction (Hori-Vafa, hep-th/0002222; Cho-Oh,
  math/0308225; Fukaya-Oh-Ohta-Ono, arXiv:0802.1703): a cell is
  nonvanishing exactly when (c_1, .., c_n), c_j = eps_j h_j, is a
  critical point of the superpotential W(y) = y_1 + .. + y_n +
  1/(y_1 .. y_n).  The critical points are counted by the Newton
  polytope, found by Newton's method and compared with c directly; the
  differences v_j = c_j - c_0 are never formed.
* The displacement corollary: a Hamiltonian image U(T^n) of the torus,
  U in U(n+1), meets T^n transversally in at least as many points as the
  nonvanishing table's total rank.  Those points solve
  |(U x)_j|^2 = |(U x)_0|^2 on T^n, x = (1, e^(i theta_1), ..); a map
  from the compact T^n to R^n has degree 0, so their signed count is 0,
  which catches a missed root.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from cftorus.floer import (
    HolonomyAssignment,
    brane_configs,
    evaluate_cell,
    floer_ranks_closedform,
    spin_configs,
    standard_spin,
    weights,
)


def kushnirenko_count(n):
    """n! vol of W's Newton simplex conv(e_1, .., e_n, -(1, .., 1)): the
    |det| of its edges from the last vertex, the rows of I + (all ones)."""
    return round(abs(np.linalg.det(np.eye(n) + 1)))


@lru_cache(maxsize=None)
def critical_points(n):
    """The distinct critical points of W in (C*)^n, by Newton's method on
    y_j dW/dy_j = y_j - 1/(y_1 .. y_n) in log coordinates y = exp(u)."""
    rng = np.random.default_rng(n)
    seeds = 16 * (n + 1)
    u = rng.normal(0, 0.5, (seeds, n)) + 1j * rng.uniform(-math.pi, math.pi, (seeds, n))
    for _ in range(40):
        y, t = np.exp(u), np.exp(-u.sum(axis=1))
        jac = np.einsum("sj,jk->sjk", y, np.eye(n)) + t[:, None, None]
        step = np.einsum("sjk,sk->sj", np.linalg.pinv(jac), y - t[:, None])
        # damped: no coordinate moves by more than 1/2 per step
        u = u - step / np.maximum(1, 2 * abs(step).max(axis=1))[:, None]
    y, t = np.exp(u), np.exp(-u.sum(axis=1))
    done = abs(y - t[:, None]).max(axis=1) < 1e-12
    found = []
    for point in y[done]:
        if all(abs(point - q).max() > 1e-6 for q in found):
            found.append(point)
    return tuple(found)


def mirror_nonvanishing(spin, holonomy, tol=1e-9):
    c = np.array([e * complex(h) for e, h in zip(spin.eps[1:], holonomy.h)])
    return any(abs(c - y).max() < tol for y in critical_points(spin.n))


@pytest.mark.parametrize("n", range(1, 9))
def test_superpotential_has_its_kushnirenko_count_of_critical_points(n):
    assert kushnirenko_count(n) == n + 1
    assert len(critical_points(n)) == kushnirenko_count(n)


def _mixed_grid():
    # every spin structure against every angle tuple in (1/q)Z, q = 2(n+1)
    for n in range(1, 4):
        q = 2 * (n + 1)
        holonomies = [HolonomyAssignment.from_angles([Fraction(a, q) for a in keys])
                      for keys in itertools.product(range(q), repeat=n)]
        for spin, _ in spin_configs(n):
            for hol in holonomies:
                yield spin, hol


def _random_holonomies():
    # test_closedform_generic_holonomy_vanishes's holonomy, then the seeded
    # unit draws of acceptance criterion 3, non-generic ones skipped alike
    yield standard_spin(2), HolonomyAssignment.from_values([complex(0.6, 0.8), 1.0 + 0j])
    rng = random.Random(2024)
    for n in range(1, 5):
        produced = 0
        while produced < 100:
            hol = HolonomyAssignment.from_values(
                [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)])
            if not weights(standard_spin(n), hol).is_trivial(1e-9):
                produced += 1
                yield standard_spin(n), hol


#: family -> (its cells, how many of them are nonvanishing)
MIRROR_FAMILIES = {
    "brane n <= 4": (lambda: (c for n in range(1, 5) for c in brane_configs(n)), 14),
    "spin n <= 8": (lambda: (c for n in range(1, 9) for c in spin_configs(n)), 12),
    "mixed grid n <= 3": (_mixed_grid, 48),
    "random holonomies": (_random_holonomies, 0),
}


def test_mirror_prediction_matches_evaluate_cell():
    # the critical-point search included, all of it within 5 s
    critical_points.cache_clear()
    start = time.perf_counter()
    for family, (cells, hits) in MIRROR_FAMILIES.items():
        seen = []
        for spin, hol in cells():
            want = mirror_nonvanishing(spin, hol)
            assert evaluate_cell(spin, hol).table.nonvanishing == want, (family, spin.eps, hol)
            seen.append(want)
        assert sum(seen) == hits, (family, len(seen), sum(seen))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "mirror oracle took %.2f s" % elapsed


# -- the displacement corollary --------------------------------------------------

def haar_unitary(rng, m):
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def displacement_map(u, theta):
    """F_j = |(U x)_j|^2 - |(U x)_0|^2 (j = 1..n) and its Jacobian, for a
    stack of angle vectors theta of shape (S, n)."""
    x = np.concatenate([np.ones((len(theta), 1)), np.exp(1j * theta)], axis=1)
    w = x @ u.T
    # d|w_i|^2 / d theta_k = -2 Im(conj(w_i) U_ik x_k)
    grad = -2 * np.imag(w.conj()[:, :, None] * u[None, :, 1:] * x[:, None, 1:])
    mod = abs(w) ** 2
    return mod[:, 1:] - mod[:, :1], grad[:, 1:] - grad[:, :1]


def intersection_points(u, per_axis):
    """The distinct roots of the displacement map on T^n, by damped Newton
    from a per_axis^n grid, each with its det J."""
    n = len(u) - 1
    axis = 2 * math.pi * (np.arange(per_axis) + 0.5) / per_axis
    theta = np.array(list(itertools.product(axis, repeat=n)))
    for _ in range(60):
        f, jac = displacement_map(u, theta)
        step = np.einsum("sjk,sk->sj", np.linalg.pinv(jac), f)
        theta = theta - np.clip(step, -0.5, 0.5)
    f, jac = displacement_map(u, theta)
    roots = []
    for t, ok, det in zip(theta % (2 * math.pi), abs(f).max(axis=1) < 1e-12,
                          np.linalg.det(jac)):
        if ok and all(abs((t - s + math.pi) % (2 * math.pi) - math.pi).max() > 1e-6
                      for s, _ in roots):
            roots.append((t, det))
    return roots


#: n -> (Haar seeds, grid points per axis); all of them within 10 s
DISPLACEMENT_CASES = {1: (range(8), 64), 2: (range(6), 24), 3: (range(4), 12)}


def test_displacement_meets_the_torus_in_at_least_the_total_rank():
    start = time.perf_counter()
    for n, (seeds, per_axis) in DISPLACEMENT_CASES.items():
        table = floer_ranks_closedform(weights(standard_spin(n),
                                               HolonomyAssignment.trivial(n)))
        total = sum(table.by_lambda_degree)
        for seed in seeds:
            roots = intersection_points(haar_unitary(np.random.default_rng(seed), n + 1),
                                        per_axis)
            transverse = [det for _, det in roots if abs(det) > 1e-6]
            assert len(transverse) == len(roots) >= total, (n, seed, len(roots), total)
            assert sum(np.sign(transverse)) == 0, (n, seed, np.sign(transverse))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "displacement roots took %.2f s" % elapsed
