"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``) and
enforces its stated tolerance and runtime budget.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from math import comb

from cftorus.discs import disc_eval, maslov_index, random_disc, solve_disc_through_point
from cftorus.exterior import koszul_complex, rank, scalar_to_complex
from cftorus.floer import (
    HolonomyAssignment,
    brane_configs,
    evaluate_cell,
    floer_ranks_bruteforce,
    spin_configs,
    standard_spin,
    weights,
)
from cftorus.maslov import disc_boundary_maslov
from cftorus.oracle import koszul_rescale_check
from cftorus.scalars import ApproxComplex, root_of_unity
from cftorus.signs import boundary_fibre_signs, squarezero_chain
from reference import dense, reference_matmul


def _report(label, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print("FAIL %s" % label)
        raise
    elapsed = time.perf_counter() - start
    print("PASS %s (%.2f s)" % (label, elapsed))
    assert elapsed < budget_seconds, (
        "%s exceeded its %.0f s budget: %.2f s" % (label, budget_seconds, elapsed))


def test_criterion_1_spin_dichotomy():
    def body():
        for n in range(1, 7):
            cells = [evaluate_cell(spin, hol) for spin, hol in spin_configs(n)]
            assert len(cells) == 2 ** n
            hits = [c for c in cells if c.table.nonvanishing]
            if n % 2 == 0:
                assert len(hits) == 1
                assert hits[0].spin.is_standard()
            else:
                assert len(hits) == 2
                assert {h.spin.eps for h in hits} == {
                    tuple([1] * (n + 1)), tuple([-1] * (n + 1))}
            binomials = tuple(comb(n, k) for k in range(n + 1))
            for cell in hits:
                assert cell.backend == "exact"
                assert cell.table.by_lambda_degree == binomials

    _report("1. spin dichotomy (n = 1..6, trivial holonomy)", 10.0, body)


def test_criterion_2_brane_count():
    def body():
        for n in range(1, 5):
            total = 0
            hits = []
            for spin, hol in brane_configs(n):
                cell = evaluate_cell(spin, hol)
                total += 1
                assert cell.backend == "exact"
                if cell.table.nonvanishing:
                    hits.append(cell)
            assert total == (n + 1) ** n
            assert len(hits) == n + 1
            constants = {tuple([Fraction(k, n + 1)] * n) for k in range(n + 1)}
            assert {cell.holonomy.angles for cell in hits} == constants

    _report("2. brane count (n = 1..4, all root-of-unity tuples)", 60.0, body)


def test_criterion_3_generic_vanishing():
    def body():
        rng = random.Random(2024)
        zero_tables = 0
        for n in range(1, 5):
            spin = standard_spin(n)
            produced = 0
            while produced < 100:
                values = [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
                hol = HolonomyAssignment.from_values(values, tol=1e-9)
                w = weights(spin, hol)
                if w.is_trivial(1e-9):  # all c_j equal; not a generic draw
                    continue
                produced += 1
                table = floer_ranks_bruteforce(w, tol=1e-9)
                assert table.by_lambda_degree == (0,) * (n + 1)
                zero_tables += 1
        assert zero_tables == 400

    _report("3. generic vanishing (100 random tuples per n = 1..4)", 5.0, body)


def test_criterion_4_maslov_cross_check():
    def body():
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_disc(rng, n, max_degree=4, chart0=True)
            assert disc_boundary_maslov(d, tol=1e-9) == maslov_index(d)

    _report("4. Maslov cross-check (200 random discs, mu_0 = 0)", 30.0, body)


def test_criterion_5_coboundary_squares_to_zero():
    def body():
        rng = random.Random(99)
        for n in range(1, 7):
            for _ in range(50):
                v_exact = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(n)]
                cx = koszul_complex(v_exact)
                for k in range(n - 1):
                    composite = reference_matmul(dense(cx.matrix(k + 1), comb(n, k + 1)),
                                                 dense(cx.matrix(k), comb(n, k)))
                    assert all(x == 0 for row in composite for x in row)
                v_approx = [ApproxComplex(cmath.exp(2j * math.pi * rng.random()) - 1)
                            for _ in range(n)]
                cx = koszul_complex(v_approx)
                for k in range(n - 1):
                    composite = reference_matmul(dense(cx.matrix(k + 1), comb(n, k + 1)),
                                                 dense(cx.matrix(k), comb(n, k)))
                    assert all(abs(scalar_to_complex(x)) < 1e-12
                               for row in composite for x in row)

    _report("5. coboundary squares to zero (50 weight vectors per n <= 6)", 60.0, body)


def test_criterion_6_oracle_equivalence():
    def body():
        rng = random.Random(123)
        for n in range(1, 6):
            for trial in range(50):
                if trial % 5 == 0:
                    q = rng.randint(2, 8)
                    v = [root_of_unity(rng.randint(1, q - 1), q) - 1
                         for _ in range(n)]
                else:
                    v = [Fraction(rng.choice([x for x in range(-4, 5) if x]),
                                  rng.randint(1, 3)) for _ in range(n)]
                assert koszul_rescale_check(v)
                cx = koszul_complex(v)
                for k in range(n):
                    assert rank(cx.matrix(k)) == comb(n - 1, k)

    _report("6. oracle equivalence (rescale + ranks, n <= 5)", 60.0, body)


def test_criterion_7_sign_conventions():
    def body():
        for x in range(6):
            for l in range(6):
                first, second = boundary_fibre_signs(x, l)
                assert (first, second) == (1, (-1) ** (x + l))
        for n in range(1, 7):
            for mu in range(2, 11, 2):
                assert squarezero_chain(n, mu) == (-1, -1)

    _report("7. sign conventions (boundary splitting + square-zero chain)", 10.0, body)


def test_criterion_8_evaluation_bijectivity_witness():
    def body():
        rng = random.Random(314)
        for n in range(1, 4):
            for class_index in range(n + 1):
                seen = set()
                for _ in range(100):
                    target = [cmath.exp(2j * math.pi * rng.random())
                              for _ in range(n)]
                    d = solve_disc_through_point(class_index, target, tol=1e-9)
                    got = disc_eval(d, 1.0)
                    normalized = [g / got[0] for g in got[1:]]
                    assert max(abs(a - b) for a, b in
                               zip(normalized, target)) < 1e-9
                    key = tuple(round(c.theta, 10) for c in d.components)
                    assert key not in seen
                    seen.add(key)

    _report("8. evaluation bijectivity witness (100 targets, n <= 3)", 30.0, body)
