import cmath
import collections
import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from cftorus.discs import disc_eval, homotopy_class, solve_disc_through_point
from cftorus.exterior import cohomology_ranks, koszul_complex
from cftorus.floer import (
    HolonomyAssignment,
    HomotopyClass,
    RankTable,
    SpinStructure,
    WeightVector,
    brane_configs,
    evaluate_cell,
    floer_ranks_bruteforce,
    floer_ranks_closedform,
    spin_configs,
    standard_spin,
    weights,
)
from cftorus.maslov import winding_number
from cftorus.scalars import (
    ApproxComplex,
    prime_field,
    reduce_mod_p,
    root_of_unity,
    simplify_exact,
)
from reference import dense, matrix_is_zero, reference_matmul


# -- spin structures -----------------------------------------------------------

def test_spin_from_empty_subset_is_standard():
    assert SpinStructure.from_subset((), 3).eps == (1, 1, 1, 1)


def test_spin_all_twisted_needs_odd_n():
    assert SpinStructure.from_subset({1, 2, 3}, 3).eps == (-1, -1, -1, -1)
    # for even n the zeroth sign flips instead and the product stays 1
    assert SpinStructure.from_subset({1, 2}, 2).eps == (1, -1, -1)


def test_spin_product_constraint_forced():
    assert SpinStructure.from_subset({1}, 2).eps == (-1, -1, 1)


def test_spin_rejects_bad_vectors():
    with pytest.raises(ValueError):
        SpinStructure((1, 1, -1))
    with pytest.raises(ValueError):
        SpinStructure((2, 1, 1))
    with pytest.raises(ValueError):
        SpinStructure.from_subset({4}, 2)


def test_spin_label_bits():
    s = SpinStructure.from_subset({2}, 3)
    assert s.label_bits() == (0, 1, 0)
    assert s.twisted_subset == (2,)
    assert not s.is_standard()


# -- holonomies ----------------------------------------------------------------

def test_holonomy_h0_balances_the_product():
    hol = HolonomyAssignment.from_angles([Fraction(1, 3), Fraction(1, 4)])
    product = hol.h0
    for h in hol.h:
        product = product * h
    assert product == 1


def test_holonomy_trivial_entries():
    hol = HolonomyAssignment.trivial(3)
    assert hol.exact
    assert hol.entry_strings() == ["0/1", "0/1", "0/1"]


def test_holonomy_approx_requires_unit_modulus():
    with pytest.raises(ValueError):
        HolonomyAssignment.from_values([0.5 + 0j])
    hol = HolonomyAssignment.from_values([complex(0.6, 0.8)])
    assert not hol.exact
    assert abs(complex(hol.h0) * complex(hol.h[0]) - 1) < 1e-12


def test_holonomy_product_checked_at_the_callers_tolerance():
    one = ApproxComplex(1.0)
    off = ApproxComplex(1.0 + 1e-7)
    with pytest.raises(ValueError, match="must be 1 within 1e-09"):
        HolonomyAssignment([one], off)
    assert HolonomyAssignment([one], off, tol=1e-6).h0 == off


def test_every_approximate_holonomy_value_is_checked_for_unit_modulus():
    # a product of 1 does not make the factors units: h and h0 are each
    # checked, on the constructor and on from_values alike
    with pytest.raises(ValueError, match=r"holonomy \(2\+0j\) is not unit modulus within 1e-09"):
        HolonomyAssignment([ApproxComplex(2.0), ApproxComplex(0.5)], ApproxComplex(1.0))
    # four values each within tol of the circle, whose h0 = 1/product is not
    near = ApproxComplex(1 + 9e-10)
    with pytest.raises(ValueError, match=r"holonomy \(0\.99999999\d*\+0j\) is not unit"):
        HolonomyAssignment([near] * 4, ApproxComplex(1 / complex(near) ** 4))
    with pytest.raises(ValueError, match=r"holonomy \(0\.99999999\d*\+0j\) is not unit"):
        HolonomyAssignment.from_values([near] * 4)
    # a zero value is refused by name before h0 = 1/product is formed
    with pytest.raises(ValueError, match=r"holonomy 0j is not unit modulus within 1e-09"):
        HolonomyAssignment.from_values([1j, 0j])
    hol = HolonomyAssignment([ApproxComplex(-1.0), ApproxComplex(1j)], ApproxComplex(1j))
    assert evaluate_cell(standard_spin(2), hol).to_json_dict()["holonomy"] == \
        ["-1.0,0.0", "0.0,1.0"]


def test_exact_holonomies_are_built_from_their_angles_alone():
    # values passed beside the angles could disagree with them: h = (1, 1)
    # labelled 1/3, 0 once evaluated as a nonvanishing cell
    with pytest.raises(ValueError, match=r"h=\[1, 1\], h0=1"):
        HolonomyAssignment([1, 1], 1, angles=[Fraction(1, 3), Fraction(0)])
    with pytest.raises(ValueError, match="h=None, h0=None, angles=None"):
        HolonomyAssignment()
    with pytest.raises(ValueError, match=r"angles=\[Fraction\(0, 1\)\]"):
        HolonomyAssignment([ApproxComplex(1.0)], ApproxComplex(1.0),
                           angles=[Fraction(0)])
    with pytest.raises(ValueError, match=r"h0=None, angles=\[Fraction\(0, 1\)\]"):
        HolonomyAssignment([ApproxComplex(1.0)], angles=[Fraction(0)])
    with pytest.raises(ValueError, match=r"h0=None, angles=None"):
        HolonomyAssignment([ApproxComplex(1.0)])
    direct = HolonomyAssignment(angles=[Fraction(4, 3), Fraction(0)])
    assert direct.exact
    assert not HolonomyAssignment([ApproxComplex(1.0)], ApproxComplex(1.0)).exact
    built = HolonomyAssignment.from_angles([Fraction(1, 3), Fraction(0)])
    assert (direct.h, direct.h0, direct.angles) == (built.h, built.h0, built.angles)
    cell = evaluate_cell(standard_spin(2), direct)
    assert cell.to_json_dict()["holonomy"] == ["1/3", "0/1"]
    assert cell.table.by_lambda_degree == (0, 0, 0)


def test_value_route_refuses_exact_values():
    # an exact value taken on the (h, h0) route made an assignment that was
    # not exact, whose cell was ranked over F_p as exact weights yet
    # reported with "backend": "approx" and a holonomy entry "1*z3"
    z3 = root_of_unity(1, 3)
    for h, h0, named in (([1, 1], 1, "1"), ([z3, z3], z3, "1*z3"),
                         ([ApproxComplex(1.0)], Fraction(1), "1")):
        with pytest.raises(ValueError, match=r"^holonomy value %s is exact; .* from_angles$"
                           % re.escape(named)):
            HolonomyAssignment(h, h0)
    # from_values still converts numbers to the approximate backend
    hol = HolonomyAssignment.from_values([1, Fraction(1), z3])
    assert not hol.exact
    assert evaluate_cell(standard_spin(3), hol).to_json_dict()["backend"] == "approx"


def test_from_values_sweep_returns_a_unit_product_or_refuses():
    # seeded sweep over unit, near-unit and non-finite entries: each call
    # gives an assignment whose h_0 * h_1 * .. * h_n is 1 within tol, or
    # raises ValueError; no other exception escapes
    rng = random.Random(5)
    specials = [0, math.nan, math.inf, complex(math.inf, math.nan), 1e308]

    def entry():
        z = cmath.exp(2j * math.pi * rng.random())
        kind = rng.random()
        if kind < 0.5:
            return z
        if kind < 0.8:
            return z * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -3))
        return rng.choice(specials)

    outcomes = {"accepted": 0, "refused": 0}
    for _ in range(500):
        tol = rng.choice((1e-9, 1e-6, 1e-4))
        values = [entry() for _ in range(rng.randint(1, 4))]
        try:
            hol = HolonomyAssignment.from_values(values, tol)
        except ValueError:
            outcomes["refused"] += 1
            continue
        product = math.prod(map(complex, hol.with_h0()))
        assert abs(product - 1) <= tol, values
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 100, outcomes

# -- weights -------------------------------------------------------------------

def test_weights_standard_trivial_vanish():
    w = weights(standard_spin(4), HolonomyAssignment.trivial(4))
    assert w.c == (1, 1, 1, 1, 1)
    assert w.is_trivial()


def test_weights_all_twisted_trivial_vanish():
    w = weights(SpinStructure.from_subset({1, 2, 3}, 3), HolonomyAssignment.trivial(3))
    assert w.c == (-1, -1, -1, -1)
    assert w.is_trivial()


def test_weights_single_twist():
    w = weights(SpinStructure.from_subset({1}, 2), HolonomyAssignment.trivial(2))
    assert w.c == (-1, -1, 1)
    assert w.v == (0, 2)


def signed_product_weights(spin, holonomy):
    # the weights as once built, with c_j formed as the product eps_j * h_j
    hs = holonomy.with_h0()
    c = [simplify_exact(spin.eps[j] * hs[j]) for j in range(spin.n + 1)]
    v = [simplify_exact(c[j] - c[0]) for j in range(1, spin.n + 1)]
    return WeightVector(c, v)


@pytest.mark.parametrize("n", range(1, 5))
def test_weights_equal_the_signed_products(n):
    # c_j is built by flipping the sign of h_j; every spin structure, over
    # random exact and approximate holonomies, gives the product's values
    rng = random.Random("weights-%d" % n)
    holonomies = [HolonomyAssignment.trivial(n)]
    for _ in range(4):
        holonomies.append(HolonomyAssignment.from_angles(
            [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 6, 12]))
             for _ in range(n)]))
        holonomies.append(HolonomyAssignment.from_values(
            [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]))
    for hol in holonomies:
        for bits in range(1 << n):
            spin = SpinStructure.from_subset(
                [i + 1 for i in range(n) if bits >> i & 1], n)
            got, want = weights(spin, hol), signed_product_weights(spin, hol)
            assert got.exact == want.exact == hol.exact
            assert list(got.c) == list(want.c) and list(got.v) == list(want.v)
            if hol.exact:
                assert list(map(type, got.c + got.v)) == list(map(type, want.c + want.v))


@pytest.mark.parametrize("configs,n", [(spin_configs, 6), (brane_configs, 3)],
                         ids=["spin-6", "brane-3"])
def test_weights_are_exact_exactly_when_the_holonomy_is(configs, n):
    for spin, hol in configs(n):
        assert weights(spin, hol).exact is hol.exact is True
    rng = random.Random("exact-%d" % n)
    for _ in range(8):
        hol = HolonomyAssignment.from_values(
            [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)])
        assert weights(standard_spin(n), hol).exact is hol.exact is False


def test_weight_vector_reads_its_backend_from_its_entries():
    # a complex entry makes the vector approximate: its ranks come from the
    # SVD route, never from a reduction mod p of values it cannot reduce
    w = WeightVector([0, 0.5 + 0j, 0.25j], [0.5 + 0j, 0.25j])
    assert not w.exact
    assert floer_ranks_bruteforce(w).by_lambda_degree == (0, 0, 0)
    assert WeightVector.from_vector([0, Fraction(1, 2), root_of_unity(1, 3)]).exact
    assert not WeightVector.from_vector([0, ApproxComplex(0.5)]).exact


def test_weight_vector_trivial_iff_all_c_equal():
    rng = random.Random(55)
    for _ in range(50):
        c = [rng.choice([-1, 1]) for _ in range(4)]
        w = WeightVector(c, [cj - c[0] for cj in c[1:]])
        assert w.is_trivial() == (len(set(c)) == 1)


# -- rank tables -----------------------------------------------------------------

def test_bruteforce_ranks_trivial_weights():
    w = weights(standard_spin(2), HolonomyAssignment.trivial(2))
    assert floer_ranks_bruteforce(w).by_lambda_degree == (1, 2, 1)


def test_bruteforce_ranks_nontrivial_weights():
    w = WeightVector.from_vector([0, 2])
    table = floer_ranks_bruteforce(w)
    assert table.by_lambda_degree == (0, 0, 0)
    assert not table.nonvanishing


@pytest.mark.parametrize("configs,n", [(spin_configs, n) for n in range(1, 7)]
                         + [(brane_configs, n) for n in range(1, 4)],
                         ids=["spin-%d" % n for n in range(1, 7)]
                         + ["brane-%d" % n for n in range(1, 4)])
def test_prime_field_tables_equal_cyclotomic_tables(configs, n):
    # oracle: the same dense route with no modulus, in Q(zeta_m)
    for spin, hol in configs(n):
        w = weights(spin, hol)
        exact = cohomology_ranks(koszul_complex(list(w.v)))
        assert floer_ranks_bruteforce(w).by_lambda_degree == tuple(exact)


def test_bruteforce_refuses_a_weight_that_vanishes_mod_p():
    # v = (p) is a nonzero vector, so the exact table is zero; mod p it
    # would be the zero map with the binomial table
    p, _ = prime_field(2)
    assert cohomology_ranks(koszul_complex([p])) == [0, 0]
    with pytest.raises(ValueError, match="vanishes mod p"):
        floer_ranks_bruteforce(WeightVector.from_vector([p]))


def test_bruteforce_ranks_n1():
    assert floer_ranks_bruteforce(WeightVector.from_vector([0])).by_lambda_degree == (1, 1)


def test_closedform_brane_point_n4():
    hol = HolonomyAssignment.from_angles([Fraction(2, 5)] * 4)
    w = weights(standard_spin(4), hol)
    assert floer_ranks_closedform(w).by_lambda_degree == (1, 4, 6, 4, 1)


def test_closedform_generic_holonomy_vanishes():
    hol = HolonomyAssignment.from_values([complex(0.6, 0.8), 1.0 + 0j])
    w = weights(standard_spin(2), hol)
    assert floer_ranks_closedform(w).by_lambda_degree == (0, 0, 0)


def test_closedform_all_twisted_odd():
    w = weights(SpinStructure.from_subset({1, 2, 3}, 3), HolonomyAssignment.trivial(3))
    assert floer_ranks_closedform(w).by_lambda_degree == (1, 3, 3, 1)


def test_cochain_degree_relabeling():
    table = floer_ranks_bruteforce(WeightVector.from_vector([0, 0, 0]))
    assert table.by_lambda_degree == (1, 3, 3, 1)
    assert table.n == 3
    assert RankTable((1, 1)).n == 1
    assert table.by_cochain_degree == tuple(reversed(table.by_lambda_degree))


@pytest.mark.parametrize("n", range(1, 7))
def test_bruteforce_equals_closedform_on_random_weights(n):
    rng = random.Random(400 + n)
    for _ in range(8):
        if rng.random() < 0.3:
            v = [0] * n
        else:
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        w = WeightVector.from_vector(v)
        brute = floer_ranks_bruteforce(w)
        closed = floer_ranks_closedform(w)
        assert brute == closed


def test_spin_twist_equals_sign_holonomy():
    # a twisted structure with trivial holonomy matches the trivial
    # structure with holonomy entries equal to the twist signs
    for n in (2, 3, 4):
        for bits in range(1 << n):
            subset = {i + 1 for i in range(n) if bits >> i & 1}
            spin = SpinStructure.from_subset(subset, n)
            by_spin = floer_ranks_bruteforce(
                weights(spin, HolonomyAssignment.trivial(n)))
            angles = [Fraction(1, 2) if spin.eps[i] == -1 else Fraction(0)
                      for i in range(1, n + 1)]
            by_hol = floer_ranks_bruteforce(
                weights(standard_spin(n), HolonomyAssignment.from_angles(angles)))
            assert by_spin == by_hol


def test_spin_twist_cancels_against_half_turn_holonomy():
    # twisting spin and holonomy on the same generator multiplies the same
    # weight by -1 twice, so the pair lands back on the nonvanishing locus
    spin = SpinStructure.from_subset({1}, 2)
    hol = HolonomyAssignment.from_angles([Fraction(1, 2), Fraction(0)])
    w = weights(spin, hol)
    assert w.is_trivial()
    assert floer_ranks_bruteforce(w).by_lambda_degree == (1, 2, 1)


def test_rank_tables_invariant_under_common_unit_scaling():
    a = root_of_unity(1, 5)
    for n in (1, 2, 3):
        rng = random.Random(70 + n)
        for _ in range(5):
            ks = [rng.randint(0, 4) for _ in range(n)]
            hol = HolonomyAssignment.from_angles([Fraction(k, 5) for k in ks])
            w = weights(standard_spin(n), hol)
            scaled = WeightVector([a * c for c in w.c], [a * x for x in w.v])
            assert floer_ranks_bruteforce(w) == floer_ranks_bruteforce(scaled)


# -- homotopy classes ------------------------------------------------------------

def test_homotopy_class_boundary_elimination():
    assert HomotopyClass((0, 1, 0)).boundary == (1, 0)
    assert HomotopyClass((1, 1, 1)).boundary == (0, 0)
    assert HomotopyClass((2, 0, 0)).boundary == (-2, -2)


def test_homotopy_class_maslov_index_is_twice_the_count():
    assert HomotopyClass((1, 0, 0, 0)).maslov_index == 2
    assert HomotopyClass((2, 1, 0)).maslov_index == 6


@pytest.mark.parametrize("mu", [("a", 1), (None, 1), (True, 1), (1, 2.0), (0, -1)])
def test_homotopy_class_refuses_non_integer_counts_by_name(mu):
    bad = next(m for m in mu if type(m) is not int or m < 0)
    with pytest.raises(ValueError, match="got %s in" % re.escape(repr(bad))):
        HomotopyClass(mu)


# -- scans -----------------------------------------------------------------------

def spin_cells(n):
    return [evaluate_cell(spin, hol) for spin, hol in spin_configs(n)]


def brane_hits(n):
    # the holonomies of the nonvanishing cells of the brane enumeration
    return [hol for spin, hol in brane_configs(n)
            if evaluate_cell(spin, hol).table.nonvanishing]


def test_spin_scan_n2_only_standard_survives():
    hits = [c for c in spin_cells(2) if c.table.nonvanishing]
    assert len(hits) == 1 and hits[0].spin.is_standard()


def test_spin_scan_n3_standard_and_all_twisted():
    hits = {c.spin.eps for c in spin_cells(3) if c.table.nonvanishing}
    assert hits == {(1, 1, 1, 1), (-1, -1, -1, -1)}


def test_spin_scan_n1_both_structures_survive():
    assert sum(c.table.nonvanishing for c in spin_cells(1)) == 2


def test_brane_scan_small_counts():
    assert len(brane_hits(1)) == 2
    assert len(brane_hits(2)) == 3
    assert len(brane_hits(3)) == 4


def test_brane_scan_n1_values_are_plus_minus_one():
    as_angles = {hol.angles for hol in brane_hits(1)}
    assert as_angles == {(Fraction(0),), (Fraction(1, 2),)}


def test_brane_scan_hits_are_exactly_constant_tuples():
    for n in (2, 3):
        hits = brane_hits(n)
        assert len(hits) == n + 1
        for hol in hits:
            assert len(set(hol.angles)) == 1


def test_scan_cell_json_schema():
    cell = evaluate_cell(standard_spin(2), HolonomyAssignment.trivial(2))
    record = cell.to_json_dict()
    assert set(record) == {"n", "spin", "holonomy", "ranks_by_lambda_degree",
                           "ranks_by_cochain_degree", "nonvanishing", "backend"}
    assert record["backend"] == "exact"
    assert record["spin"] == [1, 1, 1]


def test_evaluate_cell_approx_backend_label():
    hol = HolonomyAssignment.from_values([1.0 + 0j, 1.0 + 0j])
    cell = evaluate_cell(standard_spin(2), hol)
    assert cell.backend == "approx"
    assert cell.table.by_lambda_degree == (1, 2, 1)
    assert cell.n == 2
    exact = evaluate_cell(SpinStructure.from_subset({1}, 3), HolonomyAssignment.trivial(3))
    assert (exact.n, exact.backend) == (3, "exact")


def angle_key_nonvanishing(spin, keys, q):
    # integer oracle: angle a_j = keys[j]/q with a_0 = -(a_1 + .. + a_n);
    # the cell survives when a_j + [eps_j = -1]/2 mod 1 is the same for
    # every j = 0..n
    all_keys = [-sum(keys), *keys]
    return len({(a + (q // 2 if e == -1 else 0)) % q
                for a, e in zip(all_keys, spin.eps)}) == 1


def disc_boundary_classes(n, rng):
    """[d_beta_0, .., d_beta_n], each wound off the boundary of a minimal disc.

    Each minimal disc passes through one seeded torus point; its class in
    H_1(T^n) is the winding of z_i/z_0 (i = 1..n) around the boundary,
    held to the class the disc's zero counts give.
    """
    target = [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
    circle = [cmath.exp(2j * math.pi * k / 32) for k in range(32)]
    classes = []
    for j in range(n + 1):
        d = solve_disc_through_point(j, target)
        points = [disc_eval(d, z) for z in circle]
        wound = tuple(winding_number([p[i] / p[0] for p in points])
                      for i in range(1, n + 1))
        assert wound == homotopy_class(d).boundary, (n, j)
        classes.append(wound)
    return classes


def disc_holonomies(hol, classes):
    """[(z_j, -z_j)] for j = 0..n, z_j = zeta^<theta, d_beta_j> in Q(zeta_q),
    theta the holonomy angles and q the lcm of their denominators."""
    q = math.lcm(*(t.denominator for t in hol.angles))
    keys = [t.numerator * (q // t.denominator) for t in hol.angles]
    roots = (root_of_unity(sum(t * k for t, k in zip(keys, b)), q) for b in classes)
    return [(z, -z) for z in roots]


def disc_weights(spin, holonomies, classes):
    """c_j = (-1)^<a, d_beta_j> z_j, a the spin's label bits: eps_0 and h_0
    come out of d_beta_0 rather than being put in."""
    a = spin.label_bits()
    return [pair[sum(x * k for x, k in zip(a, b)) % 2]
            for pair, b in zip(holonomies, classes)]


@pytest.mark.parametrize("n,cells,hits", [(1, 8, 4), (2, 144, 12), (3, 4096, 32)])
def test_mixed_spin_holonomy_grid_matches_the_angle_keys(n, cells, hits):
    # every spin structure against every angle tuple in (1/q)Z, q = 2(n+1):
    # this grid holds the cells no scan has, where a twist eps_j = -1 meets
    # a half-turn h_j = -1 and the two cancel.  The signs and holonomies
    # read off the discs give floer.weights on every cell, and the table
    # built from them alone, through koszul_complex, is evaluate_cell's
    q = 2 * (n + 1)
    classes = disc_boundary_classes(n, random.Random("disc-grid-%d" % n))
    spins = [SpinStructure.from_subset([i + 1 for i in range(n) if bits >> i & 1], n)
             for bits in range(1 << n)]
    seen = survivors = cancelling = 0
    for keys in itertools.product(range(q), repeat=n):
        hol = HolonomyAssignment.from_angles([Fraction(a, q) for a in keys])
        holonomies = disc_holonomies(hol, classes)
        for spin in spins:
            cell = evaluate_cell(spin, hol)
            c = disc_weights(spin, holonomies, classes)
            assert c == list(weights(spin, hol).c), (spin.eps, keys)
            # signed roots of unity stay distinct mod p, so the residues of
            # c_j - c_0 are differences of the residues of c
            p, r = reduce_mod_p(c)
            assert [x == r[0] for x in r] == [cj == c[0] for cj in c]
            v = [(x - r[0]) % p for x in r[1:]]
            assert tuple(cohomology_ranks(koszul_complex(v, p))) == \
                cell.table.by_lambda_degree
            want = angle_key_nonvanishing(spin, keys, q)
            assert cell.table.nonvanishing == want, (spin.eps, keys)
            assert cell.table.by_lambda_degree == (
                tuple(math.comb(n, k) for k in range(n + 1)) if want else (0,) * (n + 1))
            seen += 1
            survivors += want
            cancelling += want and any(
                e == -1 and 2 * a == q for e, a in zip(spin.eps[1:], keys))
    assert (seen, survivors) == (cells, hits) == (cells, 2 ** n * (n + 1))
    assert cancelling > 0


def _mixed_cells_at_lcm_720(rng, n):
    # (kind, spin, keys) with angles keys/720; each angle is drawn from a
    # random divisor of 720, so the lcm of the denominators divides 720
    q = 720
    divisors = [d for d in range(1, q + 1) if q % d == 0]

    def spin_of(bits):
        return SpinStructure.from_subset([i + 1 for i in range(n) if bits >> i & 1], n)

    def angle():
        d = rng.choice(divisors)
        return q // d * rng.randrange(d)

    def common_key(spin, m):
        # every a_j + [eps_j = -1]/2 equal to m/(n+1), the only common keys
        return [(m * q // (n + 1) - (q // 2 if e == -1 else 0)) % q
                for e in spin.eps[1:]]

    for i in range(4):
        # a twist eps_j = -1 met by a half-turn h_j = -1: at common key 0
        # every twist is met so, and the cell survives; else at one j
        spin = spin_of(rng.randrange(1, 1 << n))
        keys = common_key(spin, 0) if i % 2 else [angle() for _ in range(n)]
        keys[rng.choice(spin.twisted_subset) - 1] = q // 2
        yield "cancel", spin, keys
    for _ in range(4):
        spin = spin_of(rng.randrange(1 << n))
        yield "built", spin, common_key(spin, rng.randrange(n + 1))
    for _ in range(4):
        yield "random", spin_of(rng.randrange(1 << n)), [angle() for _ in range(n)]


@pytest.mark.parametrize("n", range(1, 5))
def test_seeded_mixed_sweep_at_lcm_720_matches_the_angle_keys(n):
    # the seeded half of the mixed guard: cancellations, cells built to
    # survive and random cells at the holonomy lcm cap, each decided by
    # evaluate_cell against the integer keys
    rng = random.Random("mixed-720-%d" % n)
    kinds = collections.Counter()
    for kind, spin, keys in _mixed_cells_at_lcm_720(rng, n):
        hol = HolonomyAssignment.from_angles([Fraction(a, 720) for a in keys])
        assert 720 % math.lcm(*(a.denominator for a in hol.angles)) == 0
        cell = evaluate_cell(spin, hol)
        want = angle_key_nonvanishing(spin, keys, 720)
        assert cell.table.nonvanishing == want, (kind, spin.eps, keys)
        assert cell.table.by_lambda_degree == (
            tuple(math.comb(n, k) for k in range(n + 1)) if want else (0,) * (n + 1))
        assert kind != "cancel" or any(
            e == -1 and a == 360 for e, a in zip(spin.eps[1:], keys))
        kinds[kind, want] += 1
    assert kinds["built", True] == 4 and kinds["random", False] > 0
    assert kinds["cancel", True] >= 2
    assert sum(kinds.values()) == 12


@pytest.mark.parametrize("n", range(1, 7))
def test_disc_derived_weights_on_seeded_exact_angles(n):
    rng = random.Random("disc-angles-%d" % n)
    classes = disc_boundary_classes(n, rng)
    divisors = [d for d in range(1, 721) if 720 % d == 0]
    for _ in range(20):
        spin = SpinStructure.from_subset(
            [i for i in range(1, n + 1) if rng.random() < 0.5], n)
        angles = [Fraction(rng.randrange(q), q)
                  for q in (rng.choice(divisors) for _ in range(n))]
        hol = HolonomyAssignment.from_angles(angles)
        c = disc_weights(spin, disc_holonomies(hol, classes), classes)
        assert c == list(weights(spin, hol).c), (spin.eps, angles)


def test_coboundary_complex_composites_vanish_for_unit_weights():
    hol = HolonomyAssignment.from_values([complex(0.28, 0.96), complex(0, 1)])
    w = weights(standard_spin(2), hol)
    cx = koszul_complex(w.v)
    for k in range(1):
        composite = reference_matmul(dense(cx.matrix(k + 1), 2), dense(cx.matrix(k), 1))
        assert matrix_is_zero(composite, tol=1e-12)


# -- value types -------------------------------------------------------------------

def _value_samples():
    exact = HolonomyAssignment.from_angles([Fraction(1, 3), Fraction(2, 5)])
    approx = HolonomyAssignment.from_values([complex(0.6, 0.8), -1j])
    return [
        root_of_unity(2, 5) + Fraction(1, 3),
        ApproxComplex(0.25, -1.5),
        exact,
        approx,
        weights(standard_spin(2), exact),
        evaluate_cell(standard_spin(2), exact),
    ]


@pytest.mark.parametrize("roundtrip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_value_types_roundtrip_and_stay_immutable(roundtrip):
    for value in _value_samples():
        clone = roundtrip(value)
        assert type(clone) is type(value)
        names = (["real", "imag"] if isinstance(value, ApproxComplex)
                 else [f.name for f in dataclasses.fields(value)])
        for name in names:
            got, want = getattr(clone, name), getattr(value, name)
            if isinstance(want, HolonomyAssignment):
                got, want = got.entry_strings(), want.entry_strings()
            assert got == want, (type(value).__name__, name)
        with pytest.raises(AttributeError):
            setattr(clone, names[0], None)
