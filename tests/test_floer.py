import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from cftorus.exterior import ExteriorClass, index_sets, matmul, matrix_is_zero
from cftorus.floer import (
    FullDifferential,
    HolonomyAssignment,
    HomotopyClass,
    NovikovCochain,
    SpinStructure,
    WeightVector,
    brane_scan,
    delta2,
    dimension_deficit,
    evaluate_cell,
    floer_coboundary_complex,
    floer_ranks_bruteforce,
    floer_ranks_closedform,
    full_differential,
    spin_scan,
    standard_spin,
    weights,
)
from cftorus.scalars import ApproxComplex, root_of_unity


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


# -- the coboundary ------------------------------------------------------------

def test_delta2_kills_point_class_when_weights_vanish():
    w = weights(standard_spin(2), HolonomyAssignment.trivial(2))
    assert delta2(ExteriorClass.unit(2), w).is_zero()


def test_delta2_point_class_exact_cyclotomic_example():
    # h = (1, a) with a the primitive cube root: the derived zeroth
    # holonomy is a^2 and the image is (1-a^2) L_1 + (a-a^2) L_2
    a = root_of_unity(1, 3)
    hol = HolonomyAssignment.from_angles([Fraction(0), Fraction(1, 3)])
    w = weights(standard_spin(2), hol)
    out = delta2(ExteriorClass.unit(2), w)
    assert not out.is_zero()
    assert out.coefficient((1,)) == 1 - a * a
    assert out.coefficient((2,)) == a - a * a


def test_delta2_on_generator_picks_up_insertion_sign():
    w = WeightVector.from_vector([0, Fraction(5)])
    out = delta2(ExteriorClass.generator(2, 1), w)
    assert out.coefficient((1, 2)) == -5


def test_delta2_carries_global_parity_sign():
    # odd n flips every printed coefficient; ranks never see it
    out = delta2(ExteriorClass.unit(3), WeightVector.from_vector([2, 0, 0]))
    assert out.coefficient((1,)) == -2


def test_weight_vector_trivial_iff_all_c_equal():
    rng = random.Random(55)
    for _ in range(50):
        c = [rng.choice([-1, 1]) for _ in range(4)]
        w = WeightVector(c, [cj - c[0] for cj in c[1:]])
        assert w.is_trivial() == (len(set(c)) == 1)


def test_delta2_squares_to_zero_on_all_basis_classes():
    rng = random.Random(23)
    for n in range(1, 5):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        w = WeightVector.from_vector(v)
        for k in range(n + 1):
            for I in index_sets(n, k):
                x = ExteriorClass(n, {I: 1})
                assert delta2(delta2(x, w), w).is_zero()


def test_delta2_rank_mismatch_rejected():
    w = WeightVector.from_vector([1])
    with pytest.raises(ValueError):
        delta2(ExteriorClass.unit(2), w)


@pytest.mark.parametrize("n", range(1, 5))
def test_delta2_matches_alternating_removal_expansion(n):
    # independent oracle: the J-coefficient of the image of sum A_I L_I is
    # (-1)^n sum_s (-1)^(s-1) v_(j_s) A_(J minus its s-th member)
    rng = random.Random(600 + n)
    for _ in range(5):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        w = WeightVector.from_vector(v)
        for k in range(n):
            coeffs = {I: Fraction(rng.randint(-4, 4)) for I in index_sets(n, k)}
            image = delta2(ExteriorClass(n, coeffs), w)
            for J in index_sets(n, k + 1):
                expected = Fraction(0)
                for s, j in enumerate(J):
                    removed = J[:s] + J[s + 1:]
                    expected += (-1) ** s * v[j - 1] * coeffs.get(removed, 0)
                assert image.coefficient(J) == (-1) ** n * expected


# -- rank tables -----------------------------------------------------------------

def test_bruteforce_ranks_trivial_weights():
    w = weights(standard_spin(2), HolonomyAssignment.trivial(2))
    assert floer_ranks_bruteforce(2, w).by_lambda_degree == (1, 2, 1)


def test_bruteforce_ranks_nontrivial_weights():
    w = WeightVector.from_vector([0, 2])
    table = floer_ranks_bruteforce(2, w)
    assert table.by_lambda_degree == (0, 0, 0)
    assert not table.nonvanishing


def test_bruteforce_ranks_n1():
    assert floer_ranks_bruteforce(1, WeightVector.from_vector([0])).by_lambda_degree == (1, 1)


def test_closedform_brane_point_n4():
    hol = HolonomyAssignment.from_angles([Fraction(2, 5)] * 4)
    w = weights(standard_spin(4), hol)
    assert floer_ranks_closedform(4, w).by_lambda_degree == (1, 4, 6, 4, 1)


def test_closedform_generic_holonomy_vanishes():
    hol = HolonomyAssignment.from_values([complex(0.6, 0.8), 1.0 + 0j])
    w = weights(standard_spin(2), hol)
    assert floer_ranks_closedform(2, w).by_lambda_degree == (0, 0, 0)


def test_closedform_all_twisted_odd():
    w = weights(SpinStructure.from_subset({1, 2, 3}, 3), HolonomyAssignment.trivial(3))
    assert floer_ranks_closedform(3, w).by_lambda_degree == (1, 3, 3, 1)


def test_cochain_degree_relabeling():
    table = floer_ranks_bruteforce(3, WeightVector.from_vector([0, 0, 0]))
    assert table.by_lambda_degree == (1, 3, 3, 1)
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
        brute = floer_ranks_bruteforce(n, w)
        closed = floer_ranks_closedform(n, w)
        assert brute == closed


def test_spin_twist_equals_sign_holonomy():
    # a twisted structure with trivial holonomy matches the trivial
    # structure with holonomy entries equal to the twist signs
    for n in (2, 3, 4):
        for bits in range(1 << n):
            subset = {i + 1 for i in range(n) if bits >> i & 1}
            spin = SpinStructure.from_subset(subset, n)
            by_spin = floer_ranks_bruteforce(
                n, weights(spin, HolonomyAssignment.trivial(n)))
            angles = [Fraction(1, 2) if spin.eps[i] == -1 else Fraction(0)
                      for i in range(1, n + 1)]
            by_hol = floer_ranks_bruteforce(
                n, weights(standard_spin(n), HolonomyAssignment.from_angles(angles)))
            assert by_spin == by_hol


def test_spin_twist_cancels_against_half_turn_holonomy():
    # twisting spin and holonomy on the same generator multiplies the same
    # weight by -1 twice, so the pair lands back on the nonvanishing locus
    spin = SpinStructure.from_subset({1}, 2)
    hol = HolonomyAssignment.from_angles([Fraction(1, 2), Fraction(0)])
    w = weights(spin, hol)
    assert w.is_trivial()
    assert floer_ranks_bruteforce(2, w).by_lambda_degree == (1, 2, 1)


def test_rank_tables_invariant_under_common_unit_scaling():
    a = root_of_unity(1, 5)
    for n in (1, 2, 3):
        rng = random.Random(70 + n)
        for _ in range(5):
            ks = [rng.randint(0, 4) for _ in range(n)]
            hol = HolonomyAssignment.from_angles([Fraction(k, 5) for k in ks])
            w = weights(standard_spin(n), hol)
            scaled = WeightVector([a * c for c in w.c], [a * x for x in w.v])
            assert floer_ranks_bruteforce(n, w) == floer_ranks_bruteforce(n, scaled)


# -- homotopy classes and the full operator ----------------------------------

def test_dimension_deficit_minimal_class_contributes():
    beta0 = HomotopyClass((1, 0, 0, 0))
    assert beta0.maslov_index == 2
    assert dimension_deficit(beta0) == 0


def test_dimension_deficit_split_class():
    assert dimension_deficit(HomotopyClass((1, 1, 0, 0))) == 1


def test_dimension_deficit_double_cover_class():
    assert dimension_deficit(HomotopyClass((2, 0, 0))) == 2


def test_dimension_deficit_rejects_zero_class():
    with pytest.raises(ValueError):
        dimension_deficit(HomotopyClass((0, 0)))


def test_homotopy_class_boundary_elimination():
    assert HomotopyClass((0, 1, 0)).boundary == (1, 0)
    assert HomotopyClass((1, 1, 1)).boundary == (0, 0)
    assert HomotopyClass((2, 0, 0)).boundary == (-2, -2)


def test_full_differential_zero_operator_for_trivial_weights():
    w = weights(standard_spin(2), HolonomyAssignment.trivial(2))
    op = full_differential(2, w)
    assert op.is_zero_operator()
    assert op.apply_class(ExteriorClass.unit(2)).is_zero()


def test_full_differential_square_zero_and_e_exponent():
    w = WeightVector.from_vector([0, 2])
    op = full_differential(2, w)
    assert not op.is_zero_operator()
    assert FullDifferential.e_exponent == 1
    image = op.apply_class(ExteriorClass.unit(2))
    assert set(image.parts) == {1}
    assert op.apply(image).is_zero()


def test_full_differential_shifts_exponent_by_one():
    w = WeightVector.from_vector([1, 0, 0])
    op = full_differential(3, w)
    start = NovikovCochain.from_class(ExteriorClass.generator(3, 2), exp=2)
    out = op.apply(start)
    assert set(out.parts) == {3}


# -- scans -----------------------------------------------------------------------

def test_spin_scan_n2_only_standard_survives():
    hits = [c for c in spin_scan(2) if c.table.nonvanishing]
    assert len(hits) == 1 and hits[0].spin.is_standard()


def test_spin_scan_n3_standard_and_all_twisted():
    hits = {c.spin.eps for c in spin_scan(3) if c.table.nonvanishing}
    assert hits == {(1, 1, 1, 1), (-1, -1, -1, -1)}


def test_spin_scan_n1_both_structures_survive():
    assert sum(c.table.nonvanishing for c in spin_scan(1)) == 2


def test_brane_scan_small_counts():
    assert len(brane_scan(1)) == 2
    assert len(brane_scan(2)) == 3
    assert len(brane_scan(3)) == 4


def test_brane_scan_n1_values_are_plus_minus_one():
    as_angles = {hol.angles for hol in brane_scan(1)}
    assert as_angles == {(Fraction(0),), (Fraction(1, 2),)}


def test_brane_scan_hits_are_exactly_constant_tuples():
    for n in (2, 3):
        hits = brane_scan(n)
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


def test_coboundary_complex_composites_vanish_for_unit_weights():
    hol = HolonomyAssignment.from_values([complex(0.28, 0.96), complex(0, 1)])
    w = weights(standard_spin(2), hol)
    cx = floer_coboundary_complex(2, w)
    for k in range(1):
        assert matrix_is_zero(matmul(cx.matrix(k + 1), cx.matrix(k)), tol=1e-12)


# -- value types -------------------------------------------------------------------

def _value_samples():
    exact = HolonomyAssignment.from_angles([Fraction(1, 3), Fraction(2, 5)])
    approx = HolonomyAssignment.from_values([complex(0.6, 0.8), -1j])
    return [
        root_of_unity(2, 5) + Fraction(1, 3),
        ApproxComplex(0.25, -1.5),
        ExteriorClass(2, {(1,): root_of_unity(1, 3), (1, 2): Fraction(-2)}),
        exact,
        approx,
        weights(standard_spin(2), exact),
        NovikovCochain.from_class(ExteriorClass.generator(2, 1), 3),
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
