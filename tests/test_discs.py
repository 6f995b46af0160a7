import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from cftorus.discs import (
    BlaschkeComponent,
    BlaschkeDisc,
    BlaschkeFactor,
    DegenerateDiscError,
    MoebiusMap,
    disc_eval,
    disc_from_json_dict,
    disc_make,
    disc_to_json_dict,
    homotopy_class,
    maslov_index,
    psl2_act,
    random_disc,
    solve_disc_through_point,
)
from reference import disc_eval_boundary


def standard_disc(i, n):
    """[1 : .. : z : .. : 1] with the moving coordinate at slot i."""
    comps = [BlaschkeComponent(0.0, (BlaschkeFactor(0j),) if j == i else ())
             for j in range(n + 1)]
    return disc_make(comps)


def test_standard_disc_is_valid():
    d = standard_disc(1, 3)
    assert d.mu == (0, 1, 0, 0)


def test_shared_zero_is_degenerate():
    z = (BlaschkeFactor(0j),)
    comps = [BlaschkeComponent(0.0, z), BlaschkeComponent(0.0, z),
             BlaschkeComponent()]
    with pytest.raises(DegenerateDiscError):
        disc_make(comps)


def test_disjoint_zeros_are_fine():
    comps = [BlaschkeComponent(0.0, (BlaschkeFactor(0j),)),
             BlaschkeComponent(0.0, (BlaschkeFactor(0.5 + 0j),)),
             BlaschkeComponent()]
    d = disc_make(comps)
    assert homotopy_class(d).mu == (1, 1, 0)


def test_boundary_zero_rejected():
    with pytest.raises(ValueError):
        BlaschkeFactor(1.0 + 0j)


def test_exact_zero_comparison():
    f = BlaschkeFactor.from_rational(Fraction(1, 2), 0)
    g = BlaschkeFactor.from_rational(Fraction(1, 2), 0)
    h = BlaschkeFactor.from_rational(Fraction(1, 3), 0)
    assert f.same_zero(g, tol=0.0)
    assert not f.same_zero(h, tol=0.0)


def test_disc_eval_at_one_and_i():
    b1 = standard_disc(1, 3)
    assert disc_eval(b1, 1.0) == (1, 1, 1, 1)
    at_i = disc_eval(b1, 1j)
    assert at_i[1] == 1j
    assert all(abs(abs(x) - 1) < 1e-12 for x in at_i)


def test_disc_eval_moved_zero_keeps_unit_boundary():
    alpha = 0.4 + 0.3j
    comps = [BlaschkeComponent(0.0, (BlaschkeFactor(alpha),)),
             BlaschkeComponent(0.7), BlaschkeComponent(2.1)]
    d = disc_make(comps)
    for t in (0.0, 0.25, 0.8):
        z = cmath.exp(2j * math.pi * t)
        assert all(abs(abs(x) - 1) < 1e-12 for x in disc_eval(d, z))


def test_disc_eval_rejects_outside_points():
    with pytest.raises(ValueError):
        disc_eval(standard_disc(0, 2), 2.0 + 0j)


def test_boundary_samples_all_unit_modulus():
    rng = random.Random(9)
    for _ in range(20):
        d = random_disc(rng, rng.randint(1, 4), max_degree=3)
        values = disc_eval_boundary(d, 64)
        assert (abs(abs(values) - 1.0) < 1e-9).all()


def test_maslov_index_counts_factors_twice():
    assert maslov_index(standard_disc(2, 3)) == 2
    constant = disc_make([BlaschkeComponent(0.3), BlaschkeComponent(1.1)])
    assert maslov_index(constant) == 0
    double = disc_make([
        BlaschkeComponent(0.0, (BlaschkeFactor(0j), BlaschkeFactor(0j))),
        BlaschkeComponent(), BlaschkeComponent()])
    assert maslov_index(double) == 4


def test_homotopy_class_boundary_vectors():
    assert homotopy_class(standard_disc(1, 3)).boundary == (1, 0, 0)
    balanced = disc_make([
        BlaschkeComponent(0.0, (BlaschkeFactor(0j),)),
        BlaschkeComponent(0.0, (BlaschkeFactor(0.5 + 0j),)),
        BlaschkeComponent(0.0, (BlaschkeFactor(-0.5 + 0j),))])
    assert homotopy_class(balanced).boundary == (0, 0)
    double = disc_make([
        BlaschkeComponent(0.0, (BlaschkeFactor(0.1j), BlaschkeFactor(-0.1j))),
        BlaschkeComponent(), BlaschkeComponent()])
    assert homotopy_class(double).boundary == (-2, -2)


def test_boundary_additive_under_factor_concatenation():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(1, 3)
        d1 = random_disc(rng, n, max_degree=2)
        d2 = random_disc(rng, n, max_degree=2)
        merged_comps = []
        for c1, c2 in zip(d1.components, d2.components):
            merged_comps.append(BlaschkeComponent(
                c1.theta + c2.theta, c1.factors + c2.factors))
        try:
            merged = disc_make(merged_comps)
        except DegenerateDiscError:
            continue
        b1 = homotopy_class(d1).boundary
        b2 = homotopy_class(d2).boundary
        assert homotopy_class(merged).boundary == tuple(
            x + y for x, y in zip(b1, b2))


# -- reparametrization -----------------------------------------------------------

def test_psl2_identity_fixes_disc():
    d = standard_disc(1, 2)
    same = psl2_act(d, MoebiusMap())
    for t in (0.1, 0.5):
        z = cmath.exp(2j * math.pi * t)
        assert max(abs(a - b) for a, b in
                   zip(disc_eval(same, z), disc_eval(d, z))) < 1e-12


def test_psl2_act_is_composition_with_inverse():
    rng = random.Random(15)
    for _ in range(20):
        d = random_disc(rng, rng.randint(1, 3), max_degree=3)
        phi = MoebiusMap(rng.uniform(0, 2 * math.pi),
                         cmath.rect(0.6 * math.sqrt(rng.random()),
                                    rng.uniform(0, 2 * math.pi)))
        moved = psl2_act(d, phi)
        inv = phi.inverse()
        for t in (0.0, 0.3, 0.77):
            z = cmath.exp(2j * math.pi * t)
            expect = disc_eval(d, inv(z))
            got = disc_eval(moved, z)
            assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-9


def test_psl2_preserves_index_and_class():
    rng = random.Random(21)
    for _ in range(200):
        d = random_disc(rng, rng.randint(1, 4), max_degree=4)
        mu = homotopy_class(d).mu
        index = maslov_index(d)
        for _ in range(20):
            phi = MoebiusMap(rng.uniform(0, 2 * math.pi),
                             cmath.rect(0.7 * math.sqrt(rng.random()),
                                        rng.uniform(0, 2 * math.pi)))
            d = psl2_act(d, phi)
            assert maslov_index(d) == index
            assert homotopy_class(d).mu == mu


def test_psl2_rotation_shifts_phase_keeps_zero():
    b1 = standard_disc(1, 2)
    rotated = psl2_act(b1, MoebiusMap(theta=0.9))
    assert rotated.components[1].degree == 1
    assert abs(rotated.components[1].zeros[0]) < 1e-12
    assert rotated.components[1].theta == pytest.approx(2 * math.pi - 0.9)


def test_moebius_rejects_boundary_parameter():
    with pytest.raises(ValueError):
        MoebiusMap(0.0, 1.0 + 0j)


# -- the point solver ------------------------------------------------------------

def test_solver_recovers_standard_disc():
    d = solve_disc_through_point(1, [1.0 + 0j, 1.0 + 0j])
    assert d.mu == (0, 1, 0)
    assert all(c.theta == 0.0 for c in d.components)


def test_solver_matches_single_phase():
    psi = 1.234
    d = solve_disc_through_point(1, [cmath.exp(1j * psi), 1.0 + 0j])
    assert d.components[1].theta == pytest.approx(psi)


def test_solver_roundtrip_and_injectivity():
    rng = random.Random(33)
    for n in (1, 2, 3):
        seen = set()
        for _ in range(40):
            target = [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
            for i in range(n + 1):
                d = solve_disc_through_point(i, target)
                got = disc_eval(d, 1.0)
                normalized = [g / got[0] for g in got[1:]]
                assert max(abs(a - b) for a, b in zip(normalized, target)) < 1e-9
                key = (i, tuple(round(c.theta, 12) for c in d.components),
                       tuple(c.degree for c in d.components))
                assert key not in seen
                seen.add(key)


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_disc_through_point(3, [1.0 + 0j])  # class index out of range
    with pytest.raises(ValueError):
        solve_disc_through_point(0, [0.5 + 0j])  # target not unit modulus


# -- serialization ----------------------------------------------------------------

def test_disc_json_roundtrip():
    rng = random.Random(41)
    d = random_disc(rng, 2, max_degree=3)
    data = disc_to_json_dict(d)
    back = disc_from_json_dict(data)
    for t in (0.2, 0.6):
        z = cmath.exp(2j * math.pi * t)
        assert max(abs(a - b) for a, b in
                   zip(disc_eval(back, z), disc_eval(d, z))) < 1e-12


def test_disc_json_accepts_fractional_phase():
    data = {"components": [{"theta": "1/4", "zeros": []},
                           {"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.0}]}]}
    d = disc_from_json_dict(data)
    assert d.components[0].theta == pytest.approx(math.pi / 2)


# -- value semantics -------------------------------------------------------------

def _two_coordinate_disc(tol):
    return disc_make([BlaschkeComponent(),
                      BlaschkeComponent(0.0, (BlaschkeFactor(0j),))], tol)


#: (build, a different value of the same type, repr of the built value)
VALUE_CASES = {
    "moebius": (lambda: MoebiusMap(7.0, 0.5j), MoebiusMap(7.0, 0.25j),
                "MoebiusMap(theta=0.7168146928204138, a=0.5j)"),
    "factor": (lambda: BlaschkeFactor.from_rational(Fraction(1, 2), Fraction(-1, 4)),
               BlaschkeFactor(0.5 - 0.25j),
               "BlaschkeFactor(alpha=(0.5-0.25j), "
               "exact=(Fraction(1, 2), Fraction(-1, 4)))"),
    "component": (lambda: BlaschkeComponent(-1.0, [BlaschkeFactor(0.5j)]),
                  BlaschkeComponent(-1.0),
                  "BlaschkeComponent(theta=5.283185307179586, "
                  "factors=(BlaschkeFactor(alpha=0.5j, exact=None),))"),
    "disc": (lambda: _two_coordinate_disc(1e-6),
             disc_make([BlaschkeComponent(), BlaschkeComponent(1.0)]),
             "BlaschkeDisc(components=(BlaschkeComponent(theta=0.0, factors=()), "
             "BlaschkeComponent(theta=0.0, factors=(BlaschkeFactor(alpha=0j, "
             "exact=None),))), tol=1e-06)"),
}


@pytest.mark.parametrize("case", list(VALUE_CASES))
def test_disc_types_are_immutable_values(case):
    build, other, text = VALUE_CASES[case]
    value, twin = build(), build()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert value != other and not value == other
    assert value != text  # another type never compares equal
    assert repr(value) == text
    field = text[text.index("(") + 1:text.index("=")]
    for change in (lambda: setattr(value, field, None),
                   lambda: delattr(value, field),
                   lambda: setattr(value, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert repr(value) == text
    for roundtrip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        clone = roundtrip(value)
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, field, None)


def test_disc_equality_ignores_tol():
    loose, strict = _two_coordinate_disc(1e-3), _two_coordinate_disc(1e-12)
    assert loose == strict and hash(loose) == hash(strict)
    assert (loose.tol, strict.tol) == (1e-3, 1e-12)
    assert len({loose, strict}) == 1


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_disc_refuses_a_tol_that_is_not_finite_and_positive(tol):
    # a nan or negative tol let two coordinates share the zero 0.25j
    shared = [BlaschkeComponent(0, (BlaschkeFactor(0.25j),))] * 2
    with pytest.raises(ValueError) as info:
        disc_make(shared, tol=tol)
    assert str(info.value) == "disc tol must be a finite positive number, got %r" % tol


def test_constructors_convert_their_fields():
    m = MoebiusMap(-1, 0.5)
    assert (m.theta, m.a) == (2 * math.pi - 1.0, 0.5 + 0j)
    assert type(m.theta) is float and type(m.a) is complex
    f = BlaschkeFactor(0.25, exact=(1, "1/3"))
    assert f.alpha == 0.25 + 0j and type(f.alpha) is complex
    assert f.exact == (Fraction(1), Fraction(1, 3))
    assert all(type(x) is Fraction for x in f.exact)
    c = BlaschkeComponent(7, [f])
    assert c.theta == 7.0 % (2 * math.pi) and c.factors == (f,)
    d = BlaschkeDisc([BlaschkeComponent(), c])
    assert type(d.components) is tuple and d.tol == 1e-9


@pytest.mark.parametrize("build,error,message", [
    (lambda: MoebiusMap(0.0, 1.0), ValueError,
     "Moebius parameter must lie inside the unit disc"),
    (lambda: BlaschkeFactor(0.6 + 0.8j), ValueError,
     "Blaschke zero must lie strictly inside the unit disc"),
    (lambda: BlaschkeDisc([BlaschkeComponent()]), ValueError,
     "need n+1 >= 2 coordinate components"),
    (lambda: disc_make([BlaschkeComponent(0.0, (BlaschkeFactor(0.25j),)),
                        BlaschkeComponent(0.0, (BlaschkeFactor(0.25j),))]),
     DegenerateDiscError, "coordinates share the zero 0.25j"),
], ids=["moebius", "factor", "disc-size", "disc-shared-zero"])
def test_constructor_refusals_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build,named", [
    (lambda: BlaschkeFactor(complex("nan")), "Blaschke zero (nan+0j) is not finite"),
    (lambda: BlaschkeFactor(complex(0.5, math.inf)), "Blaschke zero (0.5+infj)"),
    (lambda: MoebiusMap(0.0, complex("nan")), "Moebius parameter a=(nan+0j)"),
    (lambda: MoebiusMap(0.0, -math.inf), "Moebius parameter a=-inf"),
    (lambda: MoebiusMap(math.inf), "Moebius angle theta=inf"),
    (lambda: MoebiusMap(math.nan, 0.5), "Moebius angle theta=nan"),
    (lambda: BlaschkeComponent(math.nan), "component phase theta=nan"),
    (lambda: BlaschkeComponent(-math.inf, (BlaschkeFactor(0j),)),
     "component phase theta=-inf"),
    (lambda: disc_from_json_dict({"components": [
        {"theta": math.nan}, {"zeros": [{"re": 0.0, "im": 0.0}]}]}),
     "component phase theta=nan"),
    (lambda: disc_from_json_dict({"components": [
        {"theta": "1/4"}, {"zeros": [{"re": math.nan, "im": 0.0}]}]}),
     "Blaschke zero (nan+0j)"),
], ids=["factor-nan", "factor-inf", "moebius-a-nan", "moebius-a-inf",
        "moebius-theta-inf", "moebius-theta-nan", "component-nan",
        "component-inf", "json-theta-nan", "json-zero-nan"])
def test_non_finite_disc_inputs_are_refused(build, named):
    with pytest.raises(ValueError, match="is not finite") as info:
        build()
    assert named in str(info.value)
