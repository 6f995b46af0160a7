import cmath
import hashlib
import json
import math
import random

import numpy as np
import pytest

from cftorus.discs import (
    BlaschkeComponent,
    BlaschkeFactor,
    disc_make,
    disc_to_json_dict,
    maslov_index,
    random_disc,
)
from cftorus.maslov import (
    MAX_SAMPLES,
    RESIDUE_LIMIT,
    ChartError,
    FrameError,
    FrameLoop,
    LagrangianFrame,
    UndersampledLoopError,
    b_map,
    diag_phase_frame,
    disc_boundary_maslov,
    loop_maslov,
    winding_number,
    _check_unitary,
    _circle,
    _diagonal_maslov,
    _stack_maslov,
)
from cftorus.scalars import DEFAULT_TOL
from reference import disc_eval_boundary


def random_unitary(rng, n):
    state = np.random.RandomState(rng.randint(0, 2 ** 31))
    q, r = np.linalg.qr(state.randn(n, n) + 1j * state.randn(n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# -- the plane invariant ---------------------------------------------------------

def test_b_map_identity():
    assert np.allclose(b_map(LagrangianFrame(np.eye(3))), np.eye(3))


def test_b_map_diagonal_phases_square():
    phases = np.array([0.3, 1.1, -0.4])
    d = b_map(diag_phase_frame(phases))
    assert np.allclose(d, np.diag(np.exp(2j * phases)))


def test_b_map_kills_orthogonal_ambiguity():
    theta = 0.77
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    assert np.allclose(b_map(LagrangianFrame(rot.astype(complex))), np.eye(2))


def test_b_map_invariants_on_random_unitaries():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        d = b_map(LagrangianFrame(random_unitary(rng, n)))
        assert np.allclose(d @ d.conj(), np.eye(n), atol=1e-9)
        assert np.allclose(d, d.T, atol=1e-9)


def test_frame_must_be_unitary():
    with pytest.raises(FrameError):
        LagrangianFrame(np.array([[2.0, 0], [0, 1.0]], dtype=complex))


@pytest.mark.parametrize("build,message", [
    (lambda: LagrangianFrame(np.eye(2)[:1]), "frame must be a square matrix"),
    (lambda: LagrangianFrame(2 * np.eye(2)), "frame is not unitary (defect 3)"),
    (lambda: FrameLoop((LagrangianFrame(np.eye(2)),)),
     "a loop needs at least two samples"),
], ids=["square", "unitary", "loop-size"])
def test_frame_refusals_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_frames_print_as_dataclasses_and_stay_immutable():
    frame = LagrangianFrame([[0, 1], [1, 0]], tol=1e-6)
    assert frame.matrix.dtype == complex and frame.n == 2
    assert repr(frame) == "LagrangianFrame(matrix=%r, tol=1e-06)" % (frame.matrix,)
    loop = FrameLoop([frame, LagrangianFrame(np.eye(2))])
    assert type(loop.frames) is tuple
    assert repr(loop) == "FrameLoop(frames=(%r, %r))" % loop.frames
    for value, field in ((frame, "matrix"), (frame, "tol"), (loop, "frames")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert frame.tol == 1e-6 and len(loop.frames) == 2


# -- winding numbers ----------------------------------------------------------------

def test_winding_unit_circle():
    t = np.arange(64) / 64
    assert winding_number(np.exp(2j * np.pi * t)) == 1


def test_winding_double_reverse():
    t = np.arange(64) / 64
    assert winding_number(np.exp(-4j * np.pi * t)) == -2


def test_winding_of_blaschke_products():
    rng = random.Random(12)
    t = np.exp(2j * np.pi * np.arange(256) / 256)
    for degree in range(6):
        factors = tuple(
            BlaschkeFactor(cmath.rect(0.8 * math.sqrt(rng.random()),
                                      2 * math.pi * rng.random()))
            for _ in range(degree))
        comp = BlaschkeComponent(rng.random(), factors)
        assert winding_number(comp.eval_many(t)) == degree


def test_winding_rejects_near_zero_samples():
    samples = np.array([1.0, 1e-12, 1.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        winding_number(samples)


@pytest.mark.parametrize("bad", [complex("nan"), complex(math.inf, 0.0),
                                 complex(0.0, -math.inf), complex(math.inf, math.nan)],
                         ids=["nan", "inf", "-infj", "inf-nan"])
def test_winding_refuses_non_finite_samples(bad):
    circle = [cmath.rect(1.0, 2 * math.pi * k / 16) for k in range(16)]
    for first in (0, 5, 15):
        samples = list(circle)
        samples[first] = bad
        samples[(first + 3) % 16] = complex("nan")  # a later bad sample is not named
        message = "curve sample %d is not finite: %r" % (first, bad)
        if first == 15:  # the wrapped one comes first
            message = "curve sample 2 is not finite: (nan+0j)"
        with pytest.raises(ValueError) as info:
            winding_number(samples)
        assert str(info.value) == message


def test_winding_of_finite_samples_whose_sum_overflows():
    # the finiteness check sums the samples; an overflow of that sum alone
    # names no sample and refuses nothing
    for offset, expected in ((2.0, 0), (0.5, 1)):
        samples = [1.5e307 * (offset + cmath.rect(1.0, 2 * math.pi * k / 64))
                   for k in range(64)]
        assert not cmath.isfinite(sum(samples))
        assert winding_number(samples) == expected


@pytest.mark.parametrize("count", [7, 16, 64])
def test_winding_of_samples_near_the_top_of_the_float_range(count):
    # b / a overflows inside complex division for these moduli: 16 samples
    # read nan steps, and 7 read one ratio as 0j, a step of phase 0
    for turns in (1, -2):
        samples = [1.5e308 * cmath.rect(1.0, 0.3 + 2 * math.pi * turns * k / count)
                   for k in range(count)]
        assert winding_number(samples) == turns


def test_winding_of_samples_whose_moduli_spread_past_the_float_range():
    # a ratio 1e150 / 1e-200 is past the largest float
    samples = [cmath.rect(1e150 if k % 2 else 1e-200, 2 * math.pi * k / 64)
               for k in range(64)]
    assert winding_number(samples, tol=1e-300) == 1


def test_winding_of_samples_whose_modulus_is_past_the_float_range():
    # |1.5e308 (1 + 1j)| is past the largest float, so abs() overflows
    corners = [complex(1.5e308 * re, 1.5e308 * im)
               for re, im in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    assert winding_number(corners) == 1
    assert winding_number(corners[::-1]) == -1
    # the near-zero test still reads each sample's own modulus against tol
    small = [1.5e-9 * cmath.rect(1.0, -0.75 * math.pi), 0.5e-9 * (-1 - 1j)]
    assert winding_number(corners[:2] + small[:1] + corners[3:], tol=1e-9) == 1
    with pytest.raises(ValueError, match="within 1e-09 of zero"):
        winding_number(corners[:2] + small[1:] + corners[3:], tol=1e-9)


def test_winding_rejects_coarse_steps():
    # degree 3 at 6 samples per turn puts steps at exactly pi
    t = np.arange(6) / 6
    with pytest.raises(UndersampledLoopError):
        winding_number(np.exp(6j * np.pi * t))


def numpy_winding(samples, tol=DEFAULT_TOL, step_limit=math.pi,
                  residue_limit=RESIDUE_LIMIT):
    # reference: principal argument steps taken and summed as one array
    z = np.asarray(list(samples), dtype=complex)
    if z.size < 2:
        raise ValueError("need at least two samples")
    if np.min(np.abs(z)) < tol:
        raise ValueError("curve sample within %g of zero" % tol)
    steps = np.angle(np.roll(z, -1) / z)
    worst = float(np.max(np.abs(steps)))
    if worst >= step_limit:
        raise UndersampledLoopError(
            "argument step %.3f exceeds limit %.3f" % (worst, step_limit))
    winding = float(np.sum(steps)) / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) >= residue_limit:
        raise UndersampledLoopError(
            "winding %.6f has residue >= %.2f" % (winding, residue_limit))
    return int(nearest)


def outcome(fn, *args, **kwargs):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def curve(rng, steps, wobble=0.3):
    """Samples whose consecutive arguments advance by `steps`, at moduli in
    [1 - wobble, 1 + wobble]."""
    out, angle = [], rng.uniform(-math.pi, math.pi)
    for step in steps:
        out.append(cmath.rect(1.0 + rng.uniform(-wobble, wobble), angle))
        angle += step
    return out


def test_winding_number_matches_numpy_reference():
    rng = random.Random(2024)
    cases = [([], {}), ([1j], {})]
    for num in (2, 3, 4, 5, 8, 31, 256, 1000, 4096):
        for w in range(-5, 6):
            # jittered steps summing to 2 pi w: coarse curves are refused or
            # read wrongly, and the two must do so alike
            jitter = [rng.gauss(0.0, 0.2 / math.sqrt(num)) for _ in range(num)]
            mean = sum(jitter) / num
            steps = [2 * math.pi * w / num + j - mean for j in jitter]
            cases.append((curve(rng, steps), {}))
        near = curve(rng, [2 * math.pi / num] * num)
        near[rng.randrange(num)] *= DEFAULT_TOL / 2
        cases.append((near, {}))
        cases.append((near, {"tol": DEFAULT_TOL / 4}))
    for limit in (math.pi / 2, math.pi):
        for scale in (1 - 1e-6, 1 + 1e-6):
            # one step at just below or above the limit, the rest closing the turn
            big = limit * scale
            steps = [big] + [(2 * math.pi - big) / 15] * 15
            cases.append((curve(rng, steps), {"step_limit": limit}))
    kinds = set()
    for samples, kwargs in cases:
        expected = outcome(numpy_winding, samples, **kwargs)
        assert outcome(winding_number, samples, **kwargs) == expected
        kinds.add(expected[0] if isinstance(expected, tuple) else int)
    assert kinds == {int, ValueError, UndersampledLoopError}


def test_closed_curves_round_far_inside_the_residue_limit():
    # the claim winding_number's docstring makes for keeping its residue
    # check: up to MAX_SAMPLES samples, a closed list's steps sum to a
    # multiple of 2 pi within rounding, so even a 1e-9 limit passes
    rng = random.Random(77)
    for num in (16, 256, 4096, MAX_SAMPLES):
        for w in range(-5, 6):
            jitter = [rng.gauss(0.0, 0.5 / math.sqrt(num)) for _ in range(num)]
            mean = sum(jitter) / num
            steps = [2 * math.pi * w / num + j - mean for j in jitter]
            samples = curve(rng, steps, wobble=0.9)
            assert winding_number(samples, residue_limit=1e-9) == w, (num, w)


# -- frame loops ----------------------------------------------------------------------

def _diag_loop(windings, num=128):
    t = np.arange(num) / num
    frames = tuple(
        diag_phase_frame([math.pi * w * tk for w in windings]) for tk in t)
    return FrameLoop(frames)


def test_constant_loop_has_index_zero():
    frames = (LagrangianFrame(np.eye(2)),) * 16
    assert loop_maslov(FrameLoop(frames)) == 0


def test_half_turn_phase_loop_has_index_one():
    # diag(e^{i pi t}, 1, .., 1) closes as planes and winds once
    assert loop_maslov(_diag_loop([1, 0, 0])) == 1


def test_loop_index_adds_windings():
    assert loop_maslov(_diag_loop([2, -1, 3])) == 4


def test_loop_additive_under_splice():
    rng = random.Random(8)
    for _ in range(50):
        size = rng.randint(1, 3)
        w1 = [rng.randint(-3, 3) for _ in range(size)]
        w2 = [rng.randint(-3, 3) for _ in range(size)]
        loop1 = _diag_loop(w1)
        loop2 = _diag_loop(w2)
        spliced = FrameLoop(loop1.frames + loop2.frames)
        assert (loop_maslov(spliced)
                == loop_maslov(loop1) + loop_maslov(loop2))


def _per_frame_maslov(frames, step_limit=math.pi):
    # the frame-by-frame route: one plane invariant and one det per frame
    return winding_number([np.linalg.det(b_map(f)) for f in frames],
                          step_limit=step_limit)


def test_loop_matches_per_frame_route_on_non_diagonal_loops():
    rng = random.Random(23)
    for _ in range(30):
        size = rng.randint(1, 4)
        windings = [rng.randint(-3, 3) for _ in range(size)]
        u = random_unitary(rng, size)
        loop = FrameLoop(tuple(LagrangianFrame(u @ f.matrix)
                               for f in _diag_loop(windings).frames))
        assert loop_maslov(loop) == _per_frame_maslov(loop.frames) == sum(windings)


def test_loop_undersampling_error_matches_per_frame_route():
    # det steps of 2 pi * 5/16 exceed the disc sampler's pi/2 bound
    loop = _diag_loop([2, 3], num=16)
    with pytest.raises(UndersampledLoopError) as per_frame:
        _per_frame_maslov(loop.frames, math.pi / 2)
    with pytest.raises(UndersampledLoopError) as stacked:
        loop_maslov(loop, step_limit=math.pi / 2)
    assert str(stacked.value) == str(per_frame.value)


def test_loop_plane_invariant_error_matches_per_frame_route():
    # a frame accepted under a loose tol fails D conj(D) = Id at the default
    frames = (LagrangianFrame(1.1 * np.eye(2), tol=0.5),) * 4
    with pytest.raises(FrameError) as per_frame:
        _per_frame_maslov(frames)
    with pytest.raises(FrameError) as stacked:
        loop_maslov(FrameLoop(frames))
    assert str(stacked.value) == str(per_frame.value)


def _stack_route(entries, tol, step_limit):
    # the numpy disc route: unitarity at the LagrangianFrame bound, then
    # the plane invariants and det of the whole (N, n, n) stack
    stack = np.array([np.diag(row) for row in entries])
    _check_unitary(stack, DEFAULT_TOL)
    return _stack_maslov(stack, tol, step_limit)


@pytest.mark.parametrize("scale,refusal,kinds", [
    (None, None, {int, UndersampledLoopError}),
    (1 + 1e-6, "frame is not unitary", {FrameError}),
    # the plane check runs at max(tol, 1e-7), so tol = 1e-6 lets this through
    (1 + 3.5e-8, "plane invariant failed", {FrameError, int, UndersampledLoopError}),
])
def test_diagonal_core_refuses_what_the_stack_refuses(scale, refusal, kinds):
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        size = rng.randint(1, 4)
        windings = [rng.randint(-3, 3) for _ in range(size)]
        num = rng.choice([8, 16, 64, 256])
        entries = [[cmath.exp(1j * (math.pi * w * k / num + rng.gauss(0, 0.01)))
                    for w in windings] for k in range(num)]
        if scale is not None:
            entries[rng.randrange(num)][rng.randrange(size)] *= scale
        for tol in (DEFAULT_TOL, 1e-6):
            for limit in (math.pi / 2, math.pi):
                expected = outcome(_stack_route, entries, tol, limit)
                assert outcome(_diagonal_maslov, entries, tol, limit) == expected
                kind = int if isinstance(expected, int) else expected[0]
                seen.add(kind)
                if kind is FrameError:
                    assert refusal in expected[1]
    assert seen == kinds


def test_loop_invariant_under_fixed_orthogonal_change():
    rng = random.Random(14)
    theta = 1.1
    orth = np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]], dtype=complex)
    loop = _diag_loop([2, -1])
    changed = FrameLoop(tuple(LagrangianFrame(f.matrix @ orth)
                              for f in loop.frames))
    assert loop_maslov(changed) == loop_maslov(loop)


# -- disc boundaries --------------------------------------------------------------------

def standard_disc(i, n):
    comps = [BlaschkeComponent(0.0, (BlaschkeFactor(0j),) if j == i else ())
             for j in range(n + 1)]
    return disc_make(comps)


def test_standard_disc_numeric_index_is_two():
    assert disc_boundary_maslov(standard_disc(1, 3)) == 2


def test_degree_three_component_gives_six():
    comps = [BlaschkeComponent(),
             BlaschkeComponent(0.2, tuple(BlaschkeFactor(0.3 * 1j ** k)
                                          for k in range(3))),
             BlaschkeComponent(1.0)]
    assert disc_boundary_maslov(disc_make(comps)) == 6


def test_constant_disc_has_index_zero():
    d = disc_make([BlaschkeComponent(0.4), BlaschkeComponent(1.7)])
    assert disc_boundary_maslov(d) == 0


def test_chart_error_when_zeroth_coordinate_vanishes():
    with pytest.raises(ChartError):
        disc_boundary_maslov(standard_disc(0, 2))


def test_numeric_equals_combinatorial_on_random_discs():
    from cftorus.discs import maslov_index

    rng = random.Random(99)
    for _ in range(50):
        d = random_disc(rng, rng.randint(1, 4), max_degree=4, chart0=True)
        assert disc_boundary_maslov(d) == maslov_index(d)


def test_disc_matches_per_frame_route_on_random_discs():
    # diag_phase_frame per sample, from 256 samples, doubling while undersampled
    rng = random.Random(31)
    for _ in range(50):
        d = random_disc(rng, rng.randint(1, 4), max_degree=4, chart0=True)
        num = 256
        while True:
            vals = disc_eval_boundary(d, num)
            phases = np.angle((vals[1:] / vals[0]).T)
            try:
                expected = _per_frame_maslov(
                    [diag_phase_frame(row) for row in phases], math.pi / 2)
                break
            except UndersampledLoopError:
                assert num < MAX_SAMPLES
                num *= 2
        assert disc_boundary_maslov(d) == expected


def test_zero_near_boundary_forces_adaptive_resampling():
    # phase speed ~ (1+r)/(1-r) at radius r = 0.98 overwhelms the default
    # 256-point grid, so the doubling path must engage and still land on 2
    comps = [BlaschkeComponent(),
             BlaschkeComponent(0.1, (BlaschkeFactor(0.98 + 0j),)),
             BlaschkeComponent(0.4)]
    d = disc_make(comps)
    assert disc_boundary_maslov(d) == 2
    with pytest.raises(UndersampledLoopError):
        disc_boundary_maslov(d, max_samples=256)


def test_shared_sample_circle_gives_the_fresh_circle_index():
    # discs sampled in turn share the cached circles, at every size the
    # doubling reaches; clearing the cache before each disc must not change
    # an index, and the cached circle must still be the fresh one after use
    rng = random.Random(53)
    ds = [random_disc(rng, rng.randint(1, 4), max_degree=4, chart0=True)
          for _ in range(30)]
    ds.append(disc_make([BlaschkeComponent(),
                         BlaschkeComponent(0.1, (BlaschkeFactor(0.98 + 0j),)),
                         BlaschkeComponent(0.4)]))
    _circle.cache_clear()
    shared = [disc_boundary_maslov(d) for d in ds]
    assert _circle.cache_info().hits > 0
    fresh = []
    for d in ds:
        _circle.cache_clear()
        fresh.append(disc_boundary_maslov(d))
    assert shared == fresh
    for num in (256, 512, 1024):
        assert _circle(num) == tuple(cmath.rect(1.0, 2.0 * math.pi * k / num)
                                     for k in range(num))


def test_maslov_check_disc_path_golden():
    # the discs maslov-check draws, their data and both indices, pinned to
    # the bit: a shifted phase or zero changes the digest
    digest = hashlib.sha256()
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(200):
            d = random_disc(rng, rng.randint(1, 4), max_degree=4, chart0=True,
                            tol=DEFAULT_TOL)
            record = [disc_to_json_dict(d), maslov_index(d),
                      disc_boundary_maslov(d, DEFAULT_TOL)]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == DISC_PATH_GOLDEN


DISC_PATH_GOLDEN = "b565f312461883d570d38b453352b6d93507a400fc6255ad4899cae2a2fd5272"
