"""Numerical Maslov index via winding numbers on the Lagrangian Grassmannian.

A Lagrangian plane in C^n is A.R^n for a unitary A, determined by the
symmetric unitary D = A A^T; the index of a loop of planes is the degree
of det(D) around the circle.  For a disc whose zeroth coordinate never
vanishes, the boundary torus loop has diagonal-phase tangent frames in
the affine chart, and its loop index recovers twice the total zero count
of the disc -- the independent numeric check of the combinatorial index.

Degrees are accumulated from principal argument steps, so sampling must
keep consecutive steps below pi; the samplers double their resolution
until both the step bound and the integer-rounding residue hold.

General frame loops are checked and wound as one numpy (N, n, n) stack:
frame unitarity, the plane invariants and det(D) each run once per stack
and cover every sample.  The disc sampler's frames are diagonal, so it
runs the same checks entry by entry in builtin complex arithmetic and
never loads numpy: off the diagonal every product is an exact zero, so
the largest defect is the one the stack check would find, and D = D^T
holds exactly.

A disc that does meet the zeroth hyperplane reduces to the chart case by
hand, not by an operation here: multiplying the zeroth coordinate by
(1 - conj(p) z)/(z - p) for each of its zeros p preserves the boundary
condition and removes those zeros while raising every other coordinate's
count relative to it, after which `disc_boundary_maslov` applies.  Index
additivity makes the bookkeeping come out the same.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple

from . import DEFAULT_TOL
from .discs import BlaschkeDisc, _Frozen

if TYPE_CHECKING:  # numpy is imported where the frame-stack code runs
    import numpy as np

DEFAULT_SAMPLES = 256
MAX_SAMPLES = 1 << 14
RESIDUE_LIMIT = 0.1


class FrameError(ValueError):
    """Input matrix is not unitary within tolerance."""


class UndersampledLoopError(ValueError):
    """Argument steps too coarse (or residue too large) to read a winding."""


class ChartError(ValueError):
    """Disc meets the hyperplane of the chart used for the frame loop."""


_UNITARY_MESSAGE = "frame is not unitary (defect %.3g)"
_PLANE_MESSAGE = "plane invariant failed D conj(D) = Id"


def _check_unitary(a: np.ndarray, tol: float) -> None:
    """Refuse a matrix, or an (N, n, n) stack, that is not unitary."""
    import numpy as np

    defect = np.max(np.abs(a @ np.swapaxes(a.conj(), -1, -2) - np.eye(a.shape[-1])))
    if defect > max(tol, 1e-7):
        raise FrameError(_UNITARY_MESSAGE % defect)


def _plane_invariants(a: np.ndarray, tol: float) -> np.ndarray:
    """D = A A^T of a matrix, or of each matrix of a stack, checked
    symmetric with D conj(D) = Id."""
    import numpy as np

    d = a @ np.swapaxes(a, -1, -2)
    if np.max(np.abs(d @ d.conj() - np.eye(a.shape[-1]))) > max(tol, 1e-7):
        raise FrameError(_PLANE_MESSAGE)
    if np.max(np.abs(d - np.swapaxes(d, -1, -2))) > max(tol, 1e-7):
        raise FrameError("plane invariant failed D = D^T")
    return d


class LagrangianFrame(_Frozen):
    """Unitary matrix whose columns frame the plane A.R^n.

    Frames compare and hash by identity: field-wise equality would take
    the truth value of a numpy comparison, which raises.
    """

    _fields = ("matrix", "tol")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix: np.ndarray, tol: float = DEFAULT_TOL):
        self.__dict__.update(matrix=matrix, tol=tol)
        # a method of its own: benchmark/tracing.py counts frames by wrapping it
        self.__post_init__()

    def __post_init__(self):
        import numpy as np

        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FrameError("frame must be a square matrix")
        _check_unitary(a, self.tol)
        self.__dict__["matrix"] = a

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def diag_phase_frame(phases: Sequence[float]) -> LagrangianFrame:
    import numpy as np

    return LagrangianFrame(np.diag(np.exp(1j * np.asarray(phases, dtype=float))))


def b_map(frame: LagrangianFrame, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The plane invariant D = A A^T: symmetric, with D conj(D) = Id."""
    return _plane_invariants(frame.matrix, tol)


class FrameLoop(_Frozen):
    """Frames at parameters t_k in [0,1); closes from the last back to the first."""

    _fields = _compared = ("frames",)

    def __init__(self, frames: Sequence[LagrangianFrame]):
        if len(frames) < 2:
            raise ValueError("a loop needs at least two samples")
        self.__dict__["frames"] = tuple(frames)


def winding_number(samples, tol: float = DEFAULT_TOL,
                   step_limit: float = math.pi,
                   residue_limit: float = RESIDUE_LIMIT) -> int:
    """Total argument increment / 2pi of a closed nonvanishing curve.

    `samples` traverse the loop once without repeating the start point.
    Non-finite samples, near-zero samples and argument steps >=
    step_limit are rejected, as is a total that rounds with residue >=
    residue_limit.

    On a closed list the principal steps of consecutive ratios sum to a
    multiple of 2pi up to rounding of about 1e-16 per step, so no curve
    of up to MAX_SAMPLES samples comes near the residue limit.  The check
    stays as a guard against that rounding at very large N.
    """
    z = [complex(x) for x in samples]
    if len(z) < 2:
        raise ValueError("need at least two samples")
    # one sum finds inf and nan, which the step sum alone would not: the
    # ratios next to an infinite real sample have finite phases
    if not cmath.isfinite(sum(z)):
        for k, x in enumerate(z):
            if not cmath.isfinite(x):
                raise ValueError("curve sample %d is not finite: %r" % (k, x))
    scale = 1.0
    try:
        moduli = list(map(abs, z))
    except OverflowError:
        # a modulus past the float range: halving every sample is exact,
        # keeps every phase and brings every modulus back within range
        scale = 0.5
        z = [x * scale for x in z]
        moduli = list(map(abs, z))
    low = min(moduli)
    if low < tol * scale:
        raise ValueError("curve sample within %g of zero" % tol)
    # complex division b / a cannot overflow while no modulus exceeds 1e300
    # and the largest is within 1e300 of the smallest.  Past that a ratio
    # can read 0 or nan, a wrong step whose sum may still be finite, so the
    # steps are taken between the samples' unit directions, of equal phase.
    if max(moduli) > 1e300 * min(low, 1.0):
        z = [x / r for x, r in zip(z, moduli)]
    steps = [cmath.phase(b / a) for a, b in zip(z, z[1:] + z[:1])]
    worst = max(map(abs, steps))
    if worst >= step_limit:
        raise UndersampledLoopError(
            "argument step %.3f exceeds limit %.3f" % (worst, step_limit))
    total = sum(steps)
    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) >= residue_limit:
        raise UndersampledLoopError(
            "winding %.6f has residue >= %.2f" % (winding, residue_limit))
    return int(nearest)


def _stack_maslov(a: np.ndarray, tol: float, step_limit: float) -> int:
    """Degree of det of the plane invariant along an (N, n, n) stack of
    unitary frames sampled around a loop."""
    import numpy as np

    return winding_number(np.linalg.det(_plane_invariants(a, tol)), tol, step_limit)


def _diagonal_maslov(entries: Iterable[Sequence[complex]], tol: float,
                     step_limit: float) -> int:
    """`_stack_maslov` of diagonal frames given by their diagonal entries,
    one row per sample, after the unitarity check at the bound a
    `LagrangianFrame` applies; same checks, same messages, no numpy."""
    unitary = plane = 0.0
    dets = []
    for row in entries:
        det = 1.0
        for e in row:
            defect = abs(e * e.conjugate() - 1.0)
            if defect > unitary:
                unitary = defect
            d = e * e
            defect = abs(d * d.conjugate() - 1.0)
            if defect > plane:
                plane = defect
            det *= d
        dets.append(det)
    if unitary > max(DEFAULT_TOL, 1e-7):
        raise FrameError(_UNITARY_MESSAGE % unitary)
    if plane > max(tol, 1e-7):
        raise FrameError(_PLANE_MESSAGE)
    return winding_number(dets, tol, step_limit)


def loop_maslov(loop: FrameLoop, tol: float = DEFAULT_TOL,
                step_limit: float = math.pi) -> int:
    """Degree of det of the plane invariant along the loop."""
    import numpy as np

    return _stack_maslov(np.stack([f.matrix for f in loop.frames]), tol, step_limit)


@lru_cache(maxsize=16)  # DEFAULT_SAMPLES doubles to MAX_SAMPLES in 7 sizes
def _circle(num: int) -> Tuple[complex, ...]:
    """The num equispaced boundary points, shared by every disc sampled there."""
    return tuple(cmath.rect(1.0, 2.0 * math.pi * k / num) for k in range(num))


def disc_boundary_maslov(d: BlaschkeDisc, tol: float = DEFAULT_TOL,
                         samples: int = DEFAULT_SAMPLES,
                         max_samples: int = MAX_SAMPLES) -> int:
    """Numeric index of the boundary torus loop of a disc missing the
    zeroth hyperplane; equals twice the total winding of the coordinate
    ratios, read through the frame-loop checks: the diagonal-phase frames
    of all samples are checked unitary at the bound a `LagrangianFrame`
    applies, then wound as `_stack_maslov` would wind them.
    """
    if d.mu[0] != 0:
        raise ChartError("disc meets the zeroth hyperplane (mu_0 = %d)" % d.mu[0])
    num = samples
    while True:
        z = _circle(num)
        base, *rest = [c.eval_many(z) for c in d.components]
        # unit diagonal entries, one column per coordinate ratio
        columns = [[(w := v / b) / abs(w) for v, b in zip(values, base)]
                   for values in rest]
        try:
            # stricter step bound than the pi ambiguity threshold, so a
            # passing sample count is comfortably unambiguous
            return _diagonal_maslov(zip(*columns), tol, step_limit=math.pi / 2)
        except UndersampledLoopError:
            if num >= max_samples:
                raise
            num *= 2
