"""Numerical Maslov index via winding numbers on the Lagrangian Grassmannian.

A Lagrangian plane in C^n is A.R^n for a unitary A, determined by the
symmetric unitary D = A A^T; the index of a loop of planes is the degree
of det(D) around the circle.  For a disc whose zeroth coordinate never
vanishes, the boundary torus loop has diagonal-phase tangent frames in
the affine chart, and its loop index recovers twice the total zero count
of the disc -- the independent numeric check of the combinatorial index.

Degrees are accumulated from principal argument steps, so sampling must
keep consecutive steps below pi; the samplers double their resolution
until both the step bound and the integer-rounding residue hold.  The
samples of a loop are checked and wound as one (N, n, n) stack: frame
unitarity, the plane invariants and det(D) each run once per stack and
cover every sample.

A disc that does meet the zeroth hyperplane reduces to the chart case by
hand, not by an operation here: multiplying the zeroth coordinate by
(1 - conj(p) z)/(z - p) for each of its zeros p preserves the boundary
condition and removes those zeros while raising every other coordinate's
count relative to it, after which `disc_boundary_maslov` applies.  Index
additivity makes the bookkeeping come out the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .discs import BlaschkeDisc, disc_eval_boundary
from .scalars import DEFAULT_TOL

DEFAULT_SAMPLES = 256
MAX_SAMPLES = 1 << 14
RESIDUE_LIMIT = 0.1


class FrameError(ValueError):
    """Input matrix is not unitary within tolerance."""


class UndersampledLoopError(ValueError):
    """Argument steps too coarse (or residue too large) to read a winding."""


class ChartError(ValueError):
    """Disc meets the hyperplane of the chart used for the frame loop."""


def _check_unitary(a: np.ndarray, tol: float) -> None:
    """Refuse a matrix, or an (N, n, n) stack, that is not unitary."""
    defect = np.max(np.abs(a @ np.swapaxes(a.conj(), -1, -2) - np.eye(a.shape[-1])))
    if defect > max(tol, 1e-7):
        raise FrameError("frame is not unitary (defect %.3g)" % defect)


def _plane_invariants(a: np.ndarray, tol: float) -> np.ndarray:
    """D = A A^T of a matrix, or of each matrix of a stack, checked
    symmetric with D conj(D) = Id."""
    d = a @ np.swapaxes(a, -1, -2)
    if np.max(np.abs(d @ d.conj() - np.eye(a.shape[-1]))) > max(tol, 1e-7):
        raise FrameError("plane invariant failed D conj(D) = Id")
    if np.max(np.abs(d - np.swapaxes(d, -1, -2))) > max(tol, 1e-7):
        raise FrameError("plane invariant failed D = D^T")
    return d


@dataclass(frozen=True)
class LagrangianFrame:
    """Unitary matrix whose columns frame the plane A.R^n."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FrameError("frame must be a square matrix")
        _check_unitary(a, self.tol)
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def diag_phase_frame(phases: Sequence[float]) -> LagrangianFrame:
    return LagrangianFrame(np.diag(np.exp(1j * np.asarray(phases, dtype=float))))


def b_map(frame: LagrangianFrame, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The plane invariant D = A A^T: symmetric, with D conj(D) = Id."""
    return _plane_invariants(frame.matrix, tol)


@dataclass(frozen=True)
class FrameLoop:
    """Frames at parameters t_k in [0,1); closes from the last back to the first."""

    frames: Tuple[LagrangianFrame, ...]

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValueError("a loop needs at least two samples")
        object.__setattr__(self, "frames", tuple(self.frames))


def winding_number(samples, tol: float = DEFAULT_TOL,
                   step_limit: float = math.pi,
                   residue_limit: float = RESIDUE_LIMIT) -> int:
    """Total argument increment / 2pi of a closed nonvanishing curve.

    `samples` traverse the loop once without repeating the start point.
    Near-zero samples and argument steps >= step_limit are rejected, as
    is a total that rounds with residue >= residue_limit.
    """
    z = np.asarray(list(samples), dtype=complex)
    if z.size < 2:
        raise ValueError("need at least two samples")
    mods = np.abs(z)
    if np.min(mods) < tol:
        raise ValueError("curve sample within %g of zero" % tol)
    steps = np.angle(np.roll(z, -1) / z)
    worst = float(np.max(np.abs(steps)))
    if worst >= step_limit:
        raise UndersampledLoopError(
            "argument step %.3f exceeds limit %.3f" % (worst, step_limit))
    total = float(np.sum(steps))
    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) >= residue_limit:
        raise UndersampledLoopError(
            "winding %.6f has residue >= %.2f" % (winding, residue_limit))
    return int(nearest)


def _stack_maslov(a: np.ndarray, tol: float, step_limit: float) -> int:
    """Degree of det of the plane invariant along an (N, n, n) stack of
    unitary frames sampled around a loop."""
    return winding_number(np.linalg.det(_plane_invariants(a, tol)), tol, step_limit)


def loop_maslov(loop: FrameLoop, tol: float = DEFAULT_TOL,
                step_limit: float = math.pi) -> int:
    """Degree of det of the plane invariant along the loop."""
    return _stack_maslov(np.stack([f.matrix for f in loop.frames]), tol, step_limit)


def disc_boundary_maslov(d: BlaschkeDisc, tol: float = DEFAULT_TOL,
                         samples: int = DEFAULT_SAMPLES,
                         max_samples: int = MAX_SAMPLES) -> int:
    """Numeric index of the boundary torus loop of a disc missing the
    zeroth hyperplane; equals twice the total winding of the coordinate
    ratios, read through the frame-loop machinery: the diagonal-phase
    frames of all samples form one stack, checked unitary at the bound a
    `LagrangianFrame` applies.
    """
    if d.mu[0] != 0:
        raise ChartError("disc meets the zeroth hyperplane (mu_0 = %d)" % d.mu[0])
    num = samples
    while True:
        vals = disc_eval_boundary(d, num)
        phases = np.angle((vals[1:] / vals[0]).T)
        frames = np.zeros(phases.shape + phases.shape[-1:], dtype=complex)
        diag = np.arange(phases.shape[-1])
        frames[:, diag, diag] = np.exp(1j * phases)
        _check_unitary(frames, DEFAULT_TOL)
        try:
            # stricter step bound than the pi ambiguity threshold, so a
            # passing sample count is comfortably unambiguous
            return _stack_maslov(frames, tol, step_limit=math.pi / 2)
        except UndersampledLoopError:
            if num >= max_samples:
                raise
            num *= 2
