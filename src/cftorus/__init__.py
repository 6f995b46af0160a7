"""Floer cohomology of the Clifford torus.

Library layout:

* :mod:`cftorus.scalars`  -- exact cyclotomic / tolerance-based complex backends
* :mod:`cftorus.exterior` -- wedge matrices, the square-zero check, ranks
* :mod:`cftorus.floer`    -- spin structures, holonomies, weights, scan cells
* :mod:`cftorus.discs`    -- Blaschke-product discs, their Maslov index and the point solver
* :mod:`cftorus.maslov`   -- numeric winding-number Maslov indices
* :mod:`cftorus.oracle`   -- simplex coboundary ranks and the Koszul rescaling check
* :mod:`cftorus.cli`      -- the ``cftorus`` command

Only SVD rank and the numpy frame-stack API of :mod:`cftorus.maslov`
(``LagrangianFrame``, ``FrameLoop``, ``b_map``, ``diag_phase_frame``,
``loop_maslov``) need numpy, and each imports it where it runs: exact
computations and the disc path of ``maslov-check`` never load it.

Every submodule, and every public name below, is imported on first
access, so ``import cftorus`` runs none of them and ``maslov-check``
loads only :mod:`cftorus.cli`, :mod:`cftorus.discs` and
:mod:`cftorus.maslov`.  ``DEFAULT_TOL`` lives here for that reason:
:mod:`cftorus.scalars` re-exports the same object.  On that path the
disc and frame types are plain classes rather than dataclasses, and
``Fraction`` is imported where one is built, so ``maslov-check`` loads
neither ``dataclasses`` (nor its ``inspect``) nor ``fractions`` (nor
its ``decimal``).
"""

from importlib import import_module as _import_module

#: default zero-test tolerance of every backend and of the disc checks
DEFAULT_TOL = 1e-9

__version__ = "0.1.0"

#: public name -> submodule it is imported from on first access (PEP 562)
_LAZY = {
    "scalars": "scalars",
    **dict.fromkeys((
        "ApproxComplex", "Cyclotomic", "root_of_unity", "scalar_is_zero",
    ), "scalars"),
    "exterior": "exterior",
    **dict.fromkeys((
        "GradedMatrixComplex", "NotAComplexError", "cohomology_ranks",
        "index_sets", "koszul_complex", "rank", "wedge_by_vector",
    ), "exterior"),
    "floer": "floer",
    **dict.fromkeys((
        "HolonomyAssignment", "RankTable", "SpinStructure",
        "WeightVector", "brane_configs", "evaluate_cell",
        "floer_ranks_bruteforce", "floer_ranks_closedform", "spin_configs",
        "standard_spin", "weights",
    ), "floer"),
    "oracle": "oracle",
    **dict.fromkeys((
        "koszul_rescale_check", "simplex_coboundary",
    ), "oracle"),
    "discs": "discs",
    **dict.fromkeys((
        "BlaschkeComponent", "BlaschkeDisc", "BlaschkeFactor",
        "DegenerateDiscError", "disc_eval", "maslov_index",
        "solve_disc_through_point",
    ), "discs"),
    "maslov": "maslov",
    **dict.fromkeys((
        "ChartError", "FrameError", "FrameLoop", "LagrangianFrame",
        "UndersampledLoopError", "b_map", "disc_boundary_maslov",
        "loop_maslov", "winding_number",
    ), "maslov"),
}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY.keys())


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
