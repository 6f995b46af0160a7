"""Floer cohomology of the Clifford torus.

Library layout:

* :mod:`cftorus.scalars`  -- exact cyclotomic / tolerance-based complex backends
* :mod:`cftorus.exterior` -- exterior algebra, wedge matrices, ranks
* :mod:`cftorus.floer`    -- spin structures, holonomies, the coboundary, scans
* :mod:`cftorus.discs`    -- Blaschke-product discs and the point solver
* :mod:`cftorus.maslov`   -- numeric winding-number Maslov indices
* :mod:`cftorus.signs`    -- orientation sign conventions and their replays
* :mod:`cftorus.oracle`   -- simplicial-cochain brute-force cross-checks
* :mod:`cftorus.cli`      -- the ``cftorus`` command
"""

from .scalars import (
    ApproxComplex,
    Cyclotomic,
    DEFAULT_TOL,
    root_of_unity,
    scalar_is_zero,
)
from .exterior import (
    ExteriorClass,
    GradedMatrixComplex,
    NotAComplexError,
    cohomology_ranks,
    index_sets,
    insert_sign,
    koszul_complex,
    rank,
    wedge_by_vector,
)
from .floer import (
    FullDifferential,
    HolonomyAssignment,
    HomotopyClass,
    NovikovCochain,
    RankTable,
    SpinStructure,
    WeightVector,
    brane_configs,
    brane_scan,
    brane_scan_cells,
    delta2,
    dimension_deficit,
    evaluate_cell,
    floer_ranks_bruteforce,
    floer_ranks_closedform,
    full_differential,
    spin_configs,
    spin_scan,
    standard_spin,
    weights,
)
from .discs import (
    BlaschkeComponent,
    BlaschkeDisc,
    BlaschkeFactor,
    DegenerateDiscError,
    MoebiusMap,
    disc_eval,
    disc_make,
    homotopy_class,
    maslov_index,
    psl2_act,
    solve_disc_through_point,
)
from .maslov import (
    ChartError,
    FrameError,
    FrameLoop,
    LagrangianFrame,
    UndersampledLoopError,
    b_map,
    disc_boundary_maslov,
    loop_maslov,
    winding_number,
)
from .signs import (
    OrientedFactor,
    OrientedFactorization,
    boundary_fibre_signs,
    evaluation_orientation_sign,
    fibre_product_sign,
    gluing_sign,
    moduli_dim,
    permute_sign,
    squarezero_chain,
)
from .oracle import (
    CochainAssignment,
    NotACocycleError,
    koszul_rescale_check,
    simplex_coboundary,
    solve_cocycle,
)

__version__ = "0.1.0"
