"""Finite-solvability analysis of structure-from-motion viewing graphs.

Decides whether the fundamental matrices on a viewing graph pin down the
cameras up to finitely many projective classes (a sparse Jacobian rank
test), partitions unsolvable graphs into maximal finite-solvable
components, and ships mining/sweep harnesses for exhaustive and randomized
experiments.
"""

from .engine import (
    DEFAULT_PRIME,
    DEFAULT_TOLERANCE,
    Component,
    ComponentPartition,
    JacobianSystem,
    RankComputationError,
    SolvabilityReport,
    assemble_jacobian,
    derive_seeds,
    export_matrix_market,
    finite_field_rank,
    finite_solvability,
    is_full_column_rank,
    matrix_dims,
    maximal_components,
    null_space_basis,
)
from .geometry import (
    CameraConfiguration,
    CoincidentCentersError,
    DegenerateConfigurationError,
    FundamentalAssignment,
    compatibility_residual,
    fundamental_assignment,
    fundamental_matrix,
    normalize_projective,
    random_generic_configuration,
    residual_jac_cam_i,
    residual_jac_cam_j,
    residual_jac_fmat,
    vec,
    vech,
)
from .graph import (
    BlockCut,
    GraphParseError,
    GraphValidationError,
    NecessaryConditionResult,
    ViewingGraph,
    minimal_edge_count,
    necessary_conditions,
    parse_edge_list,
    to_edge_list,
)
from .mining import (
    MiningResult,
    SweepResult,
    canonical_form,
    density_sweep,
    enumerate_candidates,
    mine_minimal,
    sample_graph,
)

__version__ = "0.1.0"
