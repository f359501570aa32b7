"""Spectral and nodal-set analysis of thin fibre bundles.

Two desk-scale testbeds, a warped torus over the circle and a bent planar
waveguide, are discretized with symmetric divergence-form finite
differences.  The package pairs their low eigenvalues and eigenfunctions
against an effective one-dimensional model on the base circle, extracts
and measures nodal sets, and runs guarded convergence studies in the
fibre-thinning parameter eps.
"""

from .effective import (
    DiscrepancyRecord,
    FiberGroundState,
    Prediction,
    build_prediction,
    fiber_ground_energy,
    fiber_ground_state,
    measure_discrepancy,
    sup_rate_factor,
)
from .eigensolve import EigenPairSet, SolveConfig, smallest_eigenpairs, verify_pairs
from .errors import (
    ConfigError,
    DegenerateEffectiveEigenvalue,
    DegenerateField,
    EmptySet,
    FactorizationFailed,
    FibrelabError,
    GridTooCoarse,
    InsufficientPoints,
    NoConvergence,
    NonTransversalZero,
    PairingAmbiguous,
    TubeDegenerate,
)
from .geometry import (
    MetricSample,
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
    metric_sample,
)
from .nodal import (
    FiberLines,
    NodalReport,
    NodalSet,
    ScalarField,
    boundary_trace_components,
    count_nodal_domains,
    extract_nodal_set,
    field_from_operator,
    graph_over_fiber_check,
    hausdorff_distance,
    nodal_set_to_csv,
    zeros_of_base,
)
from .operators import (
    DiscreteOperator,
    EffectiveOperator,
    GridSpec,
    assemble_effective,
    assemble_fiber,
    assemble_full,
    density_potential,
    grid_for,
)
from .study import (
    RateFit,
    StudyConfig,
    StudyReport,
    emit_report,
    fit_rate,
    geometry_from_config,
    load_config,
    run_study,
    self_check,
)

__version__ = "0.1.0"
