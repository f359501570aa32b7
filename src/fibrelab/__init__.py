"""Spectral and nodal-set analysis of thin fibre bundles.

Two desk-scale testbeds, a warped torus over the circle and a bent planar
waveguide, are discretized with symmetric divergence-form finite
differences.  The package pairs their low eigenvalues and eigenfunctions
against an effective one-dimensional model on the base circle, extracts
and measures nodal sets, and runs guarded convergence studies in the
fibre-thinning parameter eps.
"""

from .effective import build_prediction, fiber_ground_energy, measure_discrepancy
from .eigensolve import SolveConfig, smallest_eigenpairs
from .errors import DegenerateEffectiveEigenvalue
from .geometry import PeriodicProfile, WarpedTorusGeometry, WaveguideGeometry, metric_sample
from .nodal import boundary_trace_components, extract_nodal_set, field_from_operator
from .operators import GridSpec, assemble_effective, assemble_full, density_potential
from .report import emit_report, nodal_set_to_csv
from .study import load_config, run_study

__version__ = "0.1.0"
