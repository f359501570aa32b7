"""Effective base model, predicted eigenfunctions, and discrepancy measures.

The effective 1D operator on the base circle predicts, for each simple
eigenvalue ``mu`` with eigenfunction ``psi``, a full eigenvalue
``lambda_F + eps^2 mu`` and a full eigenfunction proportional to
``psi(s) * phi0(s, .)``, with ``phi0`` the fibrewise ground state and
``lambda_F`` its eigenvalue.  This module builds those predictions and
measures how far a computed full eigenpair is from them: rescaled
eigenvalue gap, sup-norm error, metric Hausdorff distance of nodal sets,
nodal counts, boundary traces, and the graph-over-fibre structure check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateEffectiveEigenvalue, GridTooCoarse, PairingAmbiguous
from .eigensolve import EigenPairSet, SolveConfig, smallest_eigenpairs
from .geometry import BundleGeometry, WarpedTorusGeometry, WaveguideGeometry, as_epsilon
from .nodal import (
    _circle_dist,
    boundary_trace_components,
    count_nodal_domains,
    extract_nodal_set,
    field_from_operator,
    graph_over_fiber_check,
    hausdorff_distance,
    zeros_of_base,
)
from .operators import (
    MIN_POINTS,
    DiscreteOperator,
    GridSpec,
    _fiber_blocks,
    _fiber_ground,
    base_nodes,
    fiber_nodes,
)

__all__ = [
    "Prediction",
    "DiscrepancyRecord",
    "fiber_ground_energy",
    "build_prediction",
    "measure_discrepancy",
    "paired_level",
    "require_simple",
    "volume_weight",
]

SIMPLE_GAP = 1e-8
PAIRING_TOL = 1e-8


def fiber_ground_energy(geom: WaveguideGeometry, eps, s: float, n_f: int) -> float:
    """Ground value of the waveguide's fibre problem at base point ``s``.

    Takes the lowest eigenvalue of the full operator's own fibre block at
    ``s`` on ``n_f`` and ``2 n_f`` cells and Richardson-extrapolates the
    second-order scheme.
    """
    eps = as_epsilon(eps)
    geom.check_tube(eps)
    if n_f < MIN_POINTS:
        raise GridTooCoarse(f"need at least {MIN_POINTS} fibre cells")
    coarse, fine = (_fiber_ground(*_fiber_blocks(geom, eps, s, n, 1.0)) for n in (n_f, 2 * n_f))
    return (4.0 * fine - coarse) / 3.0


def volume_weight(geom: BundleGeometry, grid: GridSpec) -> np.ndarray:
    """Diagonal weight of the eps-independent volume on the grid nodes."""
    s, h_s = base_nodes(geom, grid.n_s)
    f, _, h_f = fiber_nodes(geom, grid.n_f)
    if isinstance(geom, WarpedTorusGeometry):
        w = np.repeat(geom.warp_value(s), len(f))
    else:
        w = np.ones(grid.n_s * len(f))
    return w * h_s * h_f


@dataclass
class Prediction:
    """Effective eigenpair of one grid level and its tensorized eigenfunction.

    Nothing here depends on eps: the effective problem does not.  The
    full eigenvalue that ``mu`` predicts is ``fiber_ground_disc + eps^2 mu``
    of the full operator it is compared with.  The prediction places no
    shift: a full solve runs at its operator's ``safe_shift``.
    """

    mode_index: int
    mu: float
    pred_field: np.ndarray  # (n_s, n_rows), unit norm in the eps-independent volume
    zeros: list[tuple[float, float]]
    phi0_min: float


@dataclass
class DiscrepancyRecord:
    """Measured gaps between one full eigenpair and its prediction.

    ``zeros`` holds the base positions of the predicted zeros.  A study
    fills ``disc_estimates`` from the next grid level, and with the
    ``courant`` check ``courant_counts``, the nodal domain counts of the
    lowest levels.
    """

    eps: float
    mode_index: int
    lambda_full: float
    mu: float
    eig_gap: float
    supnorm: float
    hausdorff: Optional[float]
    domain_count: int
    component_count: int
    boundary_components: int
    graph_over_fiber: Optional[bool]
    zeros: list[float]
    disc_estimates: dict = field(default_factory=dict)
    tube_radius: Optional[float] = None
    empirical_tube_constant: Optional[float] = None
    courant_counts: Optional[list[int]] = None


def require_simple(values: np.ndarray, index: int, what: str) -> None:
    """Refuse ``values[index]`` unless it lies more than ``SIMPLE_GAP`` from each neighbour."""
    neighbours = [values[i] for i in (index - 1, index + 1) if 0 <= i < len(values)]
    gap = min(abs(values[index] - nb) for nb in neighbours) if neighbours else np.inf
    if gap <= SIMPLE_GAP:
        raise DegenerateEffectiveEigenvalue(
            f"{what} {float(values[index]):.12g} has neighbour gap {gap:.3e}")


def build_prediction(eff: DiscreteOperator, mode_index: int,
                     cfg: Optional[SolveConfig] = None) -> Prediction:
    """Solve the effective problem and tensorize mode ``mode_index``.

    ``eff`` is the operator of :func:`fibrelab.operators.assemble_effective`;
    geometry, grid and base nodes are its own.  The predicted field
    is ``psi(s) * phi0``, with the fibrewise L2-normalized ground state
    ``phi0 = Vol(s)^{-1/2}`` on the torus and ``cos(pi u / 2)`` on the
    waveguide, scaled to unit norm with its largest entry positive.
    ``cfg`` supplies at least ``mode_index + 2`` pairs; its shift, meant
    for a full operator, is dropped.  Requires the effective eigenvalue to
    be simple (gap above 1e-8 to its neighbours) and its eigenfunction to
    have only transversal zeros.
    """
    geom, grid = eff.geometry, eff.grid
    cfg = cfg or SolveConfig(k=mode_index + 2)
    pairs = smallest_eigenpairs(eff,
                                replace(cfg, k=max(cfg.k, mode_index + 2), shift=None))
    require_simple(pairs.values, mode_index, "effective eigenvalue")
    mu = float(pairs.values[mode_index])

    psi = pairs.vectors[:, mode_index]
    s, _ = base_nodes(geom, grid.n_s)
    zeros = zeros_of_base(psi, s, geom.period)

    f, _, _ = fiber_nodes(geom, grid.n_f)
    if isinstance(geom, WarpedTorusGeometry):
        phi0 = 1.0 / np.sqrt(geom.fiber_volume(s))
        pred = np.repeat((psi * phi0)[:, None], len(f), axis=1)
    else:
        phi0 = np.cos(0.5 * np.pi * f)
        pred = psi[:, None] * phi0[None, :]
    w1 = volume_weight(geom, grid).reshape(pred.shape)
    pred = pred / np.sqrt(float(np.sum(pred * pred * w1)))
    if pred.ravel()[int(np.argmax(np.abs(pred)))] < 0.0:
        pred = -pred

    return Prediction(
        mode_index=mode_index,
        mu=mu,
        pred_field=pred,
        zeros=zeros,
        phi0_min=float(phi0.min()),
    )


def paired_level(full: EigenPairSet, mode_index: int) -> int:
    """Index in ``full`` of the level that effective mode ``mode_index`` pairs with.

    Mode j pairs with the j-th full level of fibre mode 0 when the pairs
    carry fibre labels, and with the j-th level in ascending order
    otherwise.  Raises ``PairingAmbiguous`` when ``full`` holds fewer
    than j + 1 such levels.
    """
    if full.fiber_modes is None:
        ground_levels = np.arange(len(full.values))
    else:
        ground_levels = np.flatnonzero(full.fiber_modes == 0)
    if mode_index >= len(ground_levels):
        raise PairingAmbiguous(f"mode {mode_index} needs {mode_index + 1} fibre-ground "
                               f"levels, found {len(ground_levels)}")
    return int(ground_levels[mode_index])


def measure_discrepancy(op: DiscreteOperator, full: EigenPairSet,
                        pred: Prediction) -> DiscrepancyRecord:
    """Compare the paired full eigenpair against the prediction.

    The full level is the one :func:`paired_level` names.  Eigenvalues are
    compared after subtracting the discrete fibre ground value and
    dividing by eps^2; an ambiguity guard rejects the comparison when two
    rescaled eigenvalues of ``full`` sit within 1e-8 of the effective one.
    """
    geom, grid, eps = op.geometry, op.grid, op.eps
    j = pred.mode_index
    idx = paired_level(full, j)
    rescaled = (full.values - op.fiber_ground_disc) / (eps * eps)
    if int(np.count_nonzero(np.abs(rescaled - pred.mu) < PAIRING_TOL)) >= 2:
        raise PairingAmbiguous(
            f"two rescaled eigenvalues within {PAIRING_TOL} of mu={pred.mu:.12g}"
        )
    eig_gap = float(abs(rescaled[idx] - pred.mu))

    fld = field_from_operator(op, full.vectors[:, idx])
    w1 = volume_weight(geom, grid).reshape(fld.values.shape)
    phi = fld.values / np.sqrt(float(np.sum(fld.values**2 * w1)))
    anchor = int(np.argmax(np.abs(pred.pred_field)))
    if phi.ravel()[anchor] * pred.pred_field.ravel()[anchor] < 0.0:
        phi = -phi
    fld.values = phi
    supnorm = float(np.max(np.abs(phi - pred.pred_field)))

    nodal_set = extract_nodal_set(fld)
    domains = count_nodal_domains(fld)
    zeros_s = [z[0] for z in pred.zeros]

    hausdorff = None
    if zeros_s and len(nodal_set.segments):
        # Both sets are sampled at this spacing, so the sup-inf carries a
        # sampling error of up to half a spacing: a nodal point between two
        # fibre samples can lie that far from both (ROADMAP open item 4).
        spacing = 0.125 * min(fld.h_s, fld.h_f)
        hausdorff = hausdorff_distance(nodal_set, zeros_s, geom, spacing)

    boundary = 0
    graph: Optional[bool] = None
    tube_radius = None
    emp_c = None
    if isinstance(geom, WaveguideGeometry):
        boundary = boundary_trace_components(nodal_set)
    else:
        if pred.zeros:
            min_slope = min(abs(sl) for _, sl in pred.zeros)
            radius = 2.0 * supnorm / (min_slope * pred.phi0_min)
            # the zeros ascend in s, so the gaps, the wrap gap included, sum to a period
            spacing_cap = 0.45 * np.diff(zeros_s + [zeros_s[0] + geom.period]).min()
            tube_radius = float(min(max(radius, 4.0 * fld.h_s), spacing_cap))
        else:
            tube_radius = 4.0 * fld.h_s
        graph = graph_over_fiber_check(nodal_set, zeros_s, tube_radius)
        if len(nodal_set.segments) and zeros_s:
            seg_s = nodal_set.segments[:, :, 0].ravel()
            d = _circle_dist(seg_s[:, None], np.asarray(zeros_s)[None, :], geom.period)
            emp_c = float(d.min(axis=1).max() / eps)

    return DiscrepancyRecord(
        eps=eps,
        mode_index=j,
        lambda_full=float(full.values[idx]),
        mu=pred.mu,
        eig_gap=eig_gap,
        supnorm=supnorm,
        hausdorff=hausdorff,
        domain_count=domains,
        component_count=nodal_set.component_count,
        boundary_components=boundary,
        graph_over_fiber=graph,
        zeros=zeros_s,
        tube_radius=tube_radius,
        empirical_tube_constant=emp_c,
    )
