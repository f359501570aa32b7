"""Effective base model, predicted eigenfunctions, and discrepancy measures.

The effective 1D operator on the base circle predicts, for each simple
eigenvalue ``mu`` with eigenfunction ``psi``, a full eigenvalue
``lambda0 + eps^2 mu`` and a full eigenfunction proportional to
``psi(s) * phi0(s, .)`` where ``phi0`` is the fibrewise ground state.
This module builds those predictions and measures how far a computed
full eigenpair is from them: rescaled eigenvalue gap, sup-norm error,
metric Hausdorff distance of nodal sets, nodal counts, boundary traces,
and the graph-over-fibre structure check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateEffectiveEigenvalue, PairingAmbiguous
from .eigensolve import EigenPairSet, SolveConfig, smallest_eigenpairs
from .geometry import BundleGeometry, WarpedTorusGeometry, WaveguideGeometry, as_epsilon
from .nodal import (
    FiberLines,
    NodalReport,
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
    DiscreteOperator,
    EffectiveOperator,
    GridSpec,
    assemble_fiber,
    base_nodes,
    fiber_nodes,
)

__all__ = [
    "Prediction",
    "DiscrepancyRecord",
    "fiber_ground_energy",
    "build_prediction",
    "measure_discrepancy",
    "sup_rate_factor",
    "volume_weight",
]

SIMPLE_GAP = 1e-8
PAIRING_TOL = 1e-8


def fiber_ground_energy(geom: WaveguideGeometry, eps, s: float, n_f: int,
                        cfg: Optional[SolveConfig] = None) -> float:
    """Ground value of the perturbed fibre operator at base point ``s``.

    Solves the Dirichlet fibre problem on ``n_f`` and ``2 n_f`` cells and
    Richardson-extrapolates the second-order scheme.
    """
    eps = as_epsilon(eps)
    cfg = cfg or SolveConfig(k=1)
    coarse = smallest_eigenpairs(assemble_fiber(geom, eps, s, n_f), cfg).values[0]
    fine = smallest_eigenpairs(assemble_fiber(geom, eps, s, 2 * n_f), cfg).values[0]
    return float((4.0 * fine - coarse) / 3.0)


def sup_rate_factor(base_dim: int, eps) -> float:
    """Dimension-dependent factor in the uniform eigenfunction error."""
    eps = as_epsilon(eps)
    if base_dim == 1:
        return 1.0
    if base_dim == 2:
        return math.sqrt(math.log(1.0 / eps))
    if base_dim == 3:
        return eps ** (-0.5)
    raise ValueError("base dimension must be 1, 2 or 3")


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

    Nothing here depends on eps: the effective problem does not, and only
    the predicted full eigenvalue :meth:`predicted_lambda` involves it.
    """

    mode_index: int
    mu: float
    pred_field: np.ndarray  # (n_s, n_rows), unit norm in the eps-independent volume
    zeros: list[tuple[float, float]]
    phi0_min: float
    lambda0: float

    def predicted_lambda(self, eps) -> float:
        """Predicted full eigenvalue ``lambda0 + eps^2 mu``."""
        eps = as_epsilon(eps)
        return self.lambda0 + eps * eps * self.mu


@dataclass
class DiscrepancyRecord:
    """Measured gaps between one full eigenpair and its prediction."""

    eps: float
    mode_index: int
    lambda_full: float
    mu: float
    eig_gap: float
    supnorm: float
    hausdorff: Optional[float]
    nodal: NodalReport
    disc_error_estimate: Optional[float] = None
    disc_estimates: dict = field(default_factory=dict)
    tube_radius: Optional[float] = None
    empirical_tube_constant: Optional[float] = None


def build_prediction(eff: EffectiveOperator, mode_index: int,
                     cfg: Optional[SolveConfig] = None) -> Prediction:
    """Solve the effective problem and tensorize mode ``mode_index``.

    Geometry and grid are those of ``eff.operator``.  The predicted field
    is ``psi(s) * phi0``, with the fibrewise L2-normalized ground state
    ``phi0 = Vol(s)^{-1/2}`` on the torus and ``cos(pi u / 2)`` on the
    waveguide, scaled to unit norm with its largest entry positive.
    ``cfg`` supplies at least ``mode_index + 2`` pairs; its shift, meant
    for a full operator, is dropped.  Requires the effective eigenvalue to
    be simple (gap above 1e-8 to its neighbours) and its eigenfunction to
    have only transversal zeros.
    """
    geom, grid = eff.operator.geometry, eff.operator.grid
    cfg = cfg or SolveConfig(k=mode_index + 2)
    pairs = smallest_eigenpairs(eff.operator,
                                replace(cfg, k=max(cfg.k, mode_index + 2), shift=None))
    mu = float(pairs.values[mode_index])
    neighbours = [pairs.values[i] for i in (mode_index - 1, mode_index + 1)
                  if 0 <= i < len(pairs.values)]
    gap = min(abs(mu - nb) for nb in neighbours) if neighbours else np.inf
    if gap <= SIMPLE_GAP:
        raise DegenerateEffectiveEigenvalue(
            f"effective eigenvalue {mu:.12g} has neighbour gap {gap:.3e}"
        )

    psi = pairs.vectors[:, mode_index]
    zeros = zeros_of_base(psi, eff.s_nodes, geom.period)

    f, _, _ = fiber_nodes(geom, grid.n_f)
    if isinstance(geom, WarpedTorusGeometry):
        phi0 = 1.0 / np.sqrt(geom.fiber_volume(eff.s_nodes))
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
        lambda0=eff.lambda0,
    )


def measure_discrepancy(op: DiscreteOperator, full: EigenPairSet,
                        pred: Prediction) -> DiscrepancyRecord:
    """Compare the paired full eigenpair against the prediction.

    Effective mode j pairs with the j-th full level of fibre mode 0 when
    the pairs carry fibre labels, and with the j-th level in ascending
    order otherwise.  Eigenvalues are compared after subtracting the
    discrete fibre ground value and dividing by eps^2; an ambiguity guard
    rejects the comparison when two rescaled eigenvalues sit within 1e-8
    of the effective one.
    """
    geom, grid, eps = op.geometry, op.grid, op.eps
    j = pred.mode_index
    if full.fiber_modes is None:
        ground_levels = np.arange(len(full.values))
    else:
        ground_levels = np.flatnonzero(full.fiber_modes == 0)
    if j >= len(ground_levels):
        raise PairingAmbiguous(
            f"mode {j} needs {j + 1} fibre-ground levels, found {len(ground_levels)}"
        )
    idx = int(ground_levels[j])
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
        hausdorff = hausdorff_distance(nodal_set, FiberLines(np.asarray(zeros_s)), geom, spacing)

    boundary = 0
    graph: Optional[bool] = None
    tube_radius = None
    emp_c = None
    if isinstance(geom, WaveguideGeometry):
        boundary = boundary_trace_components(nodal_set, geom)
    else:
        if pred.zeros:
            min_slope = min(abs(sl) for _, sl in pred.zeros)
            radius = 2.0 * supnorm / (min_slope * pred.phi0_min)
            spacing_cap = 0.45 * min(
                np.diff(sorted(zeros_s + [zeros_s[0] + geom.period])).min(), geom.period
            ) if len(zeros_s) else geom.period
            tube_radius = float(min(max(radius, 4.0 * fld.h_s), spacing_cap))
        else:
            tube_radius = 4.0 * fld.h_s
        graph = graph_over_fiber_check(nodal_set, pred.zeros, tube_radius)
        if len(nodal_set.segments) and zeros_s:
            seg_s = nodal_set.segments[:, :, 0].ravel()
            d = _circle_dist(seg_s[:, None], np.asarray(zeros_s)[None, :], geom.period)
            emp_c = float(d.min(axis=1).max() / eps)

    report = NodalReport(
        domain_count=domains,
        component_count=nodal_set.component_count,
        hausdorff=hausdorff,
        boundary_components=boundary,
        graph_over_fiber=graph,
        zero_list=zeros_s,
    )
    return DiscrepancyRecord(
        eps=eps,
        mode_index=j,
        lambda_full=float(full.values[idx]),
        mu=pred.mu,
        eig_gap=eig_gap,
        supnorm=supnorm,
        hausdorff=hausdorff,
        nodal=report,
        tube_radius=tube_radius,
        empirical_tube_constant=emp_c,
    )
