"""The torus rows of the rate checks on a torus whose fibre metric varies along the fibre.

On a warped torus ``ds^2/eps^2 + a(s)^2 df^2`` the fibre-constant sector
is an exact eigenspace whatever eps, so every torus record of a study sits
at the discretization floor.  With ``a(s, f) = a_bar(s) (1 + beta cos s
cos f)`` the projection is still a Riemannian submersion with closed
fibres and a constant fibre ground state, and projected onto fibre
constants the operator is the warped torus's with the fibre-averaged warp
``a_bar``.  For ``beta != 0`` the fibre constants couple to the excited
fibre modes, so the rescaled eigenvalue gap to that effective model is
resolved and falls as eps^2.  The operator is built here from the public
stencil, on the grid levels and with the estimates of a study, and judged
by the study's own ``eig_rate`` evaluator.
"""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from fibrelab.effective import build_prediction, measure_discrepancy
from fibrelab.eigensolve import SolveConfig, smallest_eigenpairs
from fibrelab.geometry import PeriodicProfile, WarpedTorusGeometry
from fibrelab.operators import (
    DiscreteOperator,
    GridSpec,
    assemble_effective,
    base_nodes,
    fiber_nodes,
    staggered_diff_periodic,
)
from fibrelab.study import CHECKS

TWO_PI = 2.0 * np.pi
EPSILONS = [0.4, 0.2, 0.1, 0.05]
LEVELS = [GridSpec(64, 32, 4), GridSpec(128, 64, 4)]
ESTIMATE_FACTOR = 16.0 / 15.0  # a study's 1 / (1 - refine^-order) at refine 2, order 4
# the warp of the mode-1 torus acceptance study: no reflection symmetry, so level 1 is simple
AVERAGED = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 0.0, (0.3, 0.15)),
                               warp_is_exp=True)


def coupled_operator(beta: float, eps: float, grid: GridSpec) -> DiscreteOperator:
    """``(K, W)`` of ``ds^2/eps^2 + a(s, f)^2 df^2``, ``a = a_bar(s) (1 + beta cos s cos f)``.

    Divergence form as the assembler builds it: ``sqrt(det g) g^ss = eps a``
    at the base midpoints, ``sqrt(det g) g^ff = 1/(eps a)`` at the fibre
    midpoints and ``W = a/eps`` at the nodes, each times the cell.  The
    operator's geometry is the averaged warped torus, whose grid it shares.
    """
    s, h_s = base_nodes(AVERAGED, grid.n_s)
    f, _, h_f = fiber_nodes(AVERAGED, grid.n_f)

    def warp(s, f):
        return AVERAGED.warp_value(s)[:, None] * (1.0 + beta * np.outer(np.cos(s), np.cos(f)))

    cell = h_s * h_f
    d_s = sp.kron(staggered_diff_periodic(grid.n_s, h_s, grid.stencil_order),
                  sp.identity(grid.n_f))
    d_f = sp.kron(sp.identity(grid.n_s),
                  staggered_diff_periodic(grid.n_f, h_f, grid.stencil_order))
    c_s = (eps * warp(s + 0.5 * h_s, f)).ravel() * cell
    c_f = (1.0 / (eps * warp(s, f + 0.5 * h_f))).ravel() * cell
    k = d_s.T @ sp.diags(c_s) @ d_s + d_f.T @ sp.diags(c_f) @ d_f
    return DiscreteOperator(matrix=sp.csr_matrix(k),
                            weight=(warp(s, f) / eps).ravel() * cell,
                            geometry=AVERAGED, eps=eps, grid=grid)


def coupled_records(beta: float):
    """The mode-1 records at each eps, with a study's discretization estimates."""
    cfg = SolveConfig(k=4, tol=1e-8, max_iter=5000, seed=0)
    preds = [build_prediction(assemble_effective(AVERAGED, grid), 1, cfg) for grid in LEVELS]
    records = []
    for eps in EPSILONS:
        coarse, fine = (
            measure_discrepancy(op, smallest_eigenpairs(op, cfg), pred)
            for op, pred in ((coupled_operator(beta, eps, grid), pred)
                             for grid, pred in zip(LEVELS, preds)))
        coarse.disc_estimates = {"eig_gap": abs(coarse.eig_gap - fine.eig_gap) * ESTIMATE_FACTOR}
        records.append(coarse)
    return records


@pytest.fixture(scope="module", params=[0.0, 0.3], ids=["beta0", "beta0.3"])
def beta_records(request):
    return request.param, coupled_records(request.param)


def test_eig_rate_judges_the_torus_row(beta_records):
    beta, records = beta_records
    check = CHECKS["eig_rate"](types.SimpleNamespace(geometry=AVERAGED), records)
    assert (check.theory, check.threshold) == (2.0, 1.7)
    gaps = [rec.eig_gap for rec in records]
    if beta == 0.0:
        # the warped product: the fibre-constant sector is exact, every gap the floor's
        assert check.passed and check.fit is None, check.reason
        assert check.reason.startswith("all points at the discretization floor"), check.reason
        assert max(gaps) < 1e-6, gaps
    else:
        # measured 4.092e-3, 9.861e-4, 2.478e-4 and 6.180e-5: eps^2, far above the floor
        assert check.passed and check.fit is not None, check.reason
        assert check.slope >= 1.7, check.reason
        assert len(check.fit.points_used) == len(EPSILONS)
        assert gaps[0] == pytest.approx(4.092e-3, rel=1e-3)
        assert gaps[-1] == pytest.approx(6.180e-5, rel=1e-3)
