"""Divergence-form finite-difference operators for the two testbeds.

Every operator is assembled as ``K = sum_d B_d^T B_d`` with
``B_d = sqrt(C_d) D_d``, where ``D_d`` is a staggered first-difference
matrix (nodes to edge midpoints) and ``C_d`` holds the analytic
coefficient ``sqrt(det g) * g^dd`` at the edge midpoints times the cell
measure.  This makes ``K`` bitwise symmetric and positive semidefinite by
construction, with ``K @ 1 = 0`` exactly on closed geometries.  The
eigenproblem is the generalized pair ``K x = lambda W x`` with the
positive diagonal volume weight ``W``.

Stencil orders 2 and 4 are supported in periodic directions.  The
Dirichlet fibre direction of the waveguide always uses the second-order
three-point flux: a one-sided fourth-order closure would either break the
exact-symmetry contract or lose pointwise consistency near the walls, and
the eigenvalue bias it would remove is cancelled downstream against the
matching discrete fibre ground value instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import GridTooCoarse, TubeDegenerate
from .geometry import (
    BundleGeometry,
    WarpedTorusGeometry,
    WaveguideGeometry,
    as_epsilon,
)

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "FiberFactors",
    "EffectiveOperator",
    "assemble_full",
    "assemble_effective",
    "assemble_fiber",
    "density_potential",
    "staggered_diff_periodic",
    "staggered_diff_dirichlet",
    "dirichlet_ground_value",
]

MIN_POINTS = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: ``n_s`` base points, ``n_f`` fibre cells.

    The base direction is always periodic.  The fibre boundary follows
    from the geometry: periodic on the torus (``n_f`` nodes) and Dirichlet
    on the waveguide (``n_f`` cells, ``n_f - 1`` stored interior nodes).
    """

    n_s: int
    n_f: int
    stencil_order: int = 2

    def __post_init__(self) -> None:
        if self.n_s < MIN_POINTS or self.n_f < MIN_POINTS:
            raise GridTooCoarse(f"need at least {MIN_POINTS} points per direction")
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.n_s * factor, self.n_f * factor, self.stencil_order)


@dataclass(frozen=True)
class FiberFactors:
    """The 1D factors of a warped-product operator.

    ``K = base_stiffness ⊗ I + diag(fiber_coeff) ⊗ L_f`` and
    ``W = base_weight ⊗ 1``, where ``L_f = d_f^T d_f`` is the circulant
    integer-stencil fibre matrix.  ``fiber_symbols[m]`` is the eigenvalue
    of ``L_f`` on the fibre modes ``cos, sin(2 pi m j / n_f)`` for
    ``m = 0 .. n_f // 2``.
    """

    base_stiffness: sp.csr_matrix
    fiber_coeff: np.ndarray
    fiber_symbols: np.ndarray
    base_weight: np.ndarray


@dataclass
class DiscreteOperator:
    """Sparse symmetric stiffness ``K`` with positive diagonal weight ``W``.

    ``fiber_ground_disc`` is the ground value of the matching discrete
    fibre operator (0 on closed geometries, the three-point Dirichlet
    ground value on the waveguide); subtracting it instead of the
    continuum value cancels the fibre discretization bias in rescaled
    eigenvalue comparisons.  ``fiber_factors`` is set on the warped torus,
    whose operator separates exactly in the fibre direction.
    """

    dim: int
    stiffness: sp.csr_matrix
    weight: np.ndarray
    geometry: Optional[BundleGeometry] = None
    eps: Optional[float] = None
    grid: Optional[GridSpec] = None
    fiber_ground_disc: float = 0.0
    positive_definite: bool = False
    fiber_factors: Optional[FiberFactors] = None

    def symmetry_defect(self) -> float:
        d = self.stiffness - self.stiffness.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))

    def rayleigh(self, x: np.ndarray) -> float:
        return float(x @ (self.stiffness @ x)) / float(x @ (self.weight * x))


@dataclass
class EffectiveOperator:
    """Discrete 1D model ``-d^2/ds^2 + V_eff`` on the base circle."""

    operator: DiscreteOperator
    potential: np.ndarray
    lambda0: float
    s_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _staggered_int_periodic(n: int, order: int) -> tuple[sp.csr_matrix, float]:
    """Integer-stencil staggered derivative and its denominator.

    The returned matrix has integer entries, so constants are annihilated
    exactly; the true derivative is ``(matrix @ f) / (denom * h)``.
    """
    rows, cols, vals = [], [], []
    if order == 2:
        denom = 1.0
        for i in range(n):
            rows += [i, i]
            cols += [i, (i + 1) % n]
            vals += [-1.0, 1.0]
    else:
        denom = 24.0
        for i in range(n):
            rows += [i] * 4
            cols += [(i - 1) % n, i, (i + 1) % n, (i + 2) % n]
            vals += [1.0, -27.0, 27.0, -1.0]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), denom


def staggered_diff_periodic(n: int, h: float, order: int) -> sp.csr_matrix:
    """Staggered first derivative, nodes to midpoints, periodic wrap.

    Row ``i`` approximates f'(s_i + h/2); order 2 uses the two adjacent
    nodes, order 4 the four-node stencil (f_{i-1} - 27 f_i + 27 f_{i+1}
    - f_{i+2}) / 24h.
    """
    d, denom = _staggered_int_periodic(n, order)
    return (d * (1.0 / (denom * h))).tocsr()


def _circulant_symbols(d: sp.csr_matrix, m_max: int) -> np.ndarray:
    """Eigenvalues of ``d^T d`` on the Fourier modes ``m = 0 .. m_max``.

    ``d`` is circulant, so its symbol is the row-0 stencil summed against
    ``exp(2 pi i m col / n)``; the integer stencil sums to exactly 0 at m = 0.
    """
    row = d.getrow(0).tocoo()
    theta = 2.0 * np.pi * np.arange(m_max + 1) / d.shape[1]
    return np.abs(np.exp(1j * np.outer(theta, row.col)) @ row.data) ** 2


def _staggered_int_dirichlet(n_cells: int, order: int) -> tuple[sp.csr_matrix, float]:
    """Integer-stencil Dirichlet staggered derivative and its denominator."""
    m = n_cells - 1
    rows, cols, vals = [], [], []

    def add(r: int, node: int, v: float) -> None:
        if 1 <= node <= m:
            rows.append(r)
            cols.append(node - 1)
            vals.append(v)

    if order == 2:
        denom = 1.0
        for r in range(n_cells):
            add(r, r, -1.0)
            add(r, r + 1, 1.0)
    else:
        denom = 24.0
        for r in range(n_cells):
            if r == 0:
                for node, w in ((0, -23.0), (1, 21.0), (2, 3.0), (3, -1.0)):
                    add(r, node, w)
            elif r == n_cells - 1:
                for node, w in ((n_cells - 3, 1.0), (n_cells - 2, -3.0),
                                (n_cells - 1, -21.0), (n_cells, 23.0)):
                    add(r, node, w)
            else:
                for node, w in ((r - 1, 1.0), (r, -27.0), (r + 1, 27.0), (r + 2, -1.0)):
                    add(r, node, w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_cells, m)), denom


def staggered_diff_dirichlet(n_cells: int, h: float, order: int) -> sp.csr_matrix:
    """Staggered first derivative on a Dirichlet interval.

    Maps the ``n_cells - 1`` interior node values (walls are exact zeros
    and eliminated) to fluxes at the ``n_cells`` midpoints.  Order 4 keeps
    the centered stencil wherever the wall zero supplies the missing
    sample and falls back to the cubic-exact one-sided stencil at the two
    wall midpoints.
    """
    d, denom = _staggered_int_dirichlet(n_cells, order)
    return (d * (1.0 / (denom * h))).tocsr()


def dirichlet_ground_value(n_cells: int, extent: float = 2.0) -> float:
    """Exact ground value of the three-point Dirichlet Laplacian."""
    h = extent / n_cells
    return (2.0 - 2.0 * np.cos(np.pi / n_cells)) / (h * h)


def _form_matrix(diff: sp.spmatrix, coeff_times_measure: np.ndarray) -> sp.csr_matrix:
    b = sp.diags(np.sqrt(coeff_times_measure)) @ diff
    return (b.T @ b).tocsr()


def base_nodes(geom: BundleGeometry, n_s: int) -> tuple[np.ndarray, float]:
    h = geom.period / n_s
    return np.arange(n_s) * h, h


def fiber_nodes(geom: BundleGeometry, n_f: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Node and midpoint coordinates of the fibre grid."""
    if isinstance(geom, WaveguideGeometry):
        h = 2.0 / n_f
        nodes = -1.0 + h * np.arange(1, n_f)
        mids = -1.0 + h * (np.arange(n_f) + 0.5)
    else:
        h = geom.fiber_length / n_f
        nodes = h * np.arange(n_f)
        mids = nodes + 0.5 * h
    return nodes, mids, h


def assemble_full(geom: BundleGeometry, eps, grid: GridSpec) -> DiscreteOperator:
    """Discrete Laplace-Beltrami operator of the thin-fibre metric.

    Returns the generalized pair ``(K, W)``: positive semidefinite with a
    one-dimensional constant kernel on the torus, positive definite on
    the waveguide.  The torus operator also carries its exact 1D factors
    in ``fiber_factors``.
    """
    eps = as_epsilon(eps)
    s, h_s = base_nodes(geom, grid.n_s)
    s_mid = s + 0.5 * h_s
    f_nodes, f_mids, h_f = fiber_nodes(geom, grid.n_f)
    cell = h_s * h_f

    d_s, den_s = _staggered_int_periodic(grid.n_s, grid.stencil_order)
    scale_s = 1.0 / (den_s * h_s) ** 2

    if isinstance(geom, WarpedTorusGeometry):
        n_rows = grid.n_f
        d_f, den_f = _staggered_int_periodic(grid.n_f, grid.stencil_order)
        a_mid = geom.warp_value(s_mid)
        a_node = geom.warp_value(s)
        # sqrt(det) g^ss = eps*a at s-midpoints; sqrt(det) g^tt = 1/(eps*a) at nodes.
        base_c_s = eps * a_mid
        base_c_f = 1.0 / (eps * a_node)
        base_w = a_node / eps * cell
        c_s = np.repeat(base_c_s, n_rows)
        c_f = np.repeat(base_c_f, n_rows)
        w = np.repeat(base_w, n_rows)
        ground = 0.0
        definite = False
    else:
        geom.check_tube(eps)
        n_rows = grid.n_f - 1
        d_f, den_f = _staggered_int_dirichlet(grid.n_f, 2)
        kap_mid = geom.curvature.eval(s_mid)
        kap_node = geom.curvature.eval(s)
        rho_s = 1.0 - eps * np.outer(kap_mid, f_nodes)  # (n_s, n_rows)
        rho_f = 1.0 - eps * np.outer(kap_node, f_mids)  # (n_s, n_f)
        rho_w = 1.0 - eps * np.outer(kap_node, f_nodes)
        if min(rho_s.min(), rho_f.min(), rho_w.min()) <= 0.0:
            raise TubeDegenerate("tube density non-positive on the grid")
        c_s = (eps / rho_s).ravel()
        c_f = (rho_f / eps).ravel()
        w = (rho_w / eps).ravel() * cell
        ground = dirichlet_ground_value(grid.n_f)
        definite = True

    scale_f = 1.0 / (den_f * h_f) ** 2
    factors = None
    if isinstance(geom, WarpedTorusGeometry):
        factors = FiberFactors(
            base_stiffness=_form_matrix(d_s, base_c_s * (cell * scale_s)),
            fiber_coeff=base_c_f * (cell * scale_f),
            fiber_symbols=_circulant_symbols(d_f, grid.n_f // 2),
            base_weight=base_w,
        )
    diff_s = sp.kron(d_s, sp.identity(n_rows, format="csr"), format="csr")
    diff_f = sp.kron(sp.identity(grid.n_s, format="csr"), d_f, format="csr")
    k = _form_matrix(diff_s, c_s * (cell * scale_s)) + _form_matrix(diff_f, c_f * (cell * scale_f))
    return DiscreteOperator(
        dim=grid.n_s * n_rows,
        stiffness=k.tocsr(),
        weight=w,
        geometry=geom,
        eps=eps,
        grid=grid,
        fiber_ground_disc=ground,
        positive_definite=definite,
        fiber_factors=factors,
    )


def assemble_effective(geom: BundleGeometry, grid: GridSpec) -> EffectiveOperator:
    """Discrete effective operator on the base circle.

    Torus: potential ``(1/2)(log Vol)'' + (1/4)((log Vol)')^2`` with
    ground fibre value 0.  Waveguide: potential ``-kappa^2/4`` with
    ground fibre value ``pi^2/4``.  Potential samples are closed-form
    evaluations at the grid nodes.
    """
    s, h_s = base_nodes(geom, grid.n_s)
    v_eff = np.asarray(geom.effective_potential(s), dtype=float)
    d, den = _staggered_int_periodic(grid.n_s, grid.stencil_order)
    k = _form_matrix(d, np.full(grid.n_s, h_s / (den * h_s) ** 2)) + sp.diags(v_eff * h_s)
    w = np.full(grid.n_s, h_s)
    lambda0 = np.pi**2 / 4.0 if isinstance(geom, WaveguideGeometry) else 0.0
    op = DiscreteOperator(
        dim=grid.n_s,
        stiffness=k.tocsr(),
        weight=w,
        geometry=geom,
        eps=None,
        grid=grid,
        fiber_ground_disc=0.0,
        positive_definite=False,
    )
    return EffectiveOperator(operator=op, potential=v_eff, lambda0=lambda0, s_nodes=s)


def density_potential(geom: WaveguideGeometry, eps, s, u):
    """Closed form of the tube density potential.

    ``(1/2) d^2/du^2 log rho + (1/4) (d/du log rho)^2`` with
    ``rho = 1 - eps*u*kappa(s)`` collapses to
    ``-(1/4) eps^2 kappa^2 / rho^2``, which is nonpositive and O(eps^2).
    """
    eps = as_epsilon(eps)
    kap = np.asarray(geom.curvature.eval(s), dtype=float)
    rho = 1.0 - eps * np.asarray(u, dtype=float) * kap
    if np.any(rho <= 0.0):
        raise TubeDegenerate("tube density non-positive in density_potential")
    val = -0.25 * (eps * kap) ** 2 / (rho * rho)
    if np.isscalar(s) and np.isscalar(u):
        return float(val)
    return val


def assemble_fiber(geom: WaveguideGeometry, eps, s: float, n_f: int) -> DiscreteOperator:
    """Fibre operator ``-d^2/du^2 + V_rho(s, u)`` on [-1, 1], Dirichlet."""
    eps = as_epsilon(eps)
    geom.check_tube(eps)
    if n_f < MIN_POINTS:
        raise GridTooCoarse(f"need at least {MIN_POINTS} fibre cells")
    h = 2.0 / n_f
    nodes = -1.0 + h * np.arange(1, n_f)
    d, den = _staggered_int_dirichlet(n_f, 2)
    v = density_potential(geom, eps, s, nodes)
    k = _form_matrix(d, np.full(n_f, h / (den * h) ** 2)) + sp.diags(v * h)
    return DiscreteOperator(
        dim=n_f - 1,
        stiffness=k.tocsr(),
        weight=np.full(n_f - 1, h),
        geometry=geom,
        eps=eps,
        grid=None,
        fiber_ground_disc=dirichlet_ground_value(n_f),
        positive_definite=True,
    )

