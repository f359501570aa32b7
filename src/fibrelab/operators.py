"""Divergence-form finite-difference operators for the two testbeds.

Every operator is assembled as ``K = sum_d B_d^T B_d`` with
``B_d = sqrt(C_d) D_d``, where ``D_d`` is a staggered first-difference
matrix (nodes to edge midpoints) and ``C_d`` holds the analytic
coefficient ``sqrt(det g) * g^dd`` at the edge midpoints times the cell
measure.  This makes ``K`` bitwise symmetric and positive semidefinite by
construction, with ``K @ 1 = 0`` exactly on closed geometries.  The
eigenproblem is the generalized pair ``K x = lambda W x`` with the
positive diagonal volume weight ``W``, ``sqrt(det g)`` at the nodes times
the cell measure.  Both read their coefficients from the geometry's
``metric_coefficients``, which also refuses a degenerate tube.

Every ``D_d`` comes from one stencil table, ``STENCILS``.  Stencil
orders 2 and 4 are supported in periodic directions.  The Dirichlet fibre
direction of the waveguide always uses the second-order three-point flux:
a one-sided fourth-order closure would either break the exact-symmetry
contract or lose pointwise consistency near the walls, and the eigenvalue
bias it would remove is cancelled downstream against the matching
discrete fibre ground value instead.  The waveguide's fibre blocks, its
operator with the base coupling dropped, come from one helper, and one
bisection takes their lowest eigenvalue: the full operator's shift and
:func:`fiber_ground_energy`, the fibre ground value at one base point,
both read it there.  Both assemblers, full
and effective, return a ``DiscreteOperator``.  The warped torus's holds its
operator as eps-free 1D factors: its metric coefficients are
``(eps a, 1/(eps a), a/eps)``, so
``K = eps (K_s ⊗ I) + eps^-1 (diag(c_f) ⊗ d_f^T d_f)`` and
``W = eps^-1 (w_s ⊗ 1)`` with ``K_s``, ``c_f`` and ``w_s`` built from the
warp ``a`` alone (the fibre term is ``B_f^T B_f`` with the fibre
coefficient factored out).  The factors are built once per geometry and
grid and shared by every eps; the operator carries eps as the two
scalars of that sum, applies ``K`` through the factors and forms the 2D
matrix once, on the first read of ``stiffness``.  :func:`prolongate` carries
waveguide grid vectors from one grid to a finer one by nearest-node
injection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from .errors import GridTooCoarse
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
    "assemble_full",
    "assemble_effective",
    "staggered_diff_periodic",
    "dirichlet_ground_value",
    "fiber_ground_energy",
    "prolongate",
]

MIN_POINTS = 16
BOUND_MARGIN = 1e-8  # relative, see _fiber_ground


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


@dataclass(frozen=True, eq=False)
class FiberFactors:
    """The eps-free 1D factors of a warped-product operator.

    At separation ``eps`` the operator is
    ``K = eps (base_stiffness ⊗ I) + eps^-1 (diag(fiber_coeff) ⊗ fiber_matrix)``
    and ``W = eps^-1 (base_weight ⊗ 1)``.  ``base_stiffness`` is built from
    the warp ``a`` at the base midpoints, ``fiber_coeff`` from ``1/a`` and
    ``base_weight`` from ``a`` at the base nodes, each times its cell and
    stencil scale; none depends on eps.  ``fiber_matrix`` is the circulant
    integer-stencil fibre matrix ``L_f = d_f^T d_f``, and ``fiber_symbols[m]``
    its eigenvalue on the fibre modes ``cos, sin(2 pi m j / n_f)`` for
    ``m = 0 .. n_f // 2``.  One set serves every eps of a geometry and
    grid (:func:`_torus_factors`); its arrays are read-only, and it hashes
    by identity, which the fibre-mode solver's memo keys on.  Nothing on
    the solve path forms ``K`` as one matrix; :meth:`matrix` builds it for
    the callers that want it.
    """

    base_stiffness: sp.csr_matrix
    fiber_matrix: sp.csr_matrix
    fiber_coeff: np.ndarray
    fiber_symbols: np.ndarray
    base_weight: np.ndarray

    def matrix(self, eps: float) -> sp.csr_matrix:
        """``K`` at ``eps`` as one sparse matrix, node ``(i_s, i_f)`` at index ``i_s * n_f + i_f``."""
        n_f = self.fiber_matrix.shape[0]
        return (sp.kron(eps * self.base_stiffness, sp.identity(n_f), format="csr")
                + sp.kron(sp.diags(self.fiber_coeff / eps), self.fiber_matrix,
                          format="csr")).tocsr()


@dataclass(eq=False)
class DiscreteOperator:
    """Symmetric stiffness ``K`` with positive diagonal weight ``W``.

    ``fiber_ground_disc`` is the ground value of the discrete fibre
    problem of a flat fibre: 0 on closed geometries, and on the waveguide
    the three-point Dirichlet ground value, which the fibre blocks of a
    straight tube have exactly; subtracting it instead of the continuum
    value cancels the fibre discretization bias in rescaled eigenvalue
    comparisons.  ``safe_shift`` lies strictly below every eigenvalue by
    construction: -1 for a semidefinite ``K``, ``min(V) - 1`` for the
    effective operator, a margin below the fibre-block bound on the full
    waveguide.  ``matrix`` is ``K`` as a CSR matrix when it is assembled
    whole.  On the warped torus, whose operator separates exactly in the
    fibre direction, it is ``None`` and ``fiber_factors`` holds ``K``:
    :meth:`apply` works through the eps-free factors and ``eps``.  Every
    operator reads as one CSR matrix through :attr:`stiffness`, and its
    dimension is that of ``weight``.  Operators compare by identity.
    """

    matrix: Optional[sp.csr_matrix]
    weight: np.ndarray
    geometry: Optional[BundleGeometry] = None
    eps: Optional[float] = None
    grid: Optional[GridSpec] = None
    fiber_ground_disc: float = 0.0
    safe_shift: float = -1.0
    fiber_factors: Optional[FiberFactors] = None

    @property
    def dim(self) -> int:
        return len(self.weight)

    @functools.cached_property
    def stiffness(self) -> sp.csr_matrix:
        """``matrix``, or on the torus ``K`` built from the factors at ``eps`` on the first read."""
        if self.matrix is not None:
            return self.matrix
        return self.fiber_factors.matrix(self.eps)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``K x`` for a vector or a ``(dim, k)`` block of columns.

        On the torus this is ``eps K_s X + (c_f / eps) ⊙ (X L_f)`` on the
        ``(n_s, n_f)`` grid view of each column; elsewhere it is the CSR
        product.
        """
        factors = self.fiber_factors
        if factors is None:
            return self.stiffness @ x
        n_s = len(factors.base_weight)
        n_f = self.dim // n_s
        cols = x.reshape(n_s, n_f, -1)  # a vector is one column
        # the fibre term in (n_f, n_s, k) order, where L_f acts on contiguous rows
        fiber = factors.fiber_matrix @ cols.transpose(1, 0, 2).reshape(n_f, -1)
        fiber = fiber.reshape(n_f, n_s, -1)
        fiber *= (factors.fiber_coeff / self.eps)[:, None]
        out = (factors.base_stiffness @ cols.reshape(n_s, -1)).reshape(cols.shape)
        out *= self.eps
        out += fiber.transpose(1, 0, 2)
        return out.reshape(x.shape)

    def symmetry_defect(self) -> float:
        d = self.stiffness - self.stiffness.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


# order -> (node offsets, integer weights, denominator) of the staggered
# derivative f'(s_i + h/2) = sum_k w_k f[i + offset_k] / (denom * h); the
# integer weights sum to exactly 0, so constants are annihilated exactly.
STENCILS = {
    2: ((0, 1), (-1.0, 1.0), 1.0),
    4: ((-1, 0, 1, 2), (1.0, -27.0, 27.0, -1.0), 24.0),
}


def _staggered_int(n_cells: int, order: int, periodic: bool) -> tuple[sp.csr_matrix, float]:
    """Integer ``STENCILS`` derivative onto ``n_cells`` midpoints, and its denominator.

    Periodic ends wrap the node index.  Dirichlet ends, which take order 2,
    drop the two wall columns: the wall values are exact zeros.
    """
    offsets, weights, denom = STENCILS[order]
    rows = np.repeat(np.arange(n_cells), len(offsets))
    nodes = rows + np.tile(offsets, n_cells)
    vals = np.tile(weights, n_cells)
    if periodic:
        return sp.csr_matrix((vals, (rows, nodes % n_cells)), shape=(n_cells, n_cells)), denom
    inside = (nodes >= 1) & (nodes < n_cells)
    return sp.csr_matrix((vals[inside], (rows[inside], nodes[inside] - 1)),
                         shape=(n_cells, n_cells - 1)), denom


def staggered_diff_periodic(n: int, h: float, order: int) -> sp.csr_matrix:
    """Staggered first derivative ``f'(s_i + h/2)`` of ``order``, periodic wrap."""
    d, denom = _staggered_int(n, order, periodic=True)
    return (d * (1.0 / (denom * h))).tocsr()


def _circulant_symbols(n: int, order: int, m_max: int) -> np.ndarray:
    """Eigenvalues of ``d^T d`` on the Fourier modes ``m = 0 .. m_max`` of ``n`` nodes.

    The periodic integer stencil ``d`` is circulant: its symbol is the
    stencil summed against ``exp(2 pi i m node / n)`` over the nodes of
    row 0, in ascending order as in a CSR row, which fixes the rounding.
    """
    offsets, weights, _ = STENCILS[order]
    nodes = np.mod(offsets, n)
    ascending = np.argsort(nodes, kind="stable")
    theta = 2.0 * np.pi * np.arange(m_max + 1) / n
    return np.abs(np.exp(1j * np.outer(theta, nodes[ascending]))
                  @ np.asarray(weights)[ascending]) ** 2


def dirichlet_ground_value(n_cells: int) -> float:
    """Exact ground value of the three-point Dirichlet Laplacian on [-1, 1]."""
    h = 2.0 / n_cells
    return (2.0 - 2.0 * np.cos(np.pi / n_cells)) / (h * h)


def _form_matrix(diff: sp.spmatrix, coeff_times_measure: np.ndarray) -> sp.csr_matrix:
    b = sp.diags(np.sqrt(coeff_times_measure)) @ diff
    return (b.T @ b).tocsr()


def base_nodes(geom: BundleGeometry, n_s: int) -> tuple[np.ndarray, float]:
    h = geom.period / n_s
    return np.arange(n_s) * h, h


def fiber_nodes(geom: BundleGeometry, n_f: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Node and midpoint coordinates of ``n_f`` cells on the geometry's ``fiber_interval``.

    A closed fibre stores its ``n_f`` nodes from the interval's start; an
    interval fibre stores its ``n_f - 1`` interior nodes, the walls left out.
    """
    lo, hi = geom.fiber_interval
    h = (hi - lo) / n_f
    nodes = lo + h * np.arange(0 if geom.closed_fiber else 1, n_f)
    return nodes, lo + h * (np.arange(n_f) + 0.5), h


def assemble_full(geom: BundleGeometry, eps, grid: GridSpec) -> DiscreteOperator:
    """Discrete Laplace-Beltrami operator of the thin-fibre metric.

    Returns the generalized pair ``(K, W)``: positive semidefinite with a
    one-dimensional constant kernel on the torus, positive definite on
    the waveguide.  The torus operator is its eps-free 1D factors,
    ``fiber_factors``, shared by every eps (:func:`_torus_factors`), and
    ``eps``; it forms its 2D ``stiffness`` only when that is read.  The
    waveguide's is assembled whole, and its ``safe_shift`` lies a margin
    below its fibre ground energy (:func:`_fiber_ground`).
    """
    eps = as_epsilon(eps)
    s, h_s = base_nodes(geom, grid.n_s)
    s_mid = s + 0.5 * h_s
    f_nodes, _, h_f = fiber_nodes(geom, grid.n_f)
    fields = dict(geometry=geom, eps=eps, grid=grid)

    if isinstance(geom, WarpedTorusGeometry):
        # the metric at this eps is refused here where it leaves float range;
        # the factors hold its eps-free parts
        geom.metric_coefficients(eps, s_mid)
        geom.metric_coefficients(eps, s)
        factors = _torus_factors(geom, grid)
        return DiscreteOperator(matrix=None,
                                weight=np.repeat(factors.base_weight / eps, len(f_nodes)),
                                fiber_factors=factors, **fields)

    cell = h_s * h_f
    d_s, den_s = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
    scale_s = 1.0 / (den_s * h_s) ** 2
    k_f, w = _fiber_blocks(geom, eps, s, grid.n_f, h_s)
    c_s = geom.metric_coefficients(eps, s_mid, f_nodes)[0]  # (n_s, n_rows)
    diff_s = sp.kron(d_s, sp.identity(len(f_nodes), format="csr"), format="csr")
    k = _form_matrix(diff_s, c_s.ravel() * (cell * scale_s)) + k_f
    bound = _fiber_ground(k_f, w)
    return DiscreteOperator(matrix=k.tocsr(), weight=w,
                            fiber_ground_disc=dirichlet_ground_value(grid.n_f),
                            safe_shift=bound - BOUND_MARGIN * max(1.0, abs(bound)), **fields)


@functools.lru_cache(maxsize=8)
def _torus_factors(geom: WarpedTorusGeometry, grid: GridSpec) -> FiberFactors:
    """The eps-free factors of the warped torus on ``grid``, built once per pair.

    ``metric_coefficients`` is ``(eps a, 1/(eps a), a/eps)``: ``K_s`` takes
    ``a`` at the s-midpoints, ``c_f`` takes ``1/a`` and the base weight
    ``a`` at the nodes, each times the cell and its stencil scale.
    """
    s, h_s = base_nodes(geom, grid.n_s)
    _, _, h_f = fiber_nodes(geom, grid.n_f)
    cell = h_s * h_f
    d_s, den_s = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
    d_f, den_f = _staggered_int(grid.n_f, grid.stencil_order, periodic=True)
    a = geom.warp_value(s)
    factors = FiberFactors(
        base_stiffness=_form_matrix(d_s, geom.warp_value(s + 0.5 * h_s)
                                    * (cell * (1.0 / (den_s * h_s) ** 2))),
        fiber_matrix=(d_f.T @ d_f).tocsr(),
        fiber_coeff=1.0 / a * (cell * (1.0 / (den_f * h_f) ** 2)),
        fiber_symbols=_circulant_symbols(grid.n_f, grid.stencil_order, grid.n_f // 2),
        base_weight=a * cell,
    )
    # shared by every eps and every caller, so read-only
    arrays = [factors.fiber_coeff, factors.fiber_symbols, factors.base_weight]
    for m in (factors.base_stiffness, factors.fiber_matrix):
        arrays += [m.data, m.indices, m.indptr]
    for arr in arrays:
        arr.flags.writeable = False
    return factors


def _fiber_blocks(geom: WaveguideGeometry, eps: float, s, n_f: int,
                  h_s: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """The waveguide's fibre blocks at the base points ``s``: ``blockdiag_s K_f(s)`` and ``W``.

    ``K_f(s) = d_f^T C_f(s) d_f`` is the three-point Dirichlet flux on
    ``n_f`` cells with ``sqrt(det g) g^uu`` at the fibre midpoints, and
    ``W_s`` is ``sqrt(det g)`` at the stored nodes, both times the cell
    ``h_s * h_f`` (:meth:`WaveguideGeometry.metric_coefficients`).  A
    scalar ``s`` gives one block.
    """
    f_nodes, f_mids, h_f = fiber_nodes(geom, n_f)
    d_f, den_f = _staggered_int(n_f, 2, periodic=False)
    cell = h_s * h_f
    c_f = geom.metric_coefficients(eps, s, f_mids)[1]  # (n_s, n_f)
    sqrt_det = geom.metric_coefficients(eps, s, f_nodes)[2]
    diff_f = sp.kron(sp.identity(c_f.shape[0], format="csr"), d_f, format="csr")
    k_f = _form_matrix(diff_f, c_f.ravel() * (cell * (1.0 / (den_f * h_f) ** 2)))
    return k_f, sqrt_det.ravel() * cell


def _fiber_ground(k_f: sp.csr_matrix, w: np.ndarray) -> float:
    """``min_s lambda_1(K_f(s), W_s)`` over the fibre blocks of :func:`_fiber_blocks`.

    ``K = K_s + blockdiag_s K_f(s)`` with ``K_s = D_s^T C_s D_s >= 0`` and
    diagonal ``W``, so this, the discrete fibre ground energy, lies at or
    below ``lambda_1(K, W)``.  ``W^{-1/2} K_f W^{-1/2}`` chains the
    tridiagonal blocks with zero couplings: one LAPACK bisection.  Its
    absolute error is a few ulps of the chain's norm, about 3e-11 at 384
    fibre cells; on the annulus, where the bound is exact, it came within
    2e-11 of ``lambda_1``.  ``assemble_full`` sets its ``safe_shift``
    ``BOUND_MARGIN * max(1, |bound|)`` lower, far above both errors and
    far below the ``eps^2`` scale of the gap to ``lambda_1``.
    """
    scale = 1.0 / np.sqrt(w)
    diag = k_f.diagonal() * scale * scale
    off = k_f.diagonal(1) * scale[:-1] * scale[1:]
    return float(dla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def fiber_ground_energy(geom: WaveguideGeometry, eps, s: float, n_f: int) -> float:
    """Ground value of the waveguide's fibre problem at base point ``s``.

    Takes the lowest eigenvalue of the full operator's own fibre block at
    ``s`` on ``n_f`` and ``2 n_f`` cells and Richardson-extrapolates the
    second-order scheme.
    """
    if n_f < MIN_POINTS:
        raise GridTooCoarse(f"need at least {MIN_POINTS} fibre cells")
    coarse, fine = (_fiber_ground(*_fiber_blocks(geom, eps, s, n, 1.0)) for n in (n_f, 2 * n_f))
    return (4.0 * fine - coarse) / 3.0


def prolongate(coarse: GridSpec, vectors: np.ndarray, fine: GridSpec) -> np.ndarray:
    """The columns of ``vectors``, waveguide fields on ``coarse``, injected onto ``fine``.

    Each fine node takes the value of the coarse node at or below it, in
    s and in u, in one gather: the fine nodes in ``[L - h, L)`` take the
    last coarse row, and in u the gather reads the stored nodes padded
    with the exact zeros of the walls u = +-1.  Returns an array of shape
    ``(fine.n_s * (fine.n_f - 1), vectors.shape[1])``.
    """
    k = vectors.shape[1]
    nodes = np.pad(vectors.reshape(coarse.n_s, coarse.n_f - 1, k), ((0, 0), (1, 1), (0, 0)))
    at_s = np.arange(fine.n_s) * coarse.n_s // fine.n_s
    at_f = np.arange(1, fine.n_f) * coarse.n_f // fine.n_f
    return nodes[at_s[:, None], at_f].reshape(-1, k)


def assemble_effective(geom: BundleGeometry, grid: GridSpec) -> DiscreteOperator:
    """Discrete effective operator ``-d^2/ds^2 + V_eff`` on the ``n_s`` base nodes.

    Torus: ``V_eff = (1/2)(log Vol)'' + (1/4)((log Vol)')^2``.  Waveguide:
    ``V_eff = -kappa^2/4``.  The samples are closed-form evaluations of
    ``geom.effective_potential`` at the nodes; the operator has no eps.
    Every eigenvalue is at least ``min(V_eff)``, since ``d^T C d >= 0`` and
    ``W = h I``, so ``safe_shift`` is ``min(V_eff) - 1``.
    """
    s, h_s = base_nodes(geom, grid.n_s)
    v_eff = np.asarray(geom.effective_potential(s), dtype=float)
    d, den = _staggered_int(grid.n_s, grid.stencil_order, periodic=True)
    k = _form_matrix(d, np.full(grid.n_s, h_s / (den * h_s) ** 2)) + sp.diags(v_eff * h_s)
    return DiscreteOperator(matrix=k.tocsr(), weight=np.full(grid.n_s, h_s),
                            geometry=geom, grid=grid, safe_shift=float(np.min(v_eff)) - 1.0)
