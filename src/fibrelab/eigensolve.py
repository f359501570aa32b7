"""Smallest eigenpairs of the generalized problem K x = lambda W x.

Three paths share one post-processing step:

* Warped torus (the operator carries ``fiber_factors``): the metric is a
  warped product, so ``K = K_s ⊗ I + diag(c_f) ⊗ L_f`` and
  ``W = w_s ⊗ 1`` with a circulant fibre matrix ``L_f``.  The fibre
  Fourier modes ``cos, sin(2 pi m j / n_f)`` diagonalize ``L_f`` with
  eigenvalues ``sigma_m``, and each mode ``m = 0 .. n_f // 2`` leaves the
  base problem ``(K_s + sigma_m diag(c_f)) x = lambda diag(w_s) x`` of
  size ``n_s``.  Each base vector ``x`` gives the full vectors
  ``x ⊗ cos(2 pi m j / n_f + offset)``: offset 0 for ``m = 0`` and the
  Nyquist mode, offsets ``+-pi/4`` for the two vectors of every other
  mode.  Modes are walked by increasing ``sigma_m``, and the walk stops
  once ``sigma_m * min(c_f / w_s)`` exceeds the current k-th value.
  ``K_s`` is positive semidefinite, so that product bounds every level of
  mode ``m`` and above from below: the returned values are provably the k
  smallest, a completeness certificate.  Each pair records its fibre
  mode ``|m|``.
* Other large operators: shift-invert ARPACK on ``A = K - shift * W``.
  ``A`` is symmetric, and in reverse Cuthill-McKee order a grid operator
  is banded, its band as wide as the short grid side; LAPACK's banded
  Cholesky factors it once and ARPACK applies ``A^{-1}`` through that
  factor.  The factor exists if and only if ``A`` is positive definite,
  that is, if and only if the shift lies below the whole spectrum, so it
  certifies the shift: a shift inside the spectrum, which would return
  the pairs nearest the shift instead of the smallest, fails with
  ``FactorizationFailed``.  The start vector is drawn from a seeded
  generator, so repeated calls reproduce values to machine precision and
  vectors up to sign.
* Small operators, and requests for nearly the whole spectrum: a dense
  solve.

Every path then W-normalizes the vectors, reports their Rayleigh
quotients against the full operator as values, and certifies each
residual ``|K x - lambda W x| / |W x|`` against ``tol`` on the full
operator, independently of how the vectors were found.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import FactorizationFailed, NoConvergence
from .operators import DiscreteOperator

__all__ = ["SolveConfig", "EigenPairSet", "smallest_eigenpairs", "verify_pairs"]

DENSE_CUTOFF = 600


@dataclass(frozen=True)
class SolveConfig:
    """Options for one eigensolve.

    ``shift`` must lie strictly below the whole spectrum, not only below
    the eigenvalues sought; when omitted it defaults to -1 for
    semidefinite (closed) operators and 0 for positive definite
    (Dirichlet) ones.  The shift-invert path checks this: its Cholesky
    factor of ``K - shift * W`` exists only for such a shift, and any
    other shift raises ``FactorizationFailed``.  The dense and separable
    torus paths use no shift and ignore it.
    """

    k: int = 6
    tol: float = 1e-8
    max_iter: int = 5000
    seed: int = 0
    shift: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.shift is not None and not np.isfinite(self.shift):
            raise ValueError("shift must be finite")


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with W-orthonormal eigenvectors.

    ``fiber_modes[i]`` is the fibre Fourier mode ``|m|`` of pair i on the
    separable torus path and ``None`` from the other paths.
    """

    values: np.ndarray
    vectors: np.ndarray  # (dim, k), column i pairs with values[i]
    residuals: np.ndarray
    fiber_modes: Optional[np.ndarray] = None


def _residuals(op: DiscreteOperator, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    res = np.empty(len(values))
    for i, lam in enumerate(values):
        x = vectors[:, i]
        num = np.linalg.norm(op.stiffness @ x - lam * (op.weight * x))
        den = np.linalg.norm(op.weight * x)
        res[i] = num / den
    return res


def _w_normalize(op: DiscreteOperator, vectors: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, op.weight[:, None] * vectors))
    return vectors / norms


def _shift_inverse(a: sp.spmatrix) -> sla.LinearOperator:
    """``x -> a^{-1} x`` through a banded Cholesky factor of ``a`` in RCM order.

    Raises ``LinAlgError`` when the symmetric matrix ``a`` is not positive
    definite.
    """
    a = a.tocsr()
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    upper = sp.triu(a[perm][:, perm], format="coo")
    width = int(np.max(upper.col - upper.row, initial=0))
    # LAPACK upper band storage, column-major so that the factorization
    # works in place instead of on a copy of the band
    band = np.zeros((width + 1, a.shape[0]), order="F")
    band[width + upper.row - upper.col, upper.col] = upper.data
    factor = dla.cholesky_banded(band, overwrite_ab=True, lower=False, check_finite=False)

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.empty(len(perm))
        y[perm] = dla.cho_solve_banded((factor, False), np.ravel(x)[perm], check_finite=False)
        return y

    return sla.LinearOperator(a.shape, matvec=solve, dtype=float)


def _base_pairs(stiffness: sp.csr_matrix, weight: np.ndarray, k: int,
                cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest pairs of one base problem of the separable path.

    Dense base problems take LAPACK's subset solver (bisection and inverse
    iteration), not the divide-and-conquer solver of the dense branch: the
    latter returns odd modes of a reflection-symmetric warp, and members of
    degenerate pairs, with exact zeros on whole grid rows, fields the nodal
    layer rejects as degenerate.  Large ones go through the dispatcher.
    """
    n_s = len(weight)
    if n_s <= DENSE_CUTOFF:
        return dla.eigh(stiffness.toarray(), np.diag(weight), subset_by_index=[0, k - 1])
    base = DiscreteOperator(dim=n_s, stiffness=stiffness, weight=weight)
    sub = smallest_eigenpairs(base, replace(cfg, k=k, shift=None))
    return sub.values, sub.vectors


def _fiber_fourier(op: DiscreteOperator,
                   cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k smallest pairs of a separable torus operator, one fibre mode at a time."""
    factors = op.fiber_factors
    k = cfg.k
    n_s = len(factors.base_weight)
    n_f = op.dim // n_s
    bound_rate = float(np.min(factors.fiber_coeff / factors.base_weight))
    # (value, m, phase offset, base vector), the k smallest kept.  A +-m pair
    # spans cos(m t + pi/4), cos(m t - pi/4) rather than cos, sin: sin(m t)
    # vanishes exactly on the grid row t = 0, a field the nodal layer rejects.
    found: list[tuple[float, int, float, np.ndarray]] = []
    for m in np.argsort(factors.fiber_symbols, kind="stable"):
        sigma = float(factors.fiber_symbols[m])
        if len(found) == k and sigma * bound_rate > found[-1][0]:
            break
        waves = (0.0,) if m == 0 or 2 * m == n_f else (0.25 * np.pi, -0.25 * np.pi)
        stiffness = (factors.base_stiffness + sp.diags(sigma * factors.fiber_coeff)).tocsr()
        values, vectors = _base_pairs(stiffness, factors.base_weight,
                                      min(n_s, -(-k // len(waves))), cfg)
        found += [(float(value), int(m), offset, x)
                  for value, x in zip(values, vectors.T) for offset in waves]
        found = sorted(found, key=lambda c: c[:2])[:k]

    phase = 2.0 * np.pi * np.arange(n_f) / n_f
    vectors = np.column_stack([
        np.outer(x, np.cos(m * phase + offset)).ravel() for _, m, offset, x in found
    ])
    values = np.array([c[0] for c in found])
    return values, vectors, np.array([c[1] for c in found])


def smallest_eigenpairs(op: DiscreteOperator, cfg: SolveConfig) -> EigenPairSet:
    """Compute the ``cfg.k`` algebraically smallest generalized eigenpairs."""
    n = op.dim
    k = cfg.k
    if k > n:
        raise ValueError(f"requested {k} pairs from a dimension-{n} operator")

    modes = None
    if op.fiber_factors is not None:
        values, vectors, modes = _fiber_fourier(op, cfg)
    elif n <= DENSE_CUTOFF or k > n - 2:
        kd = op.stiffness.toarray()
        wd = np.diag(op.weight)
        values, vectors = dla.eigh(kd, wd)
        values, vectors = values[:k], vectors[:, :k]
    else:
        sigma = cfg.shift
        if sigma is None:
            sigma = 0.0 if op.positive_definite else -1.0
        weight = sp.diags(op.weight)
        try:
            inverse = _shift_inverse(op.stiffness - sigma * weight)
        except dla.LinAlgError as exc:
            raise FactorizationFailed(f"K - sigma W is not positive definite: shift sigma = "
                                      f"{sigma:g} is not below the spectrum") from exc
        v0 = np.random.default_rng(cfg.seed).standard_normal(n)
        ncv = min(n - 1, max(4 * k + 20, 40))
        try:
            values, vectors = sla.eigsh(
                op.stiffness,
                k=k,
                M=weight,
                sigma=sigma,
                which="LM",
                v0=v0,
                ncv=ncv,
                maxiter=cfg.max_iter,
                tol=0.0,
                OPinv=inverse,
            )
        except sla.ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK did not converge: {exc}") from exc
        except sla.ArpackError as exc:
            raise NoConvergence(f"ARPACK failed: {exc}") from exc
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]

    vectors = _w_normalize(op, vectors)
    # report the Rayleigh quotient of each converged vector; it is the best
    # value estimate and keeps values and vectors exactly consistent
    values = np.array([op.rayleigh(vectors[:, i]) for i in range(vectors.shape[1])])
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    if modes is not None:
        modes = modes[order]
    residuals = _residuals(op, values, vectors)
    if np.any(residuals > cfg.tol):
        raise NoConvergence(
            f"max residual {residuals.max():.3e} exceeds tolerance {cfg.tol:.3e}"
        )
    return EigenPairSet(values=values, vectors=vectors, residuals=residuals, fiber_modes=modes)


@dataclass
class PairVerification:
    max_residual: float
    max_gram_offdiag: float
    gram: np.ndarray


def verify_pairs(op: DiscreteOperator, pairs: EigenPairSet) -> PairVerification:
    """Recompute residuals and the W-Gram matrix of a returned pair set."""
    if pairs.vectors.shape[0] != op.dim:
        raise ValueError("dimension mismatch between operator and pairs")
    res = _residuals(op, pairs.values, pairs.vectors)
    gram = pairs.vectors.T @ (op.weight[:, None] * pairs.vectors)
    off = gram - np.diag(np.diag(gram))
    return PairVerification(
        max_residual=float(res.max()) if len(res) else 0.0,
        max_gram_offdiag=float(np.max(np.abs(off))) if off.size else 0.0,
        gram=gram,
    )
