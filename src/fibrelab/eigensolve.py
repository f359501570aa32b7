"""Smallest eigenpairs of the generalized problem K x = lambda W x.

Shift-invert ARPACK is the workhorse for large operators; small ones go
through a dense solve, which also covers requests for nearly the whole
spectrum.  Behaviour is deterministic: the ARPACK start vector is drawn
from a seeded generator, so repeated calls reproduce values to machine
precision and vectors up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .errors import FactorizationFailed, NoConvergence
from .operators import DiscreteOperator

__all__ = ["SolveConfig", "EigenPairSet", "smallest_eigenpairs", "verify_pairs"]

DENSE_CUTOFF = 600


@dataclass(frozen=True)
class SolveConfig:
    """Options for one eigensolve.

    ``shift`` must sit strictly below the smallest eigenvalue sought; when
    omitted it defaults to -1 for semidefinite (closed) operators and 0
    for positive definite (Dirichlet) ones.
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


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with W-orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray  # (dim, k), column i pairs with values[i]
    residuals: np.ndarray


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


def smallest_eigenpairs(op: DiscreteOperator, cfg: SolveConfig) -> EigenPairSet:
    """Compute the ``cfg.k`` algebraically smallest generalized eigenpairs."""
    n = op.dim
    k = cfg.k
    if k > n:
        raise ValueError(f"requested {k} pairs from a dimension-{n} operator")

    if n <= DENSE_CUTOFF or k > n - 2:
        kd = op.stiffness.toarray()
        wd = np.diag(op.weight)
        values, vectors = dla.eigh(kd, wd)
        values, vectors = values[:k], vectors[:, :k]
    else:
        sigma = cfg.shift
        if sigma is None:
            sigma = 0.0 if op.positive_definite else -1.0
        v0 = np.random.default_rng(cfg.seed).standard_normal(n)
        ncv = min(n - 1, max(4 * k + 20, 40))
        try:
            values, vectors = sla.eigsh(
                op.stiffness,
                k=k,
                M=sp.diags(op.weight).tocsc(),
                sigma=sigma,
                which="LM",
                v0=v0,
                ncv=ncv,
                maxiter=cfg.max_iter,
                tol=0.0,
            )
        except sla.ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK did not converge: {exc}") from exc
        except RuntimeError as exc:
            raise FactorizationFailed(f"shifted factorization failed: {exc}") from exc
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]

    vectors = _w_normalize(op, vectors)
    # report the Rayleigh quotient of each converged vector; it is the best
    # value estimate and keeps values and vectors exactly consistent
    values = np.array([op.rayleigh(vectors[:, i]) for i in range(vectors.shape[1])])
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    residuals = _residuals(op, values, vectors)
    if np.any(residuals > cfg.tol):
        raise NoConvergence(
            f"max residual {residuals.max():.3e} exceeds tolerance {cfg.tol:.3e}"
        )
    return EigenPairSet(values=values, vectors=vectors, residuals=residuals)


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
