"""Smallest eigenpairs of the generalized problem K x = lambda W x.

Three paths share one post-processing step:

* Warped torus (the operator carries ``fiber_factors``): the metric is a
  warped product, so at separation ``eps``
  ``K = eps (K_s ⊗ I) + eps^-1 (diag(c_f) ⊗ L_f)`` and
  ``W = eps^-1 (w_s ⊗ 1)`` with eps-free factors and a circulant fibre
  matrix ``L_f``.  The fibre Fourier modes ``cos, sin(2 pi m j / n_f)``
  diagonalize ``L_f`` with eigenvalues ``sigma_m``, and each mode
  ``m = 0 .. n_f // 2`` leaves the eps-free base problem
  ``(K_s + tau_m diag(c_f)) x = mu diag(w_s) x`` of size ``n_s``, with
  ``tau_m = sigma_m / eps^2`` and ``lambda = eps^2 mu``.
  :func:`smallest_eigenpairs` solves it as a 1D operator of its own, its
  residuals certified like any other, and its pairs are memoized per
  factors, ``tau_m`` and base configuration (:func:`_base_pairs`): the
  fibre-constant sector, ``tau_0 = 0``, is solved once per grid for a
  whole eps sweep.  Each base vector ``x`` gives the full vectors
  ``x ⊗ cos(2 pi m j / n_f + offset)``: offset 0 for ``m = 0`` and the
  Nyquist mode, offsets ``+-pi/4`` for the two vectors of every other
  mode.  Modes are walked by increasing ``sigma_m``, and the walk stops
  once ``tau_m * min(c_f / w_s)`` exceeds the current k-th ``mu``.
  ``K_s`` is positive semidefinite, so that product bounds every level of
  mode ``m`` and above from below: the returned values are provably the
  k smallest, a completeness certificate.  Each pair records its fibre
  mode ``|m|``.
* Other large operators: shift-invert ARPACK on ``A = K - sigma W`` at
  the operator's ``safe_shift`` ``sigma``, the one shift of every such
  solve, which the operator's assembler places below the spectrum.
  ``A`` is symmetric, and in reverse Cuthill-McKee order a grid operator
  is banded, its band as wide as the short grid side; LAPACK's banded
  Cholesky factors its lower band once (OpenBLAS's lower ``dpbtrf`` is
  the faster storage on these bands) and ARPACK applies ``A^{-1}``
  through that factor.  The factor exists if and only if ``A`` is
  positive definite, that is, if and only if ``sigma`` lies below the
  whole spectrum, so it certifies the assembler's bound: a ``sigma``
  inside the spectrum, which would return the pairs nearest it instead
  of the smallest, fails with ``FactorizationFailed``.  The Krylov basis
  holds ``min(n - 1, max(2k + 4, 20))`` vectors.  That is enough when the
  shift lies just below the smallest eigenvalue, as the waveguide's
  ``safe_shift`` does, since the wanted values of ``A^{-1}`` then stand
  well apart from the rest; a shift far below them costs more restarts
  but not accuracy.
  The start vector is drawn from a generator seeded with ``cfg.seed``,
  so repeated calls reproduce values to machine precision and vectors up
  to sign.  A caller that knows approximate eigenvectors passes them as
  ``start`` (a study passes the base grid's vectors, injected onto the
  refined grid): the start vector is then their W-normalized sum plus the
  seeded random vector at equal norm, so the seed still selects the start
  and no wanted direction is missing from it.  For ``k <= 3`` the basis
  then shrinks to 14 vectors: on the waveguide's refined grids the warm
  start converges there in one pass of 15 solves, where a cold start
  takes 21 with 20 vectors and 25-26 with 14.  For larger ``k`` the same
  measurement found no smaller basis that beat the cold one, so it stays.
* Small operators, and requests for nearly the whole spectrum: LAPACK's
  dense subset solver (bisection and inverse iteration) for the k
  smallest pairs only.

Every path then W-normalizes the vectors, reports their Rayleigh
quotients against the full operator as values, and certifies each
residual ``|K x - lambda W x| / |W x|`` against ``tol`` on the full
operator, independently of how the vectors were found.  One product
``K x`` per returned vector, through
:meth:`~fibrelab.operators.DiscreteOperator.apply`, serves both: on the
torus that applies the exact factors, so the full ``K`` is certified
without ever being formed as a matrix.

BLAS runs on one thread inside :func:`smallest_eigenpairs` and, through
:func:`fibrelab.study.run_study`, for a whole study.  The work is many
small dense solves and BLAS-1 products on vectors of a few ten thousand
entries; there OpenBLAS's second thread costs start-up and a spinning
idle worker but buys nothing.  On the 2-vCPU reference VM it took a
third of the torus studies' wall time and half of every study's CPU
time, and the band factor of the 98 048-dof waveguide level was no
faster on two threads than on one, so no path keeps two.  The thread
count is set through OpenBLAS's own ``*_set_num_threads`` for the length
of the call and restored afterwards, so importing the package changes
nothing and no environment variable is read or set.  With one thread the
reductions also run in one order, so ``report.json`` no longer depends
on the core count.  Another BLAS, or a system without ``/proc``, runs
with its own threading.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigError, FactorizationFailed, NoConvergence
from .operators import DiscreteOperator, FiberFactors

__all__ = ["SolveConfig", "EigenPairSet", "smallest_eigenpairs"]

DENSE_CUTOFF = 600

# (get, set) thread-count symbols, tried in order: numpy's ILP64
# scipy-openblas, scipy's LP64 scipy-openblas, a plain OpenBLAS
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# a library's thread count is process-wide, so the scopes that hold it share
# one depth and one set of saved counts
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list[int] = []


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of every OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            # address, permissions, offset, device, inode, path
            paths = sorted({line.split(maxsplit=5)[5].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def single_threaded_blas() -> Iterator[int]:
    """Hold every OpenBLAS in the process at one thread; yields how many were found.

    Nested scopes only count their depth; the outermost exit restores the
    thread counts found on entry, also when the body raises.  Where no
    OpenBLAS is found the scope does nothing and yields 0.
    """
    global _blas_depth, _blas_saved
    controls = _openblas_thread_controls()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _blas_depth += 1
    try:
        yield len(controls)
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), count in zip(controls, _blas_saved):
                    set_(count)


@dataclass(frozen=True)
class SolveConfig:
    """Options for one eigensolve; a field out of range raises :class:`ConfigError`.

    No option places the shift: the shift-invert path always solves at the
    operator's ``safe_shift`` (see the module docstring), and the dense and
    separable torus paths use none.  ``seed`` seeds the random part of the
    shift-invert start vector, also when the caller passes a ``start``
    block to :func:`smallest_eigenpairs`; start blocks are an argument of
    the call, not an option here.
    """

    k: int = 6
    tol: float = 1e-8
    max_iter: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")


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


def _residuals(op: DiscreteOperator, values: np.ndarray, vectors: np.ndarray,
               products: list[np.ndarray]) -> np.ndarray:
    """``|K x - lambda W x| / |W x|`` of each column, ``products[i]`` being its ``K x``."""
    res = np.empty(len(values))
    for i, (lam, kx) in enumerate(zip(values, products)):
        wx = op.weight * vectors[:, i]
        res[i] = np.linalg.norm(kx - lam * wx) / np.linalg.norm(wx)
    return res


def _w_normalize(op: DiscreteOperator, vectors: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, op.weight[:, None] * vectors))
    return vectors / norms


def _start_vector(op: DiscreteOperator, seed: int, start: Optional[np.ndarray]) -> np.ndarray:
    """ARPACK's start vector from ``seed``, warmed by the columns of ``start``.

    The seeded random vector, plus the sum of the W-normalized ``start``
    columns scaled to the same norm.  It is built before the band factor,
    so its temporaries are gone before the factor's peak.
    """
    v0 = np.random.default_rng(seed).standard_normal(op.dim)
    if start is not None:
        guess = _w_normalize(op, start).sum(axis=1)
        v0 += guess * (np.linalg.norm(v0) / np.linalg.norm(guess))
    return v0


def _shift_inverse(a: sp.spmatrix) -> sla.LinearOperator:
    """``x -> a^{-1} x`` through a banded Cholesky factor of ``a`` in RCM order.

    Raises ``LinAlgError`` when the symmetric matrix ``a`` is not positive
    definite.
    """
    a = a.tocsr()
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    lower = sp.tril(a[perm][:, perm], format="coo")
    width = int(np.max(lower.row - lower.col, initial=0))
    # LAPACK lower band storage, column-major so that the factorization
    # works in place instead of on a copy of the band; OpenBLAS's lower
    # dpbtrf is the faster of the two on these bands
    band = np.zeros((width + 1, a.shape[0]), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    factor = dla.cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.empty(len(perm))
        y[perm] = dla.cho_solve_banded((factor, True), np.ravel(x)[perm], check_finite=False)
        return y

    return sla.LinearOperator(a.shape, matvec=solve, dtype=float)


@functools.lru_cache(maxsize=32)
def _base_pairs(factors: FiberFactors, tau: float,
                cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Values ``mu`` and vectors of ``(K_s + tau diag(c_f)) x = mu diag(w_s) x``.

    The eps-free base problem of the fibre modes with ``sigma_m = tau eps^2``,
    solved through :func:`smallest_eigenpairs`, which certifies its
    residuals.  The pairs depend on nothing but the arguments, so they are
    memoized, and returned read-only.
    """
    base = DiscreteOperator(
        dim=len(factors.base_weight),
        stiffness=(factors.base_stiffness + sp.diags(tau * factors.fiber_coeff)).tocsr(),
        weight=factors.base_weight,
    )
    sub = smallest_eigenpairs(base, cfg)
    sub.values.flags.writeable = sub.vectors.flags.writeable = False
    return sub.values, sub.vectors


def _fiber_fourier(op: DiscreteOperator,
                   cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k smallest pairs of a separable torus operator, one fibre mode at a time.

    Each mode's eps-free base problem comes from :func:`_base_pairs`; the
    full pairs, ``lambda = eps^2 mu``, are certified again by the caller.
    """
    factors = op.fiber_factors
    k = cfg.k
    n_s = len(factors.base_weight)
    n_f = op.dim // n_s
    eps2 = op.eps * op.eps
    bound_rate = float(np.min(factors.fiber_coeff / factors.base_weight))
    # (mu, m, phase offset, base vector), the k smallest kept.  A +-m pair
    # spans cos(m t + pi/4), cos(m t - pi/4) rather than cos, sin: sin(m t)
    # vanishes exactly on the grid row t = 0, a field the nodal layer rejects.
    found: list[tuple[float, int, float, np.ndarray]] = []
    for m in np.argsort(factors.fiber_symbols, kind="stable"):
        tau = float(factors.fiber_symbols[m]) / eps2
        if len(found) == k and tau * bound_rate > found[-1][0]:
            break
        waves = (0.0,) if m == 0 or 2 * m == n_f else (0.25 * np.pi, -0.25 * np.pi)
        values, vectors = _base_pairs(
            factors, tau, replace(cfg, k=min(n_s, -(-k // len(waves)))))
        found += [(float(mu), int(m), offset, x)
                  for mu, x in zip(values, vectors.T) for offset in waves]
        found = sorted(found, key=lambda c: c[:2])[:k]

    phase = 2.0 * np.pi * np.arange(n_f) / n_f
    vectors = np.column_stack([
        np.outer(x, np.cos(m * phase + offset)).ravel() for _, m, offset, x in found
    ])
    values = eps2 * np.array([c[0] for c in found])
    return values, vectors, np.array([c[1] for c in found])


@single_threaded_blas()
def smallest_eigenpairs(op: DiscreteOperator, cfg: SolveConfig, *,
                        start: Optional[np.ndarray] = None) -> EigenPairSet:
    """Compute the ``cfg.k`` algebraically smallest generalized eigenpairs.

    ``start``, an ``(op.dim, m)`` block of approximate eigenvectors, seeds
    the shift-invert path: its start vector is the normalized sum of the
    W-normalized columns plus the seeded random vector at equal norm, and
    for ``k <= 3`` its Krylov basis shrinks to 14 vectors.  The values
    stay certified against ``cfg.tol`` whatever the start; the
    fibre-Fourier and dense paths ignore it.  The shift-invert path solves
    at ``op.safe_shift`` and at no other shift; a ``safe_shift`` that is
    not below the spectrum raises :class:`FactorizationFailed`.  A
    ``cfg.k`` above ``op.dim`` raises :class:`ConfigError`.
    """
    n = op.dim
    k = cfg.k
    if k > n:
        raise ConfigError(f"requested {k} pairs from a dimension-{n} operator")

    modes = None
    if op.fiber_factors is not None:
        values, vectors, modes = _fiber_fourier(op, cfg)
    elif n <= DENSE_CUTOFF or k > n - 2:
        values, vectors = dla.eigh(op.stiffness.toarray(), np.diag(op.weight),
                                   subset_by_index=[0, k - 1])
    else:
        sigma = op.safe_shift
        v0 = _start_vector(op, cfg.seed, start)
        ncv = max(2 * k + 4, 20)
        if start is not None and k <= 3:
            ncv = 14  # the measured one-pass size, see the module docstring
        ncv = min(n - 1, ncv)
        weight = sp.diags(op.weight)
        try:
            inverse = _shift_inverse(op.stiffness - sigma * weight)
        except dla.LinAlgError as exc:
            raise FactorizationFailed(f"K - sigma W is not positive definite: safe shift "
                                      f"sigma = {sigma:g} is not below the spectrum") from exc
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
    # value estimate and keeps values and vectors exactly consistent.  One
    # product K x per vector serves its quotient and its residual, and both
    # reduce one column at a time.
    products = [op.apply(x) for x in vectors.T]
    values = np.array([float(x @ kx) / float(x @ (op.weight * x))
                       for x, kx in zip(vectors.T, products)])
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    products = [products[i] for i in order]
    if modes is not None:
        modes = modes[order]
    residuals = _residuals(op, values, vectors, products)
    if np.any(residuals > cfg.tol):
        raise NoConvergence(
            f"max residual {residuals.max():.3e} exceeds tolerance {cfg.tol:.3e}"
        )
    return EigenPairSet(values=values, vectors=vectors, residuals=residuals, fiber_modes=modes)
