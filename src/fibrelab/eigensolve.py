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
  mode ``m`` and above from below: the returned vectors are provably those
  of the k smallest levels, a completeness certificate.  Each vector
  records its fibre mode ``|m|``.
* Other large operators: shift-invert ARPACK on ``A = K - sigma W`` at
  the operator's ``safe_shift`` ``sigma``, the one shift of every such
  solve, which the operator's assembler places below the spectrum.
  ``A`` is symmetric, and in reverse Cuthill-McKee order a grid operator
  is banded, its half-bandwidth ``b`` as wide as the short grid side.
  The band is factored from both ends (:class:`_TwoSidedBand`): its first
  half and its second half, taken in reverse order, are joined only
  through the middle ``b`` unknowns.  LAPACK's banded Cholesky factors
  the two half bands at the same time, one on the calling thread and one
  on a single worker thread, and a dense Cholesky factor of the middle
  block's Schur complement joins them.  ARPACK applies ``A^{-1}`` through
  that factor: the forward sweeps of both halves in parallel, one
  ``b x b`` solve, the backward sweeps in parallel.  Each solve of the
  98 048-dof waveguide level reads the whole factor twice and is bound by
  memory bandwidth, which a second core adds.  The factor exists if and
  only if ``A`` is positive definite, that is, if and only if ``sigma``
  lies below the whole spectrum, so it certifies the assembler's bound:
  a ``sigma`` inside the spectrum, which would return the pairs nearest
  it instead of the smallest, fails with ``FactorizationFailed``.  The Krylov basis
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

Every path returns vectors only; whatever values it found, ``eps^2 mu``
or LAPACK's or ARPACK's own, serve at most to order its vectors.  The
shared step W-normalizes the vectors, reports their Rayleigh quotients
against the full operator as values, and certifies each residual
``|K x - lambda W x| / |W x|`` against ``tol`` on the full operator,
independently of how the vectors were found.  One loop over the vectors
computes both from one product ``K x`` through
:meth:`~fibrelab.operators.DiscreteOperator.apply` and one ``W x``; on
the torus that applies the exact factors, so the full ``K`` is certified
without ever being formed as a matrix.  One stable sort by value then
orders values, vectors, residuals and fibre modes.

BLAS runs on one thread inside :func:`smallest_eigenpairs` and, through
:func:`fibrelab.study.run_study`, for a whole study.  The work is many
small dense solves and BLAS-1 products on vectors of a few ten thousand
entries; there OpenBLAS's second thread costs start-up and a spinning
idle worker but buys nothing.  On the 2-vCPU reference VM it took a
third of the torus studies' wall time and half of every study's CPU
time, and the band factor of the 98 048-dof waveguide level was no
faster on two threads than on one.  The thread count is set through
OpenBLAS's own ``*_set_num_threads`` for the length of the call and
restored afterwards, so importing the package changes nothing and no
environment variable is read or set.  With one thread the reductions
also run in one order.  The one parallel path is the shift-invert
factor's: its two halves run on two threads as task parallelism, each
half computed by one thread in one fixed order, so ``report.json`` does
not depend on the core count.  scipy's f2py LAPACK wrappers hold the
GIL, so those half-band calls go through ctypes to the ``dpbtrf`` and
``dtbsv`` that ``scipy.linalg.cython_lapack`` and ``cython_blas``
export.  The worker thread starts at the first shift-invert solve; the
torus and dense paths start none.  Another BLAS, or a system without
``/proc``, runs with its own threading.
"""

from __future__ import annotations

import concurrent.futures
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
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with W-orthonormal eigenvectors.

    ``values[i]`` is the Rayleigh quotient of column i of ``vectors`` and
    ``residuals[i]`` its certified ``|K x - lambda W x| / |W x|``.
    ``fiber_modes[i]`` is the fibre Fourier mode ``|m|`` of pair i on the
    separable torus path and ``None`` from the other paths.
    """

    values: np.ndarray
    vectors: np.ndarray  # (dim, k), column i pairs with values[i]
    residuals: np.ndarray
    fiber_modes: Optional[np.ndarray] = None


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


@functools.cache
def _band_kernels() -> tuple[Callable[..., None], Callable[..., None]]:
    """LAPACK ``dpbtrf`` and BLAS ``dtbsv`` as ctypes functions that release the GIL.

    scipy's f2py wrappers hold the interpreter lock through the call, so two
    threads in them run one after the other.  The same routines, reached
    through the function pointers that ``scipy.linalg.cython_lapack`` and
    ``cython_blas`` export in ``__pyx_capi__``, run while ctypes has
    released the lock.
    """
    from scipy.linalg import cython_blas, cython_lapack

    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def load(module, name: str, *argtypes) -> Callable[..., None]:
        capsule = module.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(pointer_of(capsule, name_of(capsule)))

    char, int_, array = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    # dpbtrf(uplo, n, kd, ab, ldab, info)
    pbtrf = load(cython_lapack, "dpbtrf", char, int_, int_, array, int_, int_)
    # dtbsv(uplo, trans, diag, n, k, a, lda, x, incx)
    tbsv = load(cython_blas, "dtbsv", char, char, char, int_, int_, array, int_, array, int_)
    return pbtrf, tbsv


@functools.cache
def _band_worker() -> concurrent.futures.ThreadPoolExecutor:
    """The one thread that factors and sweeps the second half of every band.

    Created at the first shift-invert solve, which also loads the
    executor's module; it idles between solves.
    """
    return concurrent.futures.ThreadPoolExecutor(max_workers=1,
                                                 thread_name_prefix="fibrelab-band")


def _factor_half(band: np.ndarray, flat: np.ndarray, values: np.ndarray) -> int:
    """Fill a lower band in LAPACK storage and Cholesky-factor it in place; LAPACK's ``info``.

    ``values`` go to the column-major offsets ``flat`` of ``band``.
    """
    band.ravel(order="F")[flat] = values
    pbtrf, _ = _band_kernels()
    ldab, n = band.shape
    info = ctypes.c_int(0)
    pbtrf(b"L", ctypes.byref(ctypes.c_int(n)), ctypes.byref(ctypes.c_int(ldab - 1)),
          band.ctypes.data, ctypes.byref(ctypes.c_int(ldab)), ctypes.byref(info))
    return info.value


def _sweep_half(band: np.ndarray, x: np.ndarray, trans: bytes) -> None:
    """``x <- L^{-1} x`` (``trans`` b"N") or ``L^{-T} x`` (b"T") in place, ``L`` a factored band."""
    _, tbsv = _band_kernels()
    ldab, n = band.shape
    tbsv(b"L", trans, b"N", ctypes.byref(ctypes.c_int(n)), ctypes.byref(ctypes.c_int(ldab - 1)),
         band.ctypes.data, ctypes.byref(ctypes.c_int(ldab)), x.ctypes.data,
         ctypes.byref(ctypes.c_int(1)))


def _on_both_halves(fn: Callable, first: tuple, second: tuple) -> tuple:
    """``fn(*first)`` on the calling thread while the band worker runs ``fn(*second)``."""
    future = _band_worker().submit(fn, *second)
    try:
        result = fn(*first)
    finally:
        other = future.result()
    return result, other


class _TwoSidedBand:
    """Cholesky factor of a symmetric banded matrix, factored and solved from both ends.

    In reverse Cuthill-McKee order ``a`` has half-bandwidth ``b``.  Its
    unknowns split into a first half ``I1``, a separator ``S`` of the middle
    ``b`` unknowns and a second half ``I2`` taken in reverse order; the two
    halves do not couple, and each couples to ``S`` only through its last
    ``b`` rows.  With ``A_i = L_i L_i^T`` the band factors of the halves,
    ``T_i`` the last diagonal tile of ``L_i`` and ``B_i`` the half's
    coupling to ``S``, ``X_i = T_i^{-1} B_i`` and the separator's Schur
    complement ``A_SS - X_1^T X_1 - X_2^T X_2 = L_S L_S^T``.  So ``a`` has
    this factor if and only if it is positive definite; otherwise
    ``LinAlgError`` is raised.

    Each half is built and factored, and later swept, by one thread in one
    fixed order: the first on the calling thread, the second on the band
    worker.  The results therefore do not depend on the core count.  The
    two half bands hold ``(b + 1) (n - b)`` entries.
    """

    def __init__(self, a: sp.spmatrix):
        a = a.tocsr()
        perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        self.index, halves, sep, coupling = _split_band(a, perm)
        b = len(sep)
        self.bands = tuple(np.zeros((b + 1, len(self.index[i])), order="F") for i in (0, 2))
        infos = _on_both_halves(_factor_half, (self.bands[0], *halves[0]),
                                (self.bands[1], *halves[1]))
        if any(infos):
            raise dla.LinAlgError("a half band of the matrix is not positive definite")
        # X_i = T_i^{-1} B_i, T_i the trailing block of half i's factor
        self.coupling = tuple(
            dla.lapack.dtbtrs(band[:, band.shape[1] - len(cp):], cp, uplo="L")[0]
            for band, cp in zip(self.bands, coupling))
        for x in self.coupling:
            sep -= x.T @ x
        self.separator = dla.cholesky(sep, lower=True, check_finite=False)

    def solve(self, x: np.ndarray) -> np.ndarray:
        """``a^{-1} x``: forward sweeps of both halves, the separator solve, backward sweeps."""
        x = np.asarray(x, dtype=float).ravel()
        i1, i_s, i2 = self.index
        halves = (x[i1], x[i2])
        tails = [h[len(h) - len(cp):] for h, cp in zip(halves, self.coupling)]
        _on_both_halves(_sweep_half, (self.bands[0], halves[0], b"N"),
                        (self.bands[1], halves[1], b"N"))
        rhs = x[i_s] - self.coupling[0].T @ tails[0] - self.coupling[1].T @ tails[1]
        xs = dla.cho_solve((self.separator, True), rhs, check_finite=False)
        for tail, cp in zip(tails, self.coupling):
            tail -= cp @ xs
        _on_both_halves(_sweep_half, (self.bands[0], halves[0], b"T"),
                        (self.bands[1], halves[1], b"T"))
        y = np.empty(len(x))
        y[i1], y[i_s], y[i2] = halves[0], xs, halves[1]
        return y


def _split_band(a: sp.csr_matrix, perm: np.ndarray) -> tuple:
    """The pieces of ``a``'s lower triangle in the two-sided order of :class:`_TwoSidedBand`.

    Returns the original indices of ``I1``, ``S`` and ``I2`` in that
    order; for each half, the column-major offsets of its entries in LAPACK
    lower band storage with ``b + 1`` rows and their values; the lower
    triangle of the ``S`` block, all that its Cholesky factor reads; and
    each half's coupling ``B_i`` to ``S``, one row per row of its last
    tile.  Entry ``(r, c)``, ``r >= c``, lies in
    row ``r - c`` of the band, in column ``c`` for ``I1`` and in column
    ``n - 1 - r`` for the reversed ``I2``.  Only the returned arrays
    outlive the call.
    """
    n = a.shape[0]
    # positions in the index type of a's own arrays, offsets in intp
    pos = np.empty(n, dtype=a.indices.dtype)
    pos[perm] = np.arange(n)
    row = np.repeat(pos, np.diff(a.indptr))
    col = pos[a.indices]
    lower = row >= col
    row, col, data = row[lower], col[lower], a.data[lower]
    b = int(np.max(row - col, initial=0))
    s0 = (n - b) // 2
    s1 = s0 + b  # S = [s0, s1)
    t1, t2 = min(b, s0), min(b, n - s1)
    first, second = row < s0, col >= s1
    # offsets (r - c) + c (b + 1) and (r - c) + (n - 1 - r) (b + 1)
    flat1 = np.multiply(col[first], b, dtype=np.intp)
    flat1 += row[first]
    flat2 = np.multiply(row[second], -b, dtype=np.intp)
    flat2 -= col[second]
    flat2 += (n - 1) * (b + 1)
    halves = ((flat1, data[first]), (flat2, data[second]))
    mid = ~(first | second)
    row, col, data = row[mid], col[mid], data[mid]
    sep = np.zeros((b, b))
    inner = (row < s1) & (col >= s0)
    sep[row[inner] - s0, col[inner] - s0] = data[inner]
    coupling = (np.zeros((t1, b)), np.zeros((t2, b)))
    edge = col < s0
    coupling[0][col[edge] - (s0 - t1), row[edge] - s0] = data[edge]
    edge = row >= s1
    coupling[1][s1 + t2 - 1 - row[edge], col[edge] - s0] = data[edge]
    index = (perm[:s0], perm[s0:s1], perm[s1:][::-1].copy())
    return index, halves, sep, coupling


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
        matrix=(factors.base_stiffness + sp.diags(tau * factors.fiber_coeff)).tocsr(),
        weight=factors.base_weight,
    )
    sub = smallest_eigenpairs(base, cfg)
    sub.values.flags.writeable = sub.vectors.flags.writeable = False
    return sub.values, sub.vectors


def _fiber_fourier(op: DiscreteOperator, cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of the k smallest pairs of a separable torus operator and their fibre modes.

    Each mode's eps-free base problem comes from :func:`_base_pairs`, and
    its values ``mu`` order and bound the search.  No values are returned:
    the caller reports each vector's Rayleigh quotient, ``eps^2 mu`` up to
    round-off, and certifies it.
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
    return vectors, np.array([c[1] for c in found])


@single_threaded_blas()
def smallest_eigenpairs(op: DiscreteOperator, cfg: SolveConfig, *,
                        start: Optional[np.ndarray] = None) -> EigenPairSet:
    """Compute the ``cfg.k`` algebraically smallest generalized eigenpairs.

    Each returned value is the Rayleigh quotient of its returned vector, and
    each vector's residual is at most ``cfg.tol``, else :class:`NoConvergence`
    is raised.  No solver's own eigenvalue is returned.

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
        vectors, modes = _fiber_fourier(op, cfg)
    elif n <= DENSE_CUTOFF or k > n - 2:
        _, vectors = dla.eigh(op.stiffness.toarray(), np.diag(op.weight),
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
            factor = _TwoSidedBand(op.stiffness - sigma * weight)
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
                OPinv=sla.LinearOperator((n, n), matvec=factor.solve, dtype=float),
            )
        except sla.ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK did not converge: {exc}") from exc
        except sla.ArpackError as exc:
            raise NoConvergence(f"ARPACK failed: {exc}") from exc
        vectors = vectors[:, np.argsort(values)]

    vectors = _w_normalize(op, vectors)
    # report the Rayleigh quotient of each vector; it is the best value
    # estimate and keeps values and vectors exactly consistent.  One product
    # K x per vector serves its quotient and its residual, and both reduce
    # one column at a time.
    values, residuals = np.empty((2, vectors.shape[1]))
    for i, x in enumerate(vectors.T):
        kx, wx = op.apply(x), op.weight * x
        values[i] = lam = float(x @ kx) / float(x @ wx)
        residuals[i] = np.linalg.norm(kx - lam * wx) / np.linalg.norm(wx)
    order = np.argsort(values, kind="stable")
    values, vectors, residuals = values[order], vectors[:, order], residuals[order]
    if modes is not None:
        modes = modes[order]
    if np.any(residuals > cfg.tol):
        raise NoConvergence(
            f"max residual {residuals.max():.3e} exceeds tolerance {cfg.tol:.3e}"
        )
    return EigenPairSet(values=values, vectors=vectors, residuals=residuals, fiber_modes=modes)
