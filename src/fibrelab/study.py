"""Convergence studies: eps sweeps, rate fits, guarded checks.

A study fixes a geometry, a mode index j and a list of grid levels: the
configured grid, then that grid refined by ``refine``.  It solves the
eps-independent effective problem once per level, then for every eps
solves the full problem on each level in order.  Level 0 is reported: it
solves for ``max(solver.k, j + 2, 6)`` pairs (the 6 only with the
``courant`` check, whose domain counts it feeds).  A later level only
yields a per-quantity discretization estimate of the paired level, so
each level hands the next its pair count, two more than the index of the
pair that mode j pairs with (:func:`fibrelab.effective.paired_level`):
``j + 2`` on the waveguide, more on a torus with fibre-excited levels
below the paired one.  On the waveguide it also hands over its first k
vectors, injected onto the next grid (:func:`fibrelab.operators.prolongate`),
as the start of that solve; the torus's separable solve takes no start.
Each estimate comes from a pair of adjacent levels.
A sweep point enters a rate fit only when the measured model error
exceeds ten times that estimate.  When every point sits at the
discretization floor the check is reported as passed with an explicit
"below floor" flag rather than fitting noise; this is exactly the flat
situation where the model is discretely exact.  A fit passes only when
its slope and the local slope between every two consecutive usable
points reach the threshold.  ``RATE_CHECKS``
holds each rate check's quantity, theory exponent and fixed threshold;
its :class:`CheckResult` carries its fit.  ``CHECKS`` maps every check
name to its evaluator; a study with no records fails each configured
check with "no records" before any evaluator runs.  ``NODAL_CHECKS``
names the fibre each nodal check judges, after the paper's two nodal
theorems: ``isotopy`` a closed fibre, ``boundary`` a fibre with walls,
``hausdorff_rate`` either.  :func:`load_config` refuses a nodal check on
the other fibre, or at mode 0, whose effective eigenfunction has no
zeros.
:mod:`fibrelab.report` writes the results.

Every full solve runs at its operator's ``safe_shift``: on the waveguide
the fibre-block lower bound of :func:`fibrelab.operators.assemble_full`,
the discrete fibre ground energy less a stated margin, which lies below
``lambda_1`` by construction and not by the effective model under test.
When a level's prediction failed, no level is solved:
the first such failure is recorded at every eps.
Each failure record names its eps, grid level and stage.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .effective import (
    DiscrepancyRecord,
    Prediction,
    build_prediction,
    measure_discrepancy,
    paired_level,
)
from .eigensolve import SolveConfig, single_threaded_blas, smallest_eigenpairs
from .errors import (
    ConfigError,
    FibrelabError,
    GridTooCoarse,
    InsufficientPoints,
)
from .geometry import (
    BundleGeometry,
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
)
from .nodal import count_nodal_domains, field_from_operator
from .operators import (
    GridSpec,
    assemble_effective,
    assemble_full,
    prolongate,
)

__all__ = [
    "StudyConfig",
    "RateFit",
    "CheckResult",
    "StudyReport",
    "load_config",
    "run_study",
    "fit_rate",
    "self_check",
]

# rate check: (quantity, (theory exponent, threshold) for a closed fibre,
# the same for a fibre with walls)
RATE_CHECKS = {
    "eig_rate": ("eig_gap", (2.0, 1.7), (1.0, 0.8)),
    "supnorm_rate": ("supnorm", (1.0, 0.9), (1.0, 0.9)),
    "hausdorff_rate": ("hausdorff", (1.0, 0.9), (1.0, 0.9)),
}
# nodal check -> the fibre it judges: closed (True), with walls (False) or
# either (None); mode 0 has no zeros, so none of them judges it
NODAL_CHECKS = {"hausdorff_rate": None, "isotopy": True, "boundary": False}
FLOOR_FACTOR = 10.0
COURANT_MODES = 6


@dataclass
class StudyConfig:
    geometry: BundleGeometry
    epsilons: list[float]
    grid: GridSpec
    refine: int
    solver: SolveConfig
    mode_index: int
    checks: list[str]
    out: Optional[str]
    echo: dict


@dataclass
class RateFit:
    """Least-squares line through (log eps, log e)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: list[tuple[float, float]]
    excluded: list[tuple[float, float, str]] = field(default_factory=list)


@dataclass
class CheckResult:
    """Verdict of one check; a rate check's fit, when it has one, comes with it."""

    name: str
    passed: bool
    reason: str
    threshold: Optional[float] = None
    theory: Optional[float] = None
    fit: Optional[RateFit] = None

    @property
    def slope(self) -> Optional[float]:
        """The fitted slope, ``None`` without a fit."""
        return None if self.fit is None else self.fit.slope


@dataclass
class StudyReport:
    config_echo: dict
    records: list[DiscrepancyRecord]
    checks: dict[str, CheckResult]
    failures: list[dict]
    timings: dict[str, float] = field(default_factory=dict)


def geometry_from_config(block: dict) -> BundleGeometry:
    """Build a geometry from its JSON block."""
    try:
        kind = block["type"]
        if kind == "warped_torus":
            _only(block, ("type", "L", "fiber_length", "warp"), "geometry")
            length = _number(block["L"], "L")
            warp_block = _only(block.get("warp", {}), ("constant", "cos", "sin", "exp"), "warp")
            warp = _profile(warp_block, 2.0 * length, 1.0)
            exp = warp_block.get("exp", False)
            if not isinstance(exp, bool):
                raise ValueError(f"'exp' must be true or false, got {exp!r}")
            return WarpedTorusGeometry(
                half_length=length,
                fiber_length=_number(block["fiber_length"], "fiber_length"),
                warp=warp,
                warp_is_exp=exp,
            )
        if kind == "waveguide":
            _only(block, ("type", "length", "curvature"), "geometry")
            length = _number(block["length"], "length")
            curv_block = _only(block.get("curvature", {}), ("constant", "cos", "sin"), "curvature")
            return WaveguideGeometry(base_length=length,
                                     curvature=_profile(curv_block, length, 0.0))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry block: {exc}") from exc
    raise ConfigError(f"unknown geometry type {kind!r}")


def _integer(block: dict, key: str, default: int) -> int:
    """``block[key]`` as an int: an integer or integral float, not a bool, fraction or string."""
    value = block.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key!r} must be an integer, got {value!r}")


def _number(value, key: str) -> float:
    """``value`` of ``key`` as a float: a finite real number, not a bool or string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{key!r} must be a finite number, got {value!r}")


def _amplitudes(block: dict, key: str) -> tuple[float, ...]:
    """The list ``block[key]`` of profile amplitudes, each a number."""
    return tuple(_number(a, key) for a in _list(block.get(key, ()), key))


def _profile(block: dict, period: float, constant: float) -> PeriodicProfile:
    """The series of a profile block: ``constant`` (default ``constant``), ``cos`` and ``sin``."""
    return PeriodicProfile(period=period,
                           constant=_number(block.get("constant", constant), "constant"),
                           cos_amps=_amplitudes(block, "cos"), sin_amps=_amplitudes(block, "sin"))


def _list(value, key: str) -> list:
    """``value`` of ``key``, which must be a list: a string would be read by character."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return list(value)


def _only(block: dict, keys: tuple[str, ...], where: str) -> dict:
    """``block``, an object with no key outside ``keys``: a misspelt key would be ignored."""
    if not isinstance(block, dict):
        raise ValueError(f"{where!r} must be an object, got {block!r}")
    for key in block:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where!r}")
    return block


def load_config(raw: dict) -> StudyConfig:
    """Validate a raw JSON study configuration."""
    try:
        _only(raw, ("geometry", "epsilons", "grid", "solver", "study"), "the configuration")
        geom = geometry_from_config(raw.get("geometry", {}))
        epsilons = [_number(e, "epsilons") for e in _list(raw["epsilons"], "epsilons")]
        grid_block = _only(raw.get("grid", {}), ("n_s", "n_f", "stencil_order", "refine"), "grid")
        grid = GridSpec(
            _integer(grid_block, "n_s", 64),
            _integer(grid_block, "n_f", 64),
            _integer(grid_block, "stencil_order", 2),
        )
        refine = _integer(grid_block, "refine", 2)
        solver_block = _only(raw.get("solver", {}), ("k", "tol", "max_iter", "seed", "shift"),
                             "solver")
        if solver_block.get("shift") is not None:
            _number(solver_block["shift"], "shift")  # read by nothing: ROADMAP item 14
        solver = SolveConfig(
            k=_integer(solver_block, "k", 8),
            tol=_number(solver_block.get("tol", 1e-8), "tol"),
            max_iter=_integer(solver_block, "max_iter", 5000),
            seed=_integer(solver_block, "seed", 0),
        )
        study_block = _only(raw.get("study", {}), ("mode_index", "checks", "out"), "study")
        mode_index = _integer(study_block, "mode_index", 0)
        checks = _list(study_block.get("checks", []), "checks")
        out = study_block.get("out")
        if out is not None and not isinstance(out, str):
            raise ValueError(f"'out' must be a path or null, got {out!r}")
    except ConfigError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, GridTooCoarse) as exc:
        raise ConfigError(f"bad study configuration: {exc}") from exc

    if not epsilons:
        raise ConfigError("need at least one epsilon")
    if any(e2 >= e1 for e1, e2 in zip(epsilons, epsilons[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    try:
        for e in epsilons:
            geom.check_epsilon(e)
    except FibrelabError as exc:
        raise ConfigError(f"invalid epsilon list: {exc}") from exc
    fibers = ("a fibre with walls", "a closed fibre")
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}")
        if name in NODAL_CHECKS and mode_index == 0:
            raise ConfigError(f"check {name!r} judges a nodal set, and mode_index 0 has none")
        if NODAL_CHECKS.get(name) not in (None, geom.closed_fiber):
            raise ConfigError(f"check {name!r} judges {fibers[NODAL_CHECKS[name]]}, "
                              f"and this geometry has {fibers[geom.closed_fiber]}")
    if any(c in RATE_CHECKS for c in checks) and len(epsilons) < 3:
        raise ConfigError("rate checks require at least three epsilons")
    if refine < 2:
        raise ConfigError("refinement factor must be at least 2")
    if mode_index < 0:
        raise ConfigError("mode_index must be nonnegative")
    cfg = StudyConfig(
        geometry=geom,
        epsilons=epsilons,
        grid=grid,
        refine=refine,
        solver=solver,
        mode_index=mode_index,
        checks=checks,
        out=out,
        echo=raw,
    )
    k = _reported_pair_count(cfg)
    if k > grid.n_s:
        raise ConfigError(f"the study needs {k} eigenpairs of the effective operator, "
                          f"more than its dimension n_s = {grid.n_s}")
    return cfg


def _reported_pair_count(cfg: StudyConfig) -> int:
    """Pairs of each reported-level solve: mode j, its upper neighbour and the Courant modes."""
    return max(cfg.solver.k, cfg.mode_index + 2,
               COURANT_MODES if "courant" in cfg.checks else 1)


def fit_rate(points: list[tuple[float, float]]) -> RateFit:
    """Least-squares log-log fit through (eps, e) pairs."""
    if len(points) < 3:
        raise InsufficientPoints(f"rate fit needs at least 3 points, got {len(points)}")
    if any(e <= 0.0 for _, e in points):
        raise ValueError("rate fit requires positive errors")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        points_used=[(float(a), float(b)) for a, b in points],
    )


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full eps sweep and evaluate the configured checks.

    BLAS runs on one thread throughout (see :mod:`fibrelab.eigensolve`);
    ``timings["blas_single_threaded"]`` counts the libraries held there,
    0 where none was found.
    """
    with single_threaded_blas() as blas_libraries:
        report = _run_sweep(cfg)
    report.timings["blas_single_threaded"] = blas_libraries
    return report


def _run_sweep(cfg: StudyConfig) -> StudyReport:
    geom = cfg.geometry
    want_courant = "courant" in cfg.checks

    records: list[DiscrepancyRecord] = []
    failures: list[dict] = []
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    solve_cfg = replace(cfg.solver, k=_reported_pair_count(cfg))
    # The grid levels, each refined from the one before.  The effective
    # problem does not depend on eps: each level holds its one prediction,
    # or the error that prediction raised.
    levels: list[tuple[GridSpec, Prediction | FibrelabError]] = []
    for grid in (cfg.grid, cfg.grid.refined(cfg.refine)):
        eff = assemble_effective(geom, grid)
        try:
            levels.append((grid, build_prediction(eff, cfg.mode_index, solve_cfg)))
        except FibrelabError as exc:
            levels.append((grid, exc))
    # the first failed prediction fails every eps before any full solve
    failed = next((level for level, (_, pred) in enumerate(levels)
                   if isinstance(pred, FibrelabError)), None)
    reported = 0  # the level whose records the study reports
    factor = 1.0 / (1.0 - cfg.refine ** (-float(cfg.grid.stencil_order)))
    for eps in cfg.epsilons:
        t0 = time.perf_counter()
        try:
            if failed is not None:
                failures.append(_failure(eps, failed, "prediction", levels[failed][1]))
                continue
            level_records = []
            pair_count, coarser = solve_cfg.k, None
            for level, (grid, pred) in enumerate(levels):
                stage = "assemble"
                op = assemble_full(geom, eps, grid)
                start = None if coarser is None else prolongate(*coarser, grid)
                stage = "full_solve"
                pairs = smallest_eigenpairs(op, replace(solve_cfg, k=pair_count), start=start)
                stage = "discrepancy"
                rec = measure_discrepancy(op, pairs, pred)
                level_records.append(rec)
                if level == reported and want_courant:
                    stage = "courant"
                    rec.courant_counts = [
                        count_nodal_domains(field_from_operator(op, pairs.vectors[:, idx]))
                        for idx in range(min(COURANT_MODES, len(pairs.values)))]
                # the next level solves up to the paired level's upper
                # neighbour, as counted here, and on the waveguide starts
                # from this level's vectors
                pair_count = paired_level(pairs, cfg.mode_index) + 2
                if not geom.closed_fiber:
                    coarser = (grid, pairs.vectors[:, :pair_count])
            rec = level_records[reported]
            finer = level_records[reported + 1]
            rec.disc_estimates = {
                quantity: abs(getattr(rec, quantity) - getattr(finer, quantity)) * factor
                for quantity, _, _ in RATE_CHECKS.values()
                if getattr(rec, quantity) is not None and getattr(finer, quantity) is not None}
            records.append(rec)
        except FibrelabError as exc:
            failures.append(_failure(eps, level, stage, exc))
        finally:
            timings[f"eps={eps!r}"] = time.perf_counter() - t0

    checks = {name: CHECKS[name](cfg, records) if records
              else CheckResult(name, False, "no records") for name in cfg.checks}
    timings["total"] = time.perf_counter() - t_start
    return StudyReport(
        config_echo=cfg.echo,
        records=records,
        checks=checks,
        failures=failures,
        timings=timings,
    )


def _failure(eps: float, level: int, stage: str, exc: FibrelabError) -> dict:
    """The failure record of ``exc``, raised at ``eps`` on grid level ``level`` in ``stage``."""
    return {"epsilon": eps, "level": level, "stage": stage,
            "error": type(exc).__name__, "message": str(exc)}


def _evaluate_rate_check(name: str, cfg: StudyConfig,
                         records: list[DiscrepancyRecord]) -> CheckResult:
    """One verdict: a fitted slope, all points at the floor, or too few above it.

    A fit passes only on a power law: its slope and the local slope between
    every two consecutive usable points (largest eps first) reach the
    threshold, so the error falls at each step at least at the bar's rate.
    A failing reason names the first step that falls short.  ``records``
    is not empty (see ``CHECKS``).
    """
    quantity, closed, walled = RATE_CHECKS[name]
    theory, threshold = closed if cfg.geometry.closed_fiber else walled
    usable: list[tuple[float, float]] = []
    excluded: list[tuple[float, float, str]] = []
    for rec in records:
        value = getattr(rec, quantity)
        est = rec.disc_estimates.get(quantity)
        if value is None:
            excluded.append((rec.eps, float("nan"), "not measured"))
        elif value <= 0.0:
            excluded.append((rec.eps, value, "zero error"))
        elif est is not None and value < FLOOR_FACTOR * est:
            excluded.append((rec.eps, value, "below discretization floor"))
        else:
            usable.append((rec.eps, value))

    if len(usable) >= 3:
        fit = fit_rate(usable)
        fit.excluded = excluded
        reason = f"fitted slope {fit.slope:.3f} vs threshold {threshold:.2f} (theory {theory:.0f})"
        points = sorted(usable, reverse=True)
        steps = [(e0, e1, math.log(v1 / v0) / math.log(e1 / e0))
                 for (e0, v0), (e1, v1) in zip(points, points[1:])]
        short = next((step for step in steps if step[2] < threshold), None)
        if short is not None:
            reason += f"; local slope {short[2]:.3f} from eps={short[0]:g} to eps={short[1]:g}"
        return CheckResult(name, fit.slope >= threshold and short is None, reason,
                           threshold, theory, fit)
    if not usable and all(why != "not measured" for _, _, why in excluded):
        return CheckResult(name, True, "all points at the discretization floor; "
                           "model error not resolvable", threshold, theory)
    reason = (f"only {len(usable)} points above the floor; need 3 for a fit" if usable
              else "no usable points")
    return CheckResult(name, False, reason, threshold, theory)


def _evaluate_isotopy(_cfg: StudyConfig, records: list[DiscrepancyRecord]) -> CheckResult:
    """The smallest eps's nodal set passes the graph-over-fibre check.

    That check already requires one component per predicted zero; the
    reason names both counts.
    """
    rec = min(records, key=lambda r: r.eps)
    graph_ok = rec.graph_over_fiber is True
    reason = (
        f"eps={rec.eps:g}: graph-over-fibre {graph_ok}, components "
        f"{rec.component_count} vs zeros {len(rec.zeros)}"
    )
    return CheckResult("isotopy", graph_ok, reason)


def _evaluate_boundary(_cfg: StudyConfig, records: list[DiscrepancyRecord]) -> CheckResult:
    bad = [
        rec.eps
        for rec in records
        if rec.boundary_components < 2 * len(rec.zeros)
    ]
    passed = not bad
    reason = "boundary contacts >= 2 x zeros at every eps" if passed else (
        f"too few boundary contacts at eps={bad}"
    )
    return CheckResult("boundary", passed, reason)


def _evaluate_courant(_cfg: StudyConfig, records: list[DiscrepancyRecord]) -> CheckResult:
    violations = [(rec.eps, idx, c) for rec in records
                  for idx, c in enumerate(rec.courant_counts) if c > idx + 1]
    passed = not violations
    reason = "domain counts within index+1" if passed else f"violations: {violations}"
    return CheckResult("courant", passed, reason)


# check name -> evaluator(cfg, records), records never empty
CHECKS = {
    **{name: functools.partial(_evaluate_rate_check, name) for name in RATE_CHECKS},
    "isotopy": _evaluate_isotopy,
    "boundary": _evaluate_boundary,
    "courant": _evaluate_courant,
}


# ---------------------------------------------------------------- self test

def self_check(verbose: bool = False) -> list[tuple[str, bool, str]]:
    """Fast built-in invariant suite for the `check` CLI subcommand."""
    from . import geometry as g
    from . import operators as ops
    from .report import dumps_canonical

    results: list[tuple[str, bool, str]] = []

    def run(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def check_profile():
        p = g.PeriodicProfile(period=2 * np.pi, cos_amps=(1.0,))
        assert abs(p.eval(0.0, 2) + 1.0) < 1e-14
        q = g.PeriodicProfile(period=2 * np.pi, constant=1.0, cos_amps=(0.5,))
        assert abs(q.eval(np.pi / 2.0) - 1.0) < 1e-14
        assert g.PeriodicProfile(period=1.0, constant=1.0).eval(0.3, 1) == 0.0

    def check_metric():
        torus = g.WarpedTorusGeometry(np.pi, 2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0))
        assert [float(c) for c in torus.metric_coefficients(0.5, 0.7)] == [0.5, 2.0, 2.0]
        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0))
        c_s, c_f, sqrt_det = (float(c[0, 0]) for c in wg.metric_coefficients(0.1, 0.0, 1.0))
        assert abs(sqrt_det - 9.0) < 1e-12 and c_f == sqrt_det and abs(c_s - 1.0 / 9.0) < 1e-15

    def check_symmetry():
        torus = g.WarpedTorusGeometry(np.pi, 2 * np.pi,
                                      g.PeriodicProfile(2 * np.pi, 0.3), warp_is_exp=True)
        op = assemble_full(torus, 0.3, GridSpec(16, 16, 4))
        assert op.symmetry_defect() == 0.0
        ones = np.ones(op.dim)
        assert np.max(np.abs(op.stiffness @ ones)) <= 1e-12 * np.abs(op.stiffness.data).max()

    def check_flat():
        torus = g.WarpedTorusGeometry(np.pi, 2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0))
        grid = GridSpec(16, 16, 2)
        op = assemble_full(torus, 0.5, grid)
        pairs = smallest_eigenpairs(op, SolveConfig(k=5))
        h = 2 * np.pi / 16
        sym = (2.0 - 2.0 * np.cos(2 * np.pi * np.arange(16) / 16)) / h**2
        tensor = np.sort((0.25 * sym[:, None] + sym[None, :]).ravel())[:5]
        assert np.max(np.abs(pairs.values - tensor)) < 1e-10

    def dense_values(op, count):
        """The ``count`` smallest dense generalized eigenvalues of ``op``."""
        import scipy.linalg as dla

        return dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)[:count]

    def assert_dense_match(values, dense):
        assert np.max(np.abs(values - dense) / np.maximum(1.0, np.abs(dense))) < 1e-10

    def check_separable():
        torus = g.WarpedTorusGeometry(np.pi, 2 * np.pi,
                                      g.PeriodicProfile(2 * np.pi, 0.0, (0.3,)), warp_is_exp=True)
        op = assemble_full(torus, 0.7, GridSpec(20, 16, 4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=12))
        assert set(pairs.fiber_modes) != {0}
        assert_dense_match(pairs.values, dense_values(op, 12))

    @functools.cache
    def waveguide():
        """An 800-dof waveguide and its 6 smallest dense values, shared by two checks."""
        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0, (0.5, 0.25)))
        op = assemble_full(wg, 0.3, GridSpec(40, 21, 4))
        return op, dense_values(op, 6)

    def check_shift_invert():
        op, dense = waveguide()
        assert_dense_match(smallest_eigenpairs(op, SolveConfig(k=6)).values, dense)

    def check_fiber_block_shift():
        op, dense = waveguide()
        assert op.safe_shift < dense[0] < op.safe_shift + op.eps**2

    def check_rate_fit():
        f = fit_rate([(0.2, 0.04), (0.1, 0.01), (0.05, 0.0025)])
        assert abs(f.slope - 2.0) < 1e-12 and abs(f.r_squared - 1.0) < 1e-12

    def check_fiber_ground():
        # the fibre ground value that rescaled gaps subtract is the straight
        # tube's: the fibre-block bound under the operator's shift
        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 0.0))
        op = assemble_full(wg, 0.1, GridSpec(16, 64, 2))
        disc = op.fiber_ground_disc
        expected = disc - ops.BOUND_MARGIN * max(1.0, abs(disc))
        assert abs(op.safe_shift - expected) < 1e-12

    def check_nodal():
        from .nodal import ScalarField, count_nodal_domains, extract_nodal_set

        n = 32
        s = np.linspace(0, 2 * np.pi, n, endpoint=False)
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        f = ScalarField(np.cos(s)[:, None] * np.ones(n)[None, :], s, t,
                        2 * np.pi / n, 2 * np.pi / n, 2 * np.pi, True)
        assert extract_nodal_set(f).component_count == 2
        assert count_nodal_domains(f) == 2

    def check_determinism():
        rep = {"a": [1.5, None, True], "b": {"x": 0.1}}
        assert dumps_canonical(rep) == dumps_canonical(json.loads(json.dumps(rep)))

    run("profile calculus", check_profile)
    run("metric coefficients", check_metric)
    run("assembly symmetry and kernel", check_symmetry)
    run("flat tensor exactness", check_flat)
    run("separable torus solve", check_separable)
    run("waveguide shift-invert solve", check_shift_invert)
    run("waveguide fibre-block shift", check_fiber_block_shift)
    run("rate fit", check_rate_fit)
    run("fibre ground energy", check_fiber_ground)
    run("nodal extraction", check_nodal)
    run("canonical serialization", check_determinism)
    if verbose:
        for name, ok, msg in results:
            print(("PASS" if ok else "FAIL"), name, msg)
    return results
