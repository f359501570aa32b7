"""Convergence studies: eps sweeps, rate fits, guarded checks.

A study fixes a geometry, a grid, and a mode index.  It solves the
eps-independent effective problem once on the base grid and once on a
refined grid, then for every eps solves the full problem on both grids.
The refined solve yields a per-quantity discretization estimate; a sweep
point enters a rate fit only when the measured model error exceeds ten
times that estimate.  When every point sits at the discretization floor
the check is reported as passed with an explicit "below floor" flag
rather than fitting noise; this is exactly the flat situation where the
model is discretely exact.  :mod:`fibrelab.report` writes the results.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .effective import DiscrepancyRecord, Prediction, build_prediction, measure_discrepancy
from .eigensolve import SolveConfig, smallest_eigenpairs
from .errors import ConfigError, FibrelabError, InsufficientPoints
from .geometry import (
    BundleGeometry,
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
    as_epsilon,
)
from .nodal import count_nodal_domains, field_from_operator
from .operators import GridSpec, assemble_effective, assemble_full

__all__ = [
    "StudyConfig",
    "RateFit",
    "CheckResult",
    "StudyReport",
    "geometry_from_config",
    "load_config",
    "run_study",
    "fit_rate",
    "self_check",
]

RATE_CHECKS = ("eig_rate", "supnorm_rate", "hausdorff_rate")
ALL_CHECKS = RATE_CHECKS + ("isotopy", "boundary", "courant")
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
    thresholds: dict[str, float]
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
    name: str
    passed: bool
    reason: str
    threshold: Optional[float] = None
    theory: Optional[float] = None
    slope: Optional[float] = None


@dataclass
class StudyReport:
    config_echo: dict
    records: list[DiscrepancyRecord]
    fits: dict[str, Optional[RateFit]]
    checks: dict[str, CheckResult]
    failures: list[dict]
    courant_counts: dict[float, list[int]]
    timings: dict[str, float] = field(default_factory=dict)


def geometry_from_config(block: dict) -> BundleGeometry:
    """Build a geometry from its JSON block."""
    try:
        kind = block["type"]
        if kind == "warped_torus":
            length = float(block["L"])
            warp_block = block.get("warp", {})
            warp = PeriodicProfile(
                period=2.0 * length,
                constant=float(warp_block.get("constant", 1.0)),
                cos_amps=tuple(warp_block.get("cos", ())),
                sin_amps=tuple(warp_block.get("sin", ())),
            )
            return WarpedTorusGeometry(
                half_length=length,
                fiber_length=float(block["fiber_length"]),
                warp=warp,
                warp_is_exp=bool(warp_block.get("exp", False)),
            )
        if kind == "waveguide":
            length = float(block["length"])
            curv_block = block.get("curvature", {})
            curvature = PeriodicProfile(
                period=length,
                constant=float(curv_block.get("constant", 0.0)),
                cos_amps=tuple(curv_block.get("cos", ())),
                sin_amps=tuple(curv_block.get("sin", ())),
            )
            return WaveguideGeometry(base_length=length, curvature=curvature)
        raise ConfigError(f"unknown geometry type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry block: {exc}") from exc


def load_config(raw: dict) -> StudyConfig:
    """Validate a raw JSON study configuration."""
    geom = geometry_from_config(raw.get("geometry", {}))
    try:
        epsilons = [float(e) for e in raw["epsilons"]]
        grid_block = raw.get("grid", {})
        grid = GridSpec(
            int(grid_block.get("n_s", 64)),
            int(grid_block.get("n_f", 64)),
            int(grid_block.get("stencil_order", 2)),
        )
        refine = int(grid_block.get("refine", 2))
        solver_block = raw.get("solver", {})
        solver = SolveConfig(
            k=int(solver_block.get("k", 8)),
            tol=float(solver_block.get("tol", 1e-8)),
            max_iter=int(solver_block.get("max_iter", 5000)),
            seed=int(solver_block.get("seed", 0)),
            shift=None if solver_block.get("shift") is None else float(solver_block["shift"]),
        )
        study_block = raw.get("study", {})
        mode_index = int(study_block.get("mode_index", 0))
        checks = list(study_block.get("checks", []))
        out = study_block.get("out")
        thresholds = dict(study_block.get("thresholds", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad study configuration: {exc}") from exc

    if not epsilons:
        raise ConfigError("need at least one epsilon")
    if any(e2 >= e1 for e1, e2 in zip(epsilons, epsilons[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    try:
        for e in epsilons:
            as_epsilon(e)
            if isinstance(geom, WaveguideGeometry):
                geom.check_tube(e)
    except (ValueError, FibrelabError) as exc:
        raise ConfigError(f"invalid epsilon list: {exc}") from exc
    for name in checks:
        if name not in ALL_CHECKS:
            raise ConfigError(f"unknown check {name!r}")
    for name, value in thresholds.items():
        if name not in RATE_CHECKS:
            raise ConfigError(f"threshold for unknown rate check {name!r}")
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(f"threshold {name!r} must be a finite number, got {value!r}")
    if any(c in RATE_CHECKS for c in checks) and len(epsilons) < 3:
        raise ConfigError("rate checks require at least three epsilons")
    if refine < 2:
        raise ConfigError("refinement factor must be at least 2")
    if mode_index < 0:
        raise ConfigError("mode_index must be nonnegative")
    return StudyConfig(
        geometry=geom,
        epsilons=epsilons,
        grid=grid,
        refine=refine,
        solver=solver,
        mode_index=mode_index,
        checks=checks,
        out=out,
        thresholds=thresholds,
        echo=raw,
    )


def default_threshold(name: str, geom: BundleGeometry) -> float:
    if name == "eig_rate":
        return 1.7 if isinstance(geom, WarpedTorusGeometry) else 0.8
    return 0.9


def theory_exponent(name: str, geom: BundleGeometry) -> float:
    if name == "eig_rate":
        return 2.0 if isinstance(geom, WarpedTorusGeometry) else 1.0
    return 1.0


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


def _auto_shift(geom: BundleGeometry) -> Optional[float]:
    """Shift for the 2D shift-invert solve; the torus solve needs none."""
    if isinstance(geom, WaveguideGeometry):
        return 0.8 * float(np.pi**2 / 4.0)
    return None


QUANTITIES = {"eig_rate": "eig_gap", "supnorm_rate": "supnorm", "hausdorff_rate": "hausdorff"}


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full eps sweep and evaluate the configured checks."""
    geom = cfg.geometry
    grids = [cfg.grid, cfg.grid.refined(cfg.refine)]
    want_courant = "courant" in cfg.checks

    records: list[DiscrepancyRecord] = []
    failures: list[dict] = []
    courant_counts: dict[float, list[int]] = {}
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    solve_cfg = replace(
        cfg.solver,
        k=max(cfg.solver.k, cfg.mode_index + 2, COURANT_MODES if want_courant else 1),
        shift=cfg.solver.shift if cfg.solver.shift is not None else _auto_shift(geom),
    )
    # The effective problem does not depend on eps: one prediction per grid
    # level.  A failed one is raised again at every eps, after that eps's
    # full solve, so the failure records are those of a per-eps prediction.
    predictions: list[Prediction | FibrelabError] = []
    for grid in grids:
        eff = assemble_effective(geom, grid)
        try:
            predictions.append(build_prediction(eff, cfg.mode_index, solve_cfg))
        except FibrelabError as exc:
            predictions.append(exc)
    for eps in cfg.epsilons:
        t0 = time.perf_counter()
        try:
            level_records = []
            for level, (grid, pred) in enumerate(zip(grids, predictions)):
                op = assemble_full(geom, eps, grid)
                pairs = smallest_eigenpairs(op, solve_cfg)
                if isinstance(pred, FibrelabError):
                    raise pred
                rec = measure_discrepancy(op, pairs, pred)
                level_records.append(rec)
                if level == 0 and want_courant:
                    counts = []
                    for idx in range(min(COURANT_MODES, len(pairs.values))):
                        counts.append(count_nodal_domains(field_from_operator(op, pairs.vectors[:, idx])))
                    courant_counts[eps] = counts
            base, fine = level_records
            factor = 1.0 / (1.0 - cfg.refine ** (-float(cfg.grid.stencil_order)))
            ests = {}
            for quantity in ("eig_gap", "supnorm", "hausdorff"):
                qb, qf = getattr(base, quantity), getattr(fine, quantity)
                if qb is not None and qf is not None:
                    ests[quantity] = abs(qb - qf) * factor
            base.disc_estimates = ests
            base.disc_error_estimate = ests.get("eig_gap")
            records.append(base)
        except FibrelabError as exc:
            failures.append({"epsilon": eps, "error": type(exc).__name__, "message": str(exc)})
        timings[f"eps={eps:g}"] = time.perf_counter() - t0

    fits: dict[str, Optional[RateFit]] = {}
    checks: dict[str, CheckResult] = {}
    for name in cfg.checks:
        if name in RATE_CHECKS:
            checks[name] = _evaluate_rate_check(name, cfg, records, fits)
        elif name == "isotopy":
            checks[name] = _evaluate_isotopy(records)
        elif name == "boundary":
            checks[name] = _evaluate_boundary(records)
        elif name == "courant":
            checks[name] = _evaluate_courant(courant_counts)
    timings["total"] = time.perf_counter() - t_start
    return StudyReport(
        config_echo=cfg.echo,
        records=records,
        fits=fits,
        checks=checks,
        failures=failures,
        courant_counts=courant_counts,
        timings=timings,
    )


def _evaluate_rate_check(name: str, cfg: StudyConfig, records: list[DiscrepancyRecord],
                         fits: dict[str, Optional[RateFit]]) -> CheckResult:
    quantity = QUANTITIES[name]
    threshold = cfg.thresholds.get(name, default_threshold(name, cfg.geometry))
    theory = theory_exponent(name, cfg.geometry)
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

    if not usable:
        floorish = [e for e in excluded if e[2] in ("below discretization floor", "zero error")]
        if len(floorish) == len(excluded) and excluded:
            fits[quantity] = None
            return CheckResult(
                name=name, passed=True,
                reason="all points at the discretization floor; model error not resolvable",
                threshold=threshold, theory=theory,
            )
        fits[quantity] = None
        return CheckResult(name=name, passed=False, reason="no usable points",
                           threshold=threshold, theory=theory)
    if len(usable) < 3:
        fits[quantity] = None
        return CheckResult(
            name=name, passed=False,
            reason=f"only {len(usable)} points above the floor; need 3 for a fit",
            threshold=threshold, theory=theory,
        )
    fit = fit_rate(usable)
    fit.excluded = excluded
    fits[quantity] = fit
    passed = fit.slope >= threshold
    reason = (
        f"fitted slope {fit.slope:.3f} vs threshold {threshold:.2f} (theory {theory:.0f})"
    )
    return CheckResult(name=name, passed=passed, reason=reason,
                       threshold=threshold, theory=theory, slope=fit.slope)


def _evaluate_isotopy(records: list[DiscrepancyRecord]) -> CheckResult:
    if not records:
        return CheckResult("isotopy", False, "no records")
    rec = min(records, key=lambda r: r.eps)
    graph_ok = rec.nodal.graph_over_fiber is True
    count_ok = rec.nodal.component_count == len(rec.nodal.zero_list)
    passed = graph_ok and count_ok
    reason = (
        f"eps={rec.eps:g}: graph-over-fibre {graph_ok}, components "
        f"{rec.nodal.component_count} vs zeros {len(rec.nodal.zero_list)}"
    )
    return CheckResult("isotopy", passed, reason)


def _evaluate_boundary(records: list[DiscrepancyRecord]) -> CheckResult:
    if not records:
        return CheckResult("boundary", False, "no records")
    bad = [
        rec.eps
        for rec in records
        if rec.nodal.boundary_components < 2 * len(rec.nodal.zero_list)
    ]
    passed = not bad
    reason = "boundary contacts >= 2 x zeros at every eps" if passed else (
        f"too few boundary contacts at eps={bad}"
    )
    return CheckResult("boundary", passed, reason)


def _evaluate_courant(counts: dict[float, list[int]]) -> CheckResult:
    if not counts:
        return CheckResult("courant", False, "no nodal domain counts collected")
    violations = []
    for eps, per_mode in sorted(counts.items(), reverse=True):
        for idx, c in enumerate(per_mode):
            if c > idx + 1:
                violations.append((eps, idx, c))
    passed = not violations
    reason = "domain counts within index+1" if passed else f"violations: {violations}"
    return CheckResult("courant", passed, reason)


# ---------------------------------------------------------------- self test

def self_check(verbose: bool = False) -> list[tuple[str, bool, str]]:
    """Fast built-in invariant suite for the `check` CLI subcommand."""
    from . import geometry as g
    from . import operators as ops
    from .effective import sup_rate_factor
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
        m = g.metric_sample(torus, 0.5, 0.7, 0.1)
        assert abs(m.g_ss_inv - 0.25) < 1e-15 and abs(m.sqrt_det - 2.0) < 1e-15
        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0))
        m2 = g.metric_sample(wg, 0.1, 0.0, 1.0)
        assert abs(m2.sqrt_det - 9.0) < 1e-12

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

    def check_separable():
        import scipy.linalg as dla

        torus = g.WarpedTorusGeometry(np.pi, 2 * np.pi,
                                      g.PeriodicProfile(2 * np.pi, 0.0, (0.3,)), warp_is_exp=True)
        op = assemble_full(torus, 0.7, GridSpec(20, 16, 4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=12))
        assert set(pairs.fiber_modes) != {0}
        dense = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)[:12]
        assert np.max(np.abs(pairs.values - dense) / np.maximum(1.0, np.abs(dense))) < 1e-10

    def check_shift_invert():
        import scipy.linalg as dla

        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0, (0.5, 0.25)))
        op = assemble_full(wg, 0.3, GridSpec(40, 21, 4))
        pairs = smallest_eigenpairs(op, SolveConfig(k=6))
        dense = dla.eigh(op.stiffness.toarray(), np.diag(op.weight), eigvals_only=True)[:6]
        assert np.max(np.abs(pairs.values - dense) / np.maximum(1.0, np.abs(dense))) < 1e-10

    def check_rate_fit():
        f = fit_rate([(0.2, 0.04), (0.1, 0.01), (0.05, 0.0025)])
        assert abs(f.slope - 2.0) < 1e-12 and abs(f.r_squared - 1.0) < 1e-12

    def check_theta():
        assert sup_rate_factor(1, 0.05) == 1.0
        assert abs(sup_rate_factor(2, np.exp(-1.0)) - 1.0) < 1e-12
        assert abs(sup_rate_factor(3, 0.25) - 2.0) < 1e-12

    def check_density():
        wg = g.WaveguideGeometry(2 * np.pi, g.PeriodicProfile(2 * np.pi, 1.0))
        assert abs(ops.density_potential(wg, 0.1, 0.0, 0.0) + 0.0025) < 1e-15
        assert abs(ops.density_potential(wg, 0.1, 0.0, 1.0) + 0.0025 / 0.81) < 1e-15

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
    run("metric samples", check_metric)
    run("assembly symmetry and kernel", check_symmetry)
    run("flat tensor exactness", check_flat)
    run("separable torus solve", check_separable)
    run("waveguide shift-invert solve", check_shift_invert)
    run("rate fit", check_rate_fit)
    run("uniform rate factor", check_theta)
    run("density potential", check_density)
    run("nodal extraction", check_nodal)
    run("canonical serialization", check_determinism)
    if verbose:
        for name, ok, msg in results:
            print(("PASS" if ok else "FAIL"), name, msg)
    return results
