import json
import re
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as sla

import fibrelab.effective as effective_module
import fibrelab.eigensolve as eigensolve_module
import fibrelab.operators as operators_module
import fibrelab.study as study_module
from fibrelab.cli import main as cli_main
from fibrelab.effective import DiscrepancyRecord, measure_discrepancy
from fibrelab.eigensolve import DENSE_CUTOFF, smallest_eigenpairs
from fibrelab.errors import ConfigError, InsufficientPoints, NonTransversalZero, PairingAmbiguous
from fibrelab.operators import assemble_full, prolongate
from fibrelab.report import dumps_canonical, emit_report, records_csv, report_to_dict
from fibrelab.study import (
    _evaluate_rate_check,
    fit_rate,
    load_config,
    run_study,
    self_check,
    CheckResult,
    StudyReport,
)
from test_acceptance import (
    GUIDE_J0_CONFIG,
    GUIDE_J1_CONFIG,
    TORUS_J0_CONFIG,
    TORUS_J1_CONFIG,
)

TWO_PI = 2.0 * np.pi
DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
ACCEPTANCE_CONFIGS = {"TORUS_J0": TORUS_J0_CONFIG, "TORUS_J1": TORUS_J1_CONFIG,
                      "GUIDE_J0": GUIDE_J0_CONFIG, "GUIDE_J1": GUIDE_J1_CONFIG}


def flat_config(**overrides):
    cfg = {
        "geometry": {
            "type": "warped_torus",
            "L": np.pi,
            "fiber_length": TWO_PI,
            "warp": {"constant": 1.0, "cos": [], "sin": []},
        },
        "epsilons": [0.5, 0.4, 0.3],
        "grid": {"n_s": 32, "n_f": 32, "stencil_order": 2, "refine": 2},
        "solver": {"k": 6, "tol": 1e-8, "max_iter": 5000, "seed": 0},
        "study": {"mode_index": 0, "checks": ["eig_rate"], "out": None},
    }
    cfg.update(overrides)
    return cfg


def small_guide_config(**solver):
    # dimension 48 * 16 = 768, above the dense cutoff: the shift-invert path
    cfg = flat_config(
        geometry={"type": "waveguide", "length": TWO_PI,
                  "curvature": {"constant": 1.0, "cos": [0.5], "sin": []}},
        epsilons=[0.3, 0.2, 0.1],
        grid={"n_s": 48, "n_f": 17, "stencil_order": 2, "refine": 2},
    )
    cfg["solver"].update(solver)
    return cfg


def guide_mode1_config(**solver):
    # two curvature harmonics keep the first excited effective level simple
    cfg = small_guide_config(**solver)
    cfg["geometry"]["curvature"]["cos"] = [0.5, 0.25]
    cfg["study"]["mode_index"] = 1
    return cfg


def torus_mode1_config(fiber_length=TWO_PI, epsilons=(0.4, 0.3, 0.2)):
    # a 24 x 16 two-harmonic warped torus; the fibre-Fourier path
    cfg = flat_config(epsilons=list(epsilons),
                      grid={"n_s": 24, "n_f": 16, "stencil_order": 2, "refine": 2})
    cfg["geometry"]["fiber_length"] = fiber_length
    cfg["geometry"]["warp"] = {"constant": 0.0, "cos": [0.3, 0.15], "sin": [], "exp": True}
    cfg["solver"]["k"] = 8
    cfg["study"] = {"mode_index": 1, "checks": [], "out": None}
    return cfg


# A fibre twice as long quarters the fibre-mode energies: at eps 0.6 the
# levels run [0, 1, 1, 0, 0, 1, 1, 2] in fibre mode |m| on both grids, so
# mode 1 pairs with level 3.  At eps 0.4 they run [0, 0, 0, 1, 1, ...].
LONG_FIBRE_EPSILONS = (0.6, 0.4)
LONG_FIBRE_PAIRED = {0.6: 3, 0.4: 1}


def long_fibre_config():
    return torus_mode1_config(fiber_length=2.0 * TWO_PI, epsilons=LONG_FIBRE_EPSILONS)


def paired_warp_config():
    # log a = 1 + cos s is odd about a quarter period up to its constant, so
    # the fibre-constant levels come in exact pairs; the effective operator
    # splits the first excited pair by 1.1e-4, above SIMPLE_GAP
    cfg = torus_mode1_config(epsilons=(0.4, 0.3, 0.2))
    cfg["grid"] = {"n_s": 64, "n_f": 32, "stencil_order": 2, "refine": 2}
    cfg["geometry"]["warp"] = {"cos": [1.0], "exp": True}
    return cfg


def guide_j1_geometry_config():
    """``GUIDE_J1``'s geometry and eps on the 64 x 96 grid."""
    cfg = json.loads(json.dumps(GUIDE_J1_CONFIG))
    cfg["grid"] = {"n_s": 64, "n_f": 96, "stencil_order": 4, "refine": 2}
    return cfg


def negated_curvature(cfg):
    negated = json.loads(json.dumps(cfg))
    curvature = negated["geometry"]["curvature"]
    curvature["constant"] = -curvature["constant"]
    curvature["cos"] = [-a for a in curvature["cos"]]
    return negated


def segment_set_distance(x, y):
    """Largest distance from an endpoint of either ``(m, 2, 2)`` segment set to the other.

    The sets are compared as the point sets they cover: where a curve runs
    almost along a grid edge, the endpoint on that edge slides along the
    curve by far more than the curve moves.
    """
    def directed(points, segs):
        a, ab = segs[:, 0], segs[:, 1] - segs[:, 0]
        t = np.einsum("pij,ij->pi", points[:, None] - a, ab) / np.einsum("ij,ij->i", ab, ab)
        foot = a + np.clip(t, 0.0, 1.0)[..., None] * ab
        return np.linalg.norm(points[:, None] - foot, axis=2).min(axis=1).max()

    return max(directed(x.reshape(-1, 2), y), directed(y.reshape(-1, 2), x))


def spy_full_solves(monkeypatch):
    """Record ``[operator, start, pairs]`` of every full solve of a study.

    ``pairs`` stays ``None`` when the solve raised.
    """
    calls = []
    real = study_module.smallest_eigenpairs

    def spy(op, cfg, *, start):
        calls.append([op, start, None])
        pairs = real(op, cfg, start=start)
        calls[-1][2] = pairs
        return pairs

    monkeypatch.setattr(study_module, "smallest_eigenpairs", spy)
    return calls


def synthetic_record(eps, eig_gap, est_ratio=0.01, supnorm=1.0, hausdorff=None):
    rec = DiscrepancyRecord(
        eps=eps, mode_index=0, lambda_full=0.0, mu=0.0, eig_gap=eig_gap,
        supnorm=supnorm, hausdorff=hausdorff, domain_count=1, component_count=0,
        boundary_components=0, graph_over_fiber=None, zeros=[],
    )
    rec.disc_estimates = {"eig_gap": eig_gap * est_ratio, "supnorm": supnorm * est_ratio}
    return rec


class TestFitRate:
    def test_exact_quadratic(self):
        fit = fit_rate([(0.2, 0.04), (0.1, 0.01), (0.05, 0.0025)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear(self):
        fit = fit_rate([(0.2, 0.2), (0.1, 0.1), (0.05, 0.05)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors(self):
        fit = fit_rate([(0.2, 0.7), (0.1, 0.7), (0.05, 0.7)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_rate([(0.2, 0.1), (0.1, 0.05)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.2, 0.1), (0.1, 0.0), (0.05, 0.1)])


class TestLoadConfig:
    def test_valid_roundtrip(self):
        cfg = load_config(flat_config())
        assert cfg.grid.n_s == 32
        assert cfg.mode_index == 0

    def test_unknown_geometry(self):
        # refused once: no "bad geometry block" or "bad study configuration" prefix
        with pytest.raises(ConfigError, match="^unknown geometry type 'sphere'$"):
            load_config(flat_config(geometry={"type": "sphere"}))

    def test_increasing_epsilons_rejected(self):
        with pytest.raises(ConfigError):
            load_config(flat_config(epsilons=[0.1, 0.2, 0.3]))

    def test_rate_check_needs_three_epsilons(self):
        with pytest.raises(ConfigError):
            load_config(flat_config(epsilons=[0.2, 0.1]))

    @pytest.mark.parametrize("block, key, value, message", [
        (None, "epsilons", [], "need at least one epsilon"),
        ("grid", "refine", 1, "refinement factor must be at least 2"),
        ("study", "mode_index", -1, "mode_index must be nonnegative"),
    ])
    def test_well_formed_but_refused_field(self, block, key, value, message):
        cfg = flat_config()
        (cfg[block] if block else cfg)[key] = value
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(cfg)

    def test_unknown_check_rejected(self):
        bad = flat_config()
        bad["study"] = {"mode_index": 0, "checks": ["volume_rate"]}
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("make, mode, check, message", [
        (small_guide_config, 1, "isotopy",
         "check 'isotopy' judges a closed fibre, and this geometry has a fibre with walls"),
        (flat_config, 1, "boundary",
         "check 'boundary' judges a fibre with walls, and this geometry has a closed fibre"),
        (flat_config, 0, "hausdorff_rate",
         "check 'hausdorff_rate' judges a nodal set, and mode_index 0 has none"),
        (small_guide_config, 0, "hausdorff_rate",
         "check 'hausdorff_rate' judges a nodal set, and mode_index 0 has none"),
        (flat_config, 0, "isotopy",
         "check 'isotopy' judges a nodal set, and mode_index 0 has none"),
        (small_guide_config, 0, "boundary",
         "check 'boundary' judges a nodal set, and mode_index 0 has none"),
    ], ids=["isotopy-strip", "boundary-torus", "hausdorff-torus-mode0", "hausdorff-strip-mode0",
            "isotopy-torus-mode0", "boundary-strip-mode0"])
    def test_check_the_study_cannot_judge_refused(self, make, mode, check, message):
        cfg = make()
        cfg["study"] = {"mode_index": mode, "checks": ["eig_rate", check], "out": None}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(cfg)

    @pytest.mark.parametrize("raw", [
        *ACCEPTANCE_CONFIGS.values(),
        *(json.loads(path.read_text()) for path in sorted(DEMO_CONFIGS.glob("*.json"))),
    ], ids=[*ACCEPTANCE_CONFIGS, *(path.stem for path in sorted(DEMO_CONFIGS.glob("*.json")))])
    def test_acceptance_and_demo_configs_load(self, raw):
        cfg = load_config(raw)
        assert cfg.checks == raw["study"]["checks"]

    def test_tube_violation_rejected(self):
        bad = {
            "geometry": {"type": "waveguide", "length": TWO_PI,
                         "curvature": {"constant": 2.0, "cos": [], "sin": []}},
            "epsilons": [0.6],
            "grid": {"n_s": 16, "n_f": 16},
            "study": {"mode_index": 0, "checks": []},
        }
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("thresholds", [
        {"eig_rate": "1.5"},
        {"eig_rate": float("nan")},
        {"eig_rat": 5.0},
        {"eig_rate": 1.0},
    ])
    def test_bad_threshold_rejected(self, thresholds):
        # the pass bar of a rate check is RATE_CHECKS's: a config cannot set one
        cfg = flat_config()
        cfg["study"] = {"mode_index": 0, "checks": ["eig_rate"], "thresholds": thresholds}
        with pytest.raises(ConfigError, match="unknown key 'thresholds' in 'study'"):
            load_config(cfg)

    @pytest.mark.parametrize("solver", [
        {"max_iter": 0},
        {"max_iter": -1},
        {"shift": float("nan")},
        {"shift": float("inf")},
        {"shift": -float("inf")},
    ])
    def test_bad_solver_block_rejected(self, solver):
        with pytest.raises(ConfigError):
            load_config(small_guide_config(**solver))

    @pytest.mark.parametrize("solver, study, needed", [
        ({"k": 17}, {"mode_index": 0, "checks": []}, 17),
        ({"k": 6}, {"mode_index": 15, "checks": []}, 17),
    ])
    def test_pair_count_above_base_dimension_rejected(self, solver, study, needed):
        cfg = small_guide_config(**solver)
        cfg["grid"] = {"n_s": 16, "n_f": 16}
        cfg["study"] = study
        with pytest.raises(ConfigError, match=rf"needs {needed} eigenpairs .* n_s = 16"):
            load_config(cfg)
        cfg["solver"]["k"] = min(cfg["solver"]["k"], 16)
        cfg["study"]["mode_index"] = min(cfg["study"]["mode_index"], 14)
        assert load_config(cfg).grid.n_s == 16


    @pytest.mark.parametrize("block, key, value", [
        ("study", "mode_index", 1.5),
        ("grid", "n_s", 64.7),
        ("solver", "k", 8.6),
        ("grid", "refine", 2.9),
        ("solver", "seed", True),
        ("solver", "max_iter", "5000"),
        ("study", "checks", "courant"),  # would be read as the checks 'c', 'o', ...
        (None, "epsilons", "0.5"),
        (None, "epsilons", ["0.5", "0.4", "0.3"]),
        ("grid", "n_s", 8),  # below the 16 points a grid needs
        ("solver", "tol", True),  # would be read as 1.0, no residual certificate
        ("solver", "tol", float("inf")),  # would switch the certificate off
        ("solver", "tol", "1e-8"),
        ("solver", "shift", "1.97"),
        ("study", "thresholds", [["eig_rate", 1.0]]),
        ("study", "out", 5),  # would fail only when the report is written
        (None, "grid", [64, 64]),
        ("solver", "shift", True),  # read by nothing, but refused like any bool number
    ])
    def test_bad_field_rejected(self, block, key, value):
        cfg = flat_config()
        (cfg[block] if block else cfg)[key] = value
        with pytest.raises(ConfigError, match="bad study configuration"):
            load_config(cfg)

    @pytest.mark.parametrize("path, value", [
        (("warp", "exp"), "false"),  # would load the exponential warp
        (("warp", "exp"), 1),
        (("fiber_length",), True),  # would be read as 1.0
        (("L",), "3.14"),
        (("L",), float("inf")),
        (("L",), 10**400),  # a JSON integer too large for a float
        (("fiber_length",), float("inf")),
        (("warp", "constant"), "1.0"),
        (("warp", "constant"), float("nan")),
        (("warp", "cos"), ["0.3"]),
        (("warp", "sin"), "0"),
        (("warp",), "exp"),
    ])
    def test_bad_geometry_field_rejected(self, path, value):
        cfg = flat_config()
        block = cfg["geometry"]
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        with pytest.raises(ConfigError, match="bad geometry block"):
            load_config(cfg)

    @pytest.mark.parametrize("key, value", [
        ("length", str(TWO_PI)),
        ("curvature", {"constant": True}),
        ("curvature", {"cos": [0.5, "0.25"]}),
    ])
    def test_bad_waveguide_field_rejected(self, key, value):
        cfg = small_guide_config()
        cfg["geometry"][key] = value
        with pytest.raises(ConfigError, match="bad geometry block"):
            load_config(cfg)

    @pytest.mark.parametrize("make, path, key", [
        (flat_config, (), "epsilon"),
        (flat_config, ("geometry",), "fibre_length"),
        (flat_config, ("geometry", "warp"), "cosine"),
        (small_guide_config, ("geometry",), "L"),  # a torus key
        (small_guide_config, ("geometry", "curvature"), "exp"),  # a warp key
        (flat_config, ("grid",), "refne"),
        (flat_config, ("solver",), "tolerance"),
        (flat_config, ("study",), "mode"),
    ])
    def test_unknown_key_rejected(self, make, path, key):
        # a misspelt key would otherwise be ignored and its default used
        cfg = make()
        block = cfg
        for name in path:
            block = block[name]
        block[key] = 3
        where = path[-1] if path else "the configuration"
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in '{where}'"):
            load_config(cfg)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="bad study configuration"):
            load_config([flat_config()])

    def test_integer_numbers_and_bool_flag_accepted(self):
        cfg = flat_config()
        cfg["geometry"]["warp"].update(constant=1, cos=[0], exp=False)
        cfg["geometry"]["fiber_length"] = 6
        cfg["solver"]["shift"] = -1
        loaded = load_config(cfg)
        assert loaded.geometry.fiber_length == 6.0
        assert loaded.geometry.warp.constant == 1.0 and not loaded.geometry.warp_is_exp
        # the shift key still loads, and nothing keeps it
        assert loaded.solver == load_config(flat_config()).solver

    def test_integral_floats_accepted(self):
        cfg = flat_config()
        cfg["grid"]["n_s"] = 32.0
        cfg["study"]["mode_index"] = 1.0
        loaded = load_config(cfg)
        assert (loaded.grid.n_s, loaded.mode_index) == (32, 1)
        assert isinstance(loaded.grid.n_s, int) and isinstance(loaded.mode_index, int)


class TestGuardSemantics:
    def test_synthetic_quadratic_records_fit(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.2, 0.1, 0.05)]
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert res.passed
        assert res.slope == pytest.approx(2.0, abs=0.01)
        assert res.reason == "fitted slope 2.000 vs threshold 1.70 (theory 2)"

    @pytest.mark.parametrize("epsilons, gaps, short", [
        # GUIDE_J0's eig_gap with V_eff x 1.01: the signed gap crosses zero
        # between the last two eps; fitted 2.336, local 2.93, 5.08, -1.43
        ((0.3, 0.22, 0.15, 0.1), (1.522e-2, 6.137e-3, 8.759e-4, 1.566e-3),
         "local slope -1.433 from eps=0.15 to eps=0.1"),
        # monotone, fitted 1.900, local 2, 1, 3: one step falls too slowly
        ((0.4, 0.2, 0.1, 0.05), (0.16, 0.04, 0.02, 0.0025),
         "local slope 1.000 from eps=0.2 to eps=0.1"),
    ])
    def test_fitted_slope_passes_but_a_step_does_not(self, epsilons, gaps, short):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, g) for e, g in zip(epsilons, gaps)]
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert res.slope >= res.threshold == 1.7
        assert not res.passed
        assert res.reason.endswith("(theory 2); " + short)
        # the verdict does not depend on the order of the records
        assert _evaluate_rate_check("eig_rate", cfg, records[::-1]).reason == res.reason

    def test_all_points_below_floor_skip_passes(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, 1e-9, est_ratio=1.0) for e in (0.2, 0.1, 0.05)]
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert res.passed
        assert "floor" in res.reason
        assert res.fit is None

    def test_partial_floor_exclusion(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.4, 0.2, 0.1, 0.05)]
        records[3].disc_estimates["eig_gap"] = records[3].eig_gap  # floored point
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert res.passed
        assert len(res.fit.points_used) == 3
        assert len(res.fit.excluded) == 1

    def test_unmeasured_points_are_not_at_the_floor(self):
        # a quantity measured at no eps is not discretely exact
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.2, 0.1, 0.05)]
        res = _evaluate_rate_check("hausdorff_rate", cfg, records)
        assert not res.passed
        assert res.reason == "no usable points"
        assert res.fit is None and res.threshold == 0.9

    def test_zero_errors_are_at_the_floor(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, 0.0) for e in (0.2, 0.1, 0.05)]
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert res.passed
        assert res.reason.startswith("all points at the discretization floor")
        assert res.fit is None

    def test_unmeasured_and_zero_points_are_excluded_from_the_fit(self):
        cfg = load_config(flat_config())
        distances = {0.4: 0.4, 0.2: 0.2, 0.1: None, 0.05: 0.05, 0.025: 0.0}
        records = [synthetic_record(e, 1.0, hausdorff=d) for e, d in distances.items()]
        res = _evaluate_rate_check("hausdorff_rate", cfg, records)
        assert res.passed
        assert res.fit.points_used == [(0.4, 0.4), (0.2, 0.2), (0.05, 0.05)]
        (e0, v0, why0), (e1, v1, why1) = res.fit.excluded
        assert (e0, why0) == (0.1, "not measured") and np.isnan(v0)
        assert (e1, v1, why1) == (0.025, 0.0, "zero error")

    def test_two_points_above_floor_fails(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.2, 0.1)]
        records += [synthetic_record(0.05, 1e-9, est_ratio=1.0)]
        res = _evaluate_rate_check("eig_rate", cfg, records)
        assert not res.passed


class TestRunStudy:
    def test_torus_study_never_forms_its_2d_matrix(self, monkeypatch):
        # the torus K stays in its factors: no Kronecker product, and every
        # divergence-form product is a 1D one over n_s base nodes
        def refuse(*args, **kwargs):
            raise AssertionError("the 2D torus matrix was formed")

        real = operators_module._form_matrix
        columns = set()
        operators_module._torus_factors.cache_clear()  # build the factors here

        def form_matrix(diff, coeff):
            columns.add(diff.shape[1])
            return real(diff, coeff)

        monkeypatch.setattr(operators_module.FiberFactors, "matrix", refuse)
        monkeypatch.setattr(operators_module.sp, "kron", refuse)
        monkeypatch.setattr(operators_module, "_form_matrix", form_matrix)
        report = run_study(load_config(torus_mode1_config()))
        assert report.failures == [] and len(report.records) == 3
        assert columns == {24, 48}

    def test_flat_torus_study_is_exact_and_passes(self):
        cfg = flat_config()
        report = run_study(load_config(cfg))
        assert not report.failures
        assert all(rec.eig_gap <= 1e-8 for rec in report.records)
        check = report.checks["eig_rate"]
        assert check.passed
        assert "floor" in check.reason
        # every configured check appears exactly once with a verdict
        assert sorted(report.checks) == sorted(cfg["study"]["checks"])

    def test_report_byte_determinism(self, tmp_path):
        cfg = flat_config()
        rep_a = run_study(load_config(cfg))
        rep_b = run_study(load_config(cfg))
        emit_report(rep_a, tmp_path / "a")
        emit_report(rep_b, tmp_path / "b")
        for name in ("report.json", "records.csv", "eig_gap.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_degenerate_mode_fails_at_every_eps_in_order(self, monkeypatch):
        # mode 1 of the flat torus is the exactly paired cos/sin level
        cfg = flat_config(epsilons=[0.4, 0.2, 0.1],
                          grid={"n_s": 16, "n_f": 16, "stencil_order": 2, "refine": 2})
        cfg["study"]["mode_index"] = 1
        calls = spy_full_solves(monkeypatch)
        report = run_study(load_config(cfg))
        assert calls == []  # a level whose prediction failed is not solved
        assert report.records == []
        assert [f["epsilon"] for f in report.failures] == [0.4, 0.2, 0.1]
        assert {f["error"] for f in report.failures} == {"DegenerateEffectiveEigenvalue"}
        assert {(f["level"], f["stage"]) for f in report.failures} == {(0, "prediction")}
        h = TWO_PI / 16
        mu = (2.0 - 2.0 * np.cos(h)) / h**2
        for failure in report.failures:
            match = re.fullmatch(rf"effective eigenvalue {mu:.12g} has neighbour gap (\S+)",
                                 failure["message"])
            assert match and float(match.group(1)) <= 1e-8
        assert len({f["message"] for f in report.failures}) == 1

    def test_failed_prediction_is_recorded_not_raised_again(self, monkeypatch):
        # the one error of a failed prediction is recorded at every eps; a
        # re-raise would add a frame to its traceback each time
        errors = []

        def fail(*args):
            errors.append(PairingAmbiguous("no prediction"))
            raise errors[-1]

        monkeypatch.setattr(study_module, "build_prediction", fail)
        report = run_study(load_config(flat_config()))
        assert [f["epsilon"] for f in report.failures] == [0.5, 0.4, 0.3]
        assert {(f["level"], f["stage"], f["message"]) for f in report.failures} == {
            (0, "prediction", "no prediction")}
        # one prediction per grid level, each raised once
        assert [[frame.name for frame in traceback.extract_tb(exc.__traceback__)]
                for exc in errors] == [["_run_sweep", "fail"]] * 2

    def test_study_with_no_records_fails_every_check(self):
        # the degenerate flat-torus mode 1 fails at every eps; every check
        # that judges a torus at mode 1
        cfg = flat_config(epsilons=[0.4, 0.2, 0.1],
                          grid={"n_s": 16, "n_f": 16, "stencil_order": 2, "refine": 2})
        names = ["eig_rate", "supnorm_rate", "hausdorff_rate", "isotopy", "courant"]
        cfg["study"] = {"mode_index": 1, "checks": names, "out": None}
        report = run_study(load_config(cfg))
        assert report.records == [] and len(report.failures) == 3
        assert {name: (c.passed, c.reason, c.fit) for name, c in report.checks.items()} == {
            name: (False, "no records", None) for name in names}

    def test_degenerate_paired_full_level_fails_before_any_nodal_work(self, monkeypatch):
        # the full pair is equal to round-off, so the paired vector would be
        # whichever of its eigenspace the solver returned, and the records
        # would depend on solver.k; it is refused at level 0 of every eps
        extracted = []
        real = effective_module.extract_nodal_set
        monkeypatch.setattr(effective_module, "extract_nodal_set",
                            lambda fld: extracted.append(fld) or real(fld))
        raw = paired_warp_config()
        report = run_study(load_config(raw))
        assert extracted == [] and report.records == []
        assert [(f["epsilon"], f["level"], f["stage"], f["error"])
                for f in report.failures] == [
            (eps, 0, "discrepancy", "DegenerateEffectiveEigenvalue") for eps in raw["epsilons"]]
        for failure in report.failures:
            match = re.fullmatch(r"rescaled paired full level (\S+) has neighbour gap (\S+)",
                                 failure["message"])
            assert match and float(match.group(2)) <= 1e-12, failure["message"]

    def test_unseen_degenerate_partner_fails_before_any_nodal_work(self, monkeypatch):
        # with solver.k 4 the fibre-excited levels push the paired level's
        # partner out of the reported level's pairs: at eps 0.4 only one
        # fibre-ground level is solved, at eps 0.3 and 0.2 the paired level
        # is the top one, so its partner is unseen and it is refused
        extracted = []
        real = effective_module.extract_nodal_set
        monkeypatch.setattr(effective_module, "extract_nodal_set",
                            lambda fld: extracted.append(fld) or real(fld))
        raw = paired_warp_config()
        raw["solver"]["k"] = 4
        report = run_study(load_config(raw))
        assert extracted == [] and report.records == []
        assert [(f["epsilon"], f["level"], f["stage"], f["error"])
                for f in report.failures] == [
            (0.4, 0, "discrepancy", "PairingAmbiguous"),
            (0.3, 0, "discrepancy", "DegenerateEffectiveEigenvalue"),
            (0.2, 0, "discrepancy", "DegenerateEffectiveEigenvalue")]

    def test_failed_refined_prediction_fails_every_eps_before_any_solve(self, monkeypatch):
        # the predictions do not depend on eps: no level of any eps is solved
        raw = guide_mode1_config()
        real = study_module.build_prediction

        def failing(eff, mode_index, solve_cfg):
            if eff.dim == 2 * raw["grid"]["n_s"]:
                raise NonTransversalZero("injected")
            return real(eff, mode_index, solve_cfg)

        monkeypatch.setattr(study_module, "build_prediction", failing)
        calls = spy_full_solves(monkeypatch)
        report = run_study(load_config(raw))
        assert calls == []
        assert report.records == []
        assert [(f["epsilon"], f["level"], f["stage"], f["error"], f["message"])
                for f in report.failures] == [
            (eps, 1, "prediction", "NonTransversalZero", "injected") for eps in raw["epsilons"]]

    def test_metric_that_is_not_finite_is_an_assemble_failure(self):
        # 1e-320 passes the epsilon check, but 1/eps overflows
        report = run_study(load_config(flat_config(epsilons=[0.5, 0.4, 1e-320])))
        assert [rec.eps for rec in report.records] == [0.5, 0.4]
        assert [(f["epsilon"], f["level"], f["stage"], f["error"]) for f in report.failures] == [
            (1e-320, 0, "assemble", "ConfigError")]

    def test_extreme_warp_is_an_assemble_failure(self):
        # a = exp(-400) has finite coefficients but no finite g^tt = 1/a^2.
        # A constant warp leaves the effective problem flat, so only the
        # full metric can refuse it
        cfg = flat_config(epsilons=[0.5, 0.3, 0.1])
        cfg["geometry"]["warp"] = {"constant": -400.0, "exp": True}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(load_config(cfg))
        assert report.records == []
        assert [(f["epsilon"], f["level"], f["stage"], f["error"]) for f in report.failures] == [
            (eps, 0, "assemble", "ConfigError") for eps in (0.5, 0.3, 0.1)]

    @pytest.mark.parametrize("amplitude, stage, error", [
        (700, "assemble", "ConfigError"),  # g^tt = exp(-1400 cos s) overflows
        (300, "full_solve", "NoConvergence"),  # a spans 1e-130 to 1e130
    ])
    def test_extreme_warp_ground_state_fails_at_its_true_stage(self, amplitude, stage, error):
        # the mode-0 effective ground state of exp(A cos s) has no zeros; its
        # tail near s = pi is round-off, which must not read as a zero
        cfg = flat_config()
        cfg["geometry"]["warp"] = {"cos": [amplitude], "exp": True}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(load_config(cfg))
        assert report.records == []
        assert [(f["epsilon"], f["level"], f["stage"], f["error"]) for f in report.failures] == [
            (eps, 0, stage, error) for eps in cfg["epsilons"]]

    def test_timings_keep_every_eps(self):
        # 0.2000001 and 0.2 print alike with six significant digits
        epsilons = [0.4, 0.2000001, 0.2, 0.1]
        report = run_study(load_config(flat_config(epsilons=epsilons)))
        assert len(report.records) == len(epsilons)
        assert [key for key in report.timings if key.startswith("eps=")] == [
            "eps=0.4", "eps=0.2000001", "eps=0.2", "eps=0.1"]

    def test_failed_refined_level_drops_its_courant_counts(self, monkeypatch):
        # the counts come from level 0; an eps whose level 1 fails has no
        # record, and so no counts in the report or the verdict
        cfg = flat_config(epsilons=[0.2, 0.1, 0.05, 0.025],
                          grid={"n_s": 32, "n_f": 32, "stencil_order": 4, "refine": 2})
        cfg["geometry"]["warp"] = {"constant": 0.0, "cos": [0.3], "sin": [], "exp": True}
        cfg["study"]["checks"] = ["eig_rate", "supnorm_rate", "courant"]
        real = study_module.measure_discrepancy

        def failing(op, full, pred):
            if op.eps == 0.1 and op.grid.n_s == 64:
                raise PairingAmbiguous("injected")
            return real(op, full, pred)

        monkeypatch.setattr(study_module, "measure_discrepancy", failing)
        report = run_study(load_config(cfg))
        assert [rec.eps for rec in report.records] == [0.2, 0.05, 0.025]
        assert [(f["epsilon"], f["level"], f["stage"]) for f in report.failures] == [
            (0.1, 1, "discrepancy")]
        courant = report_to_dict(report)["courant"]
        assert sorted(courant) == sorted(f"{eps:.17g}" for eps in (0.2, 0.05, 0.025))
        assert all(len(counts) == 6 for counts in courant.values())
        assert report.checks["courant"].passed

    def test_one_effective_prediction_per_grid_level(self, monkeypatch):
        calls = []
        real = study_module.build_prediction

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(study_module, "build_prediction", spy)
        cfg = flat_config(epsilons=[0.5, 0.4, 0.3, 0.2])
        report = run_study(load_config(cfg))
        assert len(report.records) == 4
        assert len(calls) == 2


def shifted_warp(warp, h):
    """The exp-warp profile of ``warp`` moved by ``h`` along the base: ``p(s - h)``.

    ``cos(k (s - h))`` is written as ``cos(k h) cos(k s) + sin(k h) sin(k s)``.
    """
    cos, sin = [], []
    for k, amp in enumerate(warp["cos"], start=1):
        cos.append(amp * np.cos(k * h))
        sin.append(amp * np.sin(k * h))
    return {"constant": warp["constant"], "cos": cos, "sin": sin, "exp": warp["exp"]}


def assert_same_to_round_off(x, y, what):
    # 1e-9 relative, or 1e-10 absolute: eig_gap is a difference of O(1) values
    assert y == pytest.approx(x, rel=1e-9, abs=1e-10), what


def assert_same_records(base, other, disc_tol=None):
    """Every record scalar of ``other`` is ``base``'s to round-off, every count equal.

    ``disc_tol`` maps a discretization estimate to its own absolute tolerance.
    """
    assert base.failures == other.failures == []
    assert len(base.records) == len(other.records) > 0
    for a, b in zip(base.records, other.records):
        assert a.hausdorff is not None
        for name in ("eps", "lambda_full", "mu", "eig_gap", "supnorm", "hausdorff",
                     "tube_radius", "empirical_tube_constant"):
            if getattr(a, name) is None:
                assert getattr(b, name) is None, (a.eps, name)
            else:
                assert_same_to_round_off(getattr(a, name), getattr(b, name), (a.eps, name))
        assert a.disc_estimates.keys() == b.disc_estimates.keys()
        for name, value in a.disc_estimates.items():
            if disc_tol and name in disc_tol:
                assert b.disc_estimates[name] == pytest.approx(value, abs=disc_tol[name]), name
            else:
                assert_same_to_round_off(value, b.disc_estimates[name], (a.eps, name))
        for name in ("mode_index", "domain_count", "component_count",
                     "boundary_components", "graph_over_fiber", "courant_counts"):
            assert getattr(a, name) == getattr(b, name), (a.eps, name)
    for name, check in base.checks.items():
        assert (check.passed, check.reason) == (other.checks[name].passed,
                                                other.checks[name].reason), name


def torus_j1_64x32(epsilons=None):
    """``TORUS_J1``'s geometry and mode on a 64 x 32 base grid, no checks."""
    cfg = json.loads(json.dumps(TORUS_J1_CONFIG))
    cfg["grid"] = {"n_s": 64, "n_f": 32, "stencil_order": 4, "refine": 2}
    cfg["study"]["checks"] = []
    if epsilons is not None:
        cfg["epsilons"] = list(epsilons)
    return cfg


class TestScaleSeparation:
    """The torus operator is eps A + B / eps over W_0 / eps, its factors eps-free."""

    def test_rescaled_level_is_the_same_at_every_eps(self):
        # mode 1 is a fibre-constant level other than the zero level:
        # lambda = eps^2 mu with mu free of eps
        report = run_study(load_config(torus_j1_64x32()))
        assert len(report.records) == 4
        rescaled = np.array([rec.lambda_full / rec.eps ** 2 for rec in report.records])
        assert np.max(np.abs(rescaled / rescaled[0] - 1.0)) <= 1e-10

    def test_one_base_solve_per_level_tau_and_k(self, monkeypatch):
        # the base solves go through the dispatcher; the stiffness diagonal
        # K_s + tau c_f tells the problems apart
        eigensolve_module._base_pairs.cache_clear()
        real = eigensolve_module.smallest_eigenpairs
        solved = []

        def spy(sub, sub_cfg):
            solved.append((sub.dim, sub_cfg.k, sub.stiffness.diagonal().tobytes()))
            return real(sub, sub_cfg)

        monkeypatch.setattr(eigensolve_module, "smallest_eigenpairs", spy)
        report = run_study(load_config(torus_j1_64x32()))
        assert len(report.records) == 4
        # the fibre-constant problem of each level, and fibre mode 1 of the
        # base level at eps = 0.2; 9 base solves without the memo
        assert len(set(solved)) == len(solved) == 3
        assert sorted(dim for dim, _, _ in solved) == [64, 64, 128]

    def test_record_does_not_depend_on_what_ran_before(self):
        # the eps-0.1 record alone, after a study at another eps filled the
        # memo, and inside a longer list whose first eps fills it
        def record(epsilons):
            report = run_study(load_config(torus_j1_64x32(epsilons)))
            return dumps_canonical(report_to_dict(report)["records"][epsilons.index(0.1)])

        def forget():
            eigensolve_module._base_pairs.cache_clear()
            operators_module._torus_factors.cache_clear()

        forget()
        alone = record([0.1])
        forget()
        run_study(load_config(torus_j1_64x32([0.05])))
        assert record([0.1]) == alone
        forget()
        assert record([0.2, 0.1, 0.05]) == alone


class TestMetamorphicStudy:
    def test_base_shift_by_one_cell_moves_every_zero_by_that_cell(self):
        # the warp of TORUS_J1 moved by one base cell h: the discrete problem
        # is the same up to a roll of the grid, so every record scalar stays
        # and every predicted zero moves by h
        cfg = json.loads(json.dumps(TORUS_J1_CONFIG))
        cfg["grid"] = {"n_s": 64, "n_f": 32, "stencil_order": 4, "refine": 2}
        h = TWO_PI / cfg["grid"]["n_s"]
        shifted = json.loads(json.dumps(cfg))
        shifted["geometry"]["warp"] = shifted_warp(cfg["geometry"]["warp"], h)
        base, moved = run_study(load_config(cfg)), run_study(load_config(shifted))
        assert_same_records(base, moved)
        assert len(base.records) == len(cfg["epsilons"])
        for a, b in zip(base.records, moved.records):
            move = (np.array(b.zeros) - np.array(a.zeros) - h + np.pi) % TWO_PI - np.pi
            assert np.abs(move).max() < 1e-12, (a.eps, move)

    def test_base_reflection_reflects_every_zero(self):
        # the shifted warp of TORUS_J1 against its mirror image p(-s), its
        # sin amplitudes negated: s -> -s maps the grid, nodes and
        # midpoints, onto itself, so every record scalar stays and every
        # predicted zero z moves to 2 pi - z
        cfg = json.loads(json.dumps(TORUS_J1_CONFIG))
        cfg["grid"] = {"n_s": 64, "n_f": 32, "stencil_order": 4, "refine": 2}
        cfg["geometry"]["warp"] = shifted_warp(cfg["geometry"]["warp"], TWO_PI / 64)
        mirrored = json.loads(json.dumps(cfg))
        mirrored["geometry"]["warp"]["sin"] = [-a for a in cfg["geometry"]["warp"]["sin"]]
        base, other = run_study(load_config(cfg)), run_study(load_config(mirrored))
        assert_same_records(base, other)
        for a, b in zip(base.records, other.records):
            image = np.sort((TWO_PI - np.array(a.zeros)) % TWO_PI)
            assert np.abs(image - np.array(b.zeros)).max() < 1e-12, (a.eps, image, b.zeros)

    def test_curvature_negation_keeps_every_record(self):
        # kappa -> -kappa is the fibre reflection u -> -u of the strip: the
        # effective problem, -kappa^2/4, is the same to the bit, and so are
        # the zeros.  Measured: every record scalar within 3e-12 (1.5e-9
        # relative).  The refined level's sampled Hausdorff distance moved
        # by up to 2.3e-6, and its discretization estimate with it: four
        # segments are exactly 8 sampling spacings long and get 9 or 10
        # samples as round-off falls; 1e-5 bounds that estimate here
        cfg = guide_j1_geometry_config()
        base, other = run_study(load_config(cfg)), run_study(load_config(negated_curvature(cfg)))
        assert_same_records(base, other, disc_tol={"hausdorff": 1e-5})
        for a, b in zip(base.records, other.records):
            assert a.zeros == b.zeros and len(a.zeros) == 2, a.eps
            assert a.boundary_components == b.boundary_components >= 4, a.eps

    def test_curvature_negation_mirrors_the_nodal_set_in_u(self, monkeypatch):
        # u -> -u carries the level-0 nodal set of kappa onto that of -kappa.
        # Measured: 1.2e-11 as point sets; endpoint by endpoint 6.4e-8 at
        # eps 0.1, where the curve crosses a fibre edge almost along it
        cfg = guide_j1_geometry_config()
        sets = []
        real = effective_module.extract_nodal_set

        def spy(fld):
            nodal = real(fld)
            if fld.values.shape[0] == cfg["grid"]["n_s"]:
                sets.append(nodal)
            return nodal

        monkeypatch.setattr(effective_module, "extract_nodal_set", spy)
        for raw in (cfg, negated_curvature(cfg)):
            assert run_study(load_config(raw)).failures == []
        n = len(cfg["epsilons"])
        assert len(sets) == 2 * n
        for eps, a, b in zip(cfg["epsilons"], sets[:n], sets[n:]):
            assert a.component_count == b.component_count, eps
            assert len(a.segments) == len(b.segments) > 0, eps
            assert segment_set_distance(a.segments * [1.0, -1.0], b.segments) <= 1e-9, eps

    def test_fibre_twice_as_long_keeps_the_fibre_constant_level(self):
        # the paired level is constant along the fibre, so a fibre twice as
        # long leaves its eigenvalue, its zeros and its counts alone; the
        # unit-norm field spreads over twice the volume, so its sup falls
        # by sqrt 2.  Measured: lambda_full within 1.6e-15 relative, eig_gap
        # within 1.5e-12, supnorm sqrt 2 within 5e-13
        epsilons = (0.6, 0.4, 0.3)
        base = run_study(load_config(torus_mode1_config(TWO_PI, epsilons)))
        longer = run_study(load_config(torus_mode1_config(2.0 * TWO_PI, epsilons)))
        assert base.failures == longer.failures == []
        assert [rec.eps for rec in base.records] == [rec.eps for rec in longer.records] == list(epsilons)
        for a, b in zip(base.records, longer.records):
            assert (a.mu, a.zeros) == (b.mu, b.zeros) and len(a.zeros) == 2, a.eps
            for x, y in ((a.lambda_full, b.lambda_full), (a.eig_gap, b.eig_gap),
                         (a.supnorm, b.supnorm * np.sqrt(2.0))):
                assert y == pytest.approx(x, rel=1e-9), a.eps
            for name in ("component_count", "domain_count", "graph_over_fiber",
                         "boundary_components"):
                assert getattr(a, name) == getattr(b, name), (a.eps, name)


class TestCertifiedShift:
    """Every full solve runs at its operator's safe shift, the fibre-block bound."""

    def test_full_solves_run_at_the_safe_shift(self, monkeypatch):
        # a configured shift inside the spectrum would fail to factor: it
        # loads, and nothing reads it
        cfg = load_config(guide_mode1_config(shift=2.55))
        sigmas = []
        real_eigsh = sla.eigsh

        def eigsh_spy(*args, **kwargs):
            sigmas.append(kwargs["sigma"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", eigsh_spy)
        calls = spy_full_solves(monkeypatch)
        report = run_study(cfg)
        assert len(report.records) == 3 and report.failures == []
        assert "shift_fallbacks" not in report.timings
        assert len(calls) == 2 * len(cfg.epsilons)
        # the effective solves are dense: every shift-invert solve is a full one
        assert sigmas == [op.safe_shift for op, *_ in calls]
        for op, _, pairs in calls:
            assert op.dim > DENSE_CUTOFF and op.fiber_factors is None
            assert op.safe_shift < pairs.values[0] < op.safe_shift + op.eps**2
        # the base level starts cold, the refined one from the first k
        # vectors of the same eps's base level, injected
        refined = cfg.grid.refined(cfg.refine)
        for (base_op, base_start, base_pairs), (op, start, pairs) in zip(calls[::2],
                                                                        calls[1::2]):
            assert base_op.grid == cfg.grid and base_start is None
            assert op.grid == refined and op.eps == base_op.eps
            k = len(pairs.values)
            assert np.array_equal(start, prolongate(cfg.grid, base_pairs.vectors[:, :k], refined))

    def test_shift_that_fails_to_factor_is_a_full_solve_failure(self, tmp_path, monkeypatch,
                                                               capsys):
        # a safe shift above lambda_1: the solve fails once, with no retry
        real = study_module.assemble_full

        def above(geom, eps, grid):
            op = real(geom, eps, grid)
            return replace(op, safe_shift=op.safe_shift + 1.0)

        monkeypatch.setattr(study_module, "assemble_full", above)
        calls = spy_full_solves(monkeypatch)
        cfg = small_guide_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["study", "--config", str(path), "--out", str(out)]) == 0
        assert len(calls) == len(cfg["epsilons"])
        failures = json.loads((out / "report.json").read_text())["failures"]
        assert [(f["epsilon"], f["level"], f["stage"], f["error"]) for f in failures] == [
            (eps, 0, "full_solve", "FactorizationFailed") for eps in cfg["epsilons"]]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("ERROR")]
        assert [line.split(": ")[0] for line in printed] == [
            f"ERROR eps={eps} level=0 stage=full_solve" for eps in cfg["epsilons"]]
        assert "shift_fallbacks" not in json.loads((out / "timings.json").read_text())


class TestRefinedPairCount:
    """The refined grid solves up to the paired level and its upper neighbour."""

    def test_pair_count_of_each_level(self, monkeypatch):
        asked = []
        real = study_module.smallest_eigenpairs

        def spy(op, solve_cfg, *, start):
            asked.append((op.grid.n_s, solve_cfg.k, None if start is None else start.shape))
            return real(op, solve_cfg, start=start)

        monkeypatch.setattr(study_module, "smallest_eigenpairs", spy)
        cfg = load_config(guide_mode1_config())
        report = run_study(cfg)
        assert report.failures == [] and len(report.records) == 3
        fine_dim = assemble_full(cfg.geometry, cfg.epsilons[0], cfg.grid.refined(cfg.refine)).dim
        per_eps = [(48, max(cfg.solver.k, 3, 6), None), (96, 3, (fine_dim, 3))]
        assert asked == per_eps * len(cfg.epsilons)

    def test_torus_levels_take_no_start(self, monkeypatch):
        # the separable torus solve would ignore a start, so none is interpolated
        calls = spy_full_solves(monkeypatch)
        report = run_study(load_config(torus_mode1_config()))
        assert report.failures == [] and len(calls) == 2 * len(report.records) > 0
        assert [start for _, start, _ in calls] == [None] * len(calls)

    @pytest.mark.parametrize("raw, refined_k", [
        (guide_mode1_config(), {0.3: 3, 0.2: 3, 0.1: 3}),
        (torus_mode1_config(), {0.4: 3, 0.3: 3, 0.2: 3}),
        (long_fibre_config(), {e: i + 2 for e, i in LONG_FIBRE_PAIRED.items()}),
    ], ids=["waveguide", "torus", "torus_long_fibre"])
    def test_records_match_a_full_k_refined_solve(self, monkeypatch, raw, refined_k):
        refined = []
        real = study_module.measure_discrepancy

        def spy(op, full, pred):
            rec = real(op, full, pred)
            if op.grid.n_s == 2 * raw["grid"]["n_s"]:
                refined.append((op, full, pred, rec))
            return rec

        monkeypatch.setattr(study_module, "measure_discrepancy", spy)
        cfg = load_config(raw)
        report = run_study(cfg)
        assert report.failures == [] and len(report.records) == len(cfg.epsilons)
        assert {op.eps: len(full.values) for op, full, _, _ in refined} == refined_k
        for op, full, pred, rec in refined:
            wide = smallest_eigenpairs(op, cfg.solver)
            assert len(wide.values) == cfg.solver.k > len(full.values)
            ref = measure_discrepancy(op, wide, pred)
            assert abs(rec.lambda_full - ref.lambda_full) <= 1e-12 * abs(ref.lambda_full)
            for name in ("eig_gap", "supnorm", "hausdorff"):
                x, y = getattr(rec, name), getattr(ref, name)
                assert abs(x - y) <= 1e-8 * abs(y), name
            for name in ("domain_count", "component_count", "boundary_components",
                         "graph_over_fiber", "zeros"):
                assert getattr(rec, name) == getattr(ref, name), name

    def test_long_fibre_has_fibre_excited_levels_below_the_paired_level(self):
        # dense solve of the base-grid operator: a level is fibre-ground when
        # its eigenvector is constant along every fibre
        import scipy.linalg as dla

        cfg = load_config(long_fibre_config())
        for eps, paired in LONG_FIBRE_PAIRED.items():
            op = assemble_full(cfg.geometry, eps, cfg.grid)
            values, vectors = dla.eigh(op.stiffness.toarray(), np.diag(op.weight),
                                       subset_by_index=[0, cfg.solver.k - 1])
            fields = vectors.T.reshape(cfg.solver.k, cfg.grid.n_s, cfg.grid.n_f)
            ground = np.ptp(fields, axis=2).max(axis=1) <= 1e-8 * np.abs(fields).max(axis=(1, 2))
            assert int(np.flatnonzero(ground)[1]) == paired
            pairs = smallest_eigenpairs(op, cfg.solver)
            assert np.all(np.abs(pairs.values - values) <= 1e-10 * np.maximum(1.0, values))
            assert list(pairs.fiber_modes == 0) == list(ground)


class TestEmitReport:
    def test_empty_records_valid_json_and_header_only_csv(self, tmp_path):
        report = StudyReport(config_echo={"epsilons": []}, records=[],
                             checks={}, failures=[])
        files = emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["records"] == []
        csv_lines = (tmp_path / "records.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1
        assert csv_lines[0].count(",") == 11

    def test_one_record_csv_row(self, tmp_path):
        report = StudyReport(config_echo={}, records=[synthetic_record(0.1, 1e-3)],
                             checks={}, failures=[])
        emit_report(report, tmp_path)
        lines = (tmp_path / "records.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 12

    def test_csv_column_order(self):
        report = StudyReport(config_echo={}, records=[synthetic_record(0.1, 1e-3)],
                             checks={}, failures=[])
        header = records_csv(report).split("\n")[0]
        assert header == ("epsilon,mode,lambda_full,mu_eff,eig_gap,supnorm,hausdorff,"
                          "nodal_domains,nodal_components,boundary_components,"
                          "graph_check,disc_err_est")

    def test_fit_line_runs_through_the_fitted_points(self, tmp_path):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, 0.5 * e * e) for e in (0.2, 0.1, 0.05)]
        records.append(synthetic_record(0.025, 1e-9, est_ratio=1.0))  # at the floor
        check = _evaluate_rate_check("eig_rate", cfg, records)
        emit_report(StudyReport(config_echo={}, records=records, checks={"eig_rate": check},
                                failures=[]), tmp_path)
        svg = (tmp_path / "eig_gap.svg").read_text()
        assert svg.count('font-size="14">slope 2.000</text>') == 1
        x1, y1, x2, y2 = (float(v) for v in re.search(
            r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)" stroke="steelblue"', svg).groups())
        centres = [(float(x), float(y)) for x, y in
                   re.findall(r'<circle cx="(\S+)" cy="(\S+)" r="4" fill="firebrick"/>', svg)]
        assert len(centres) == 3 and svg.count('stroke="gray"') == 1
        # an exact fit: every fitted point lies on the drawn line, to the
        # six digits of the SVG coordinates
        for x, y in centres:
            assert x1 < x < x2
            assert y == pytest.approx(y1 + (y2 - y1) * (x - x1) / (x2 - x1), abs=1e-3)

    def test_unmeasured_exclusion_is_null_in_the_fits_block(self):
        cfg = load_config(flat_config())
        distances = {0.4: 0.4, 0.2: 0.2, 0.1: None, 0.05: 0.05}
        records = [synthetic_record(e, 1.0, hausdorff=d) for e, d in distances.items()]
        check = _evaluate_rate_check("hausdorff_rate", cfg, records)
        text = dumps_canonical(report_to_dict(StudyReport(
            config_echo={}, records=records, checks={"hausdorff_rate": check}, failures=[])))
        assert '"excluded":[[0.10000000000000001,null,"not measured"]]' in text

    def test_canonical_json_sorted_and_17_digits(self):
        text = dumps_canonical({"b": 0.1, "a": None, "c": [True, 2]})
        assert text == '{"a":null,"b":0.10000000000000001,"c":[true,2]}'

    def test_identical_reports_identical_bytes(self, tmp_path):
        rec = synthetic_record(0.1, 1e-3)
        rec.courant_counts = [1, 2]
        rep = StudyReport(config_echo={"x": 1}, records=[rec],
                          checks={"eig_rate": CheckResult("eig_rate", True, "ok")},
                          failures=[])
        emit_report(rep, tmp_path / "one")
        emit_report(rep, tmp_path / "two")
        assert (tmp_path / "one" / "report.json").read_bytes() == (
            tmp_path / "two" / "report.json"
        ).read_bytes()


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_solve_prints_eigenvalues(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config())
        code = cli_main(["solve", "--config", path, "--epsilon", "0.5", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3
        assert float(out[0]) == pytest.approx(0.0, abs=1e-10)

    def test_solve_dump_matrices(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config())
        kfile = tmp_path / "k.txt"
        code = cli_main(["solve", "--config", path, "--epsilon", "0.5", "--k", "1",
                         "--dump-stiffness", str(kfile)])
        assert code == 0
        first = kfile.read_text().split("\n")[0].split()
        assert len(first) == 3

    def test_solve_dump_weight(self, tmp_path, capsys):
        # one "i i w" line per node, w as the assembler holds it to 17 digits
        cfg = small_guide_config()
        path = self.write_config(tmp_path, cfg)
        wfile = tmp_path / "w.txt"
        assert cli_main(["solve", "--config", path, "--epsilon", "0.2", "--k", "1",
                         "--dump-weight", str(wfile)]) == 0
        loaded = load_config(cfg)
        weight = assemble_full(loaded.geometry, 0.2, loaded.grid).weight
        assert len(weight) == 48 * 16
        assert wfile.read_text() == "".join(f"{i} {i} {w:.17g}\n" for i, w in enumerate(weight))

    def test_tube_beyond_its_bound_is_a_one_line_error(self, capsys):
        # the config's own eps are embedded; --epsilon 0.9 is refused by
        # the metric, with the bound it breaks
        assert cli_main(["solve", "--config", str(DEMO_CONFIGS / "waveguide.json"),
                         "--epsilon", "0.9", "--k", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eps*max|kappa| = 1.35 >= 1; tube not embedded\n"

    def test_nodal_csv_output(self, capsys):
        # level 1 of the two-harmonic warp is 8.7e-3 from level 0 and 3.0e-3 from level 2
        code = cli_main(["nodal", "--config", str(DEMO_CONFIGS / "warped_torus.json"),
                         "--epsilon", "0.1", "--mode", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "s0,f0,s1,f1,component"
        assert len(out) > 32
        assert all(len(row.split(",")) == 5 for row in out[1:])

    @pytest.mark.parametrize("mode", ["1", "2"])
    def test_nodal_of_degenerate_level_refused(self, tmp_path, capsys, mode):
        # levels 1 and 2 of the flat torus are the exactly paired cos/sin level
        path = self.write_config(tmp_path, flat_config())
        assert cli_main(["nodal", "--config", path, "--epsilon", "0.5", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        match = re.fullmatch(rf"error: level {mode} eigenvalue \S+ has neighbour gap (\S+)\n",
                             captured.err)
        assert match and float(match.group(1)) <= 1e-8

    def test_study_command_writes_reports(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config())
        out_dir = tmp_path / "out"
        code = cli_main(["study", "--config", path, "--out", str(out_dir), "--assert"])
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "records.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "nodal", "study"])
    def test_unwritable_output_is_a_one_line_error(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, flat_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = {
            "solve": ["solve", "--config", path, "--epsilon", "0.5", "--k", "1",
                      "--dump-stiffness", str(tmp_path / "missing" / "k.txt")],
            "nodal": ["nodal", "--config", str(DEMO_CONFIGS / "warped_torus.json"),
                      "--epsilon", "0.1", "--mode", "1",
                      "--out", str(tmp_path / "missing" / "n.csv")],
            "study": ["study", "--config", path, "--out", str(blocker / "out")],
        }[command]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: cannot write \S+: [^\n]+\n", err), err

    def test_unwritable_study_output_fails_before_the_study(self, tmp_path, capsys,
                                                            monkeypatch):
        import fibrelab.cli as cli_module

        def no_study(cfg):
            raise AssertionError("run_study was called for an unwritable --out")

        monkeypatch.setattr(cli_module, "run_study", no_study)
        path = self.write_config(tmp_path, flat_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert cli_main(["study", "--config", path, "--out", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: cannot write \S+: [^\n]+\n", err), err

    def test_solver_that_does_not_converge_is_a_one_line_error(self, tmp_path, capsys):
        # one ARPACK restart leaves some of 16 waveguide pairs unconverged
        cfg = json.loads((DEMO_CONFIGS / "waveguide.json").read_text())
        cfg["solver"]["max_iter"] = 1
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["solve", "--config", path, "--epsilon", "0.1", "--k", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: ARPACK did not converge: ")
        assert captured.err.count("\n") == 1

    def test_missing_config_is_config_error(self, capsys):
        assert cli_main(["study", "--config", "/nonexistent.json"]) == 1

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config(epsilons=[0.1, 0.2]))
        assert cli_main(["study", "--config", path]) == 1

    @pytest.mark.parametrize("argv", [
        ["nodal", "--epsilon", "0.5", "--mode", "-1"],
        ["nodal", "--epsilon", "1.5", "--mode", "1"],
        ["solve", "--epsilon", "1.5", "--k", "3"],
        ["solve", "--epsilon", "0.0", "--k", "3"],
        ["solve", "--epsilon", "0.5", "--k", "0"],
        ["solve", "--epsilon", "0.5", "--k", "5000"],
        ["nodal", "--epsilon", "0.5", "--mode", "1023"],
    ])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, argv):
        path = self.write_config(tmp_path, flat_config())
        assert cli_main(argv + ["--config", path]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_assert_failing_check_exits_three(self, tmp_path, capsys):
        cfg = flat_config()
        cfg["geometry"] = {"type": "waveguide", "length": TWO_PI,
                           "curvature": {"constant": 0.0, "cos": [], "sin": []}}
        cfg["epsilons"] = [0.3, 0.2, 0.1]
        cfg["grid"] = {"n_s": 16, "n_f": 16, "stencil_order": 2, "refine": 2}
        # mode 1 of the straight strip is a degenerate cos/sin pair: its
        # prediction fails at every eps, so the check fails with no records
        cfg["study"] = {"mode_index": 1, "checks": ["boundary"], "out": None}
        path = self.write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli_main(["study", "--config", path, "--out", out, "--assert"]) == 3

    @pytest.mark.parametrize("make, mode, check", [
        (small_guide_config, 1, "isotopy"),
        (flat_config, 1, "boundary"),
        (flat_config, 0, "hausdorff_rate"),
        (flat_config, 0, "isotopy"),
        (small_guide_config, 0, "boundary"),
    ])
    def test_check_the_study_cannot_judge_is_one_config_error(self, tmp_path, capsys,
                                                             make, mode, check):
        cfg = make()
        cfg["study"] = {"mode_index": mode, "checks": [check], "out": None}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"config error: check {check!r} judges ")

    def test_unreachable_tolerance_is_solver_failure(self, tmp_path, capsys):
        cfg = flat_config()
        cfg["solver"] = {"k": 4, "tol": 1e-30, "max_iter": 5000, "seed": 0}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["solve", "--config", path, "--epsilon", "0.5", "--k", "4"]) == 2

    def test_configured_shift_is_read_by_nothing(self, tmp_path, capsys):
        # 2.55 lies between the third and fourth eigenvalues at eps 0.2, so
        # a solve at it would fail to factor; the key loads and the solve
        # runs at the operator's safe shift
        printed = []
        for cfg in (small_guide_config(shift=2.55), small_guide_config()):
            path = self.write_config(tmp_path, cfg)
            assert cli_main(["solve", "--config", path, "--epsilon", "0.2", "--k", "3"]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1] and len(printed[0].out.splitlines()) == 3

    @pytest.mark.parametrize("solver", [{"max_iter": 0}, {"shift": float("nan")}])
    def test_bad_solver_block_is_config_error(self, tmp_path, capsys, solver):
        path = self.write_config(tmp_path, small_guide_config(**solver))
        assert cli_main(["solve", "--config", path, "--epsilon", "0.2", "--k", "3"]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_study_pair_count_above_base_dimension_is_config_error(self, tmp_path, capsys):
        cfg = small_guide_config(k=17)
        cfg["grid"] = {"n_s": 16, "n_f": 16}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: the study needs 17 eigenpairs")

    @pytest.mark.parametrize("block, key, value", [
        ("study", "mode_index", 1.5),
        ("grid", "n_s", 8),
        ("solver", "tol", True),
    ])
    def test_bad_study_field_is_config_error(self, tmp_path, capsys, block, key, value):
        cfg = flat_config()
        cfg[block][key] = value
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: bad study configuration")

    def test_string_geometry_number_is_config_error(self, tmp_path, capsys):
        cfg = flat_config()
        cfg["geometry"]["L"] = "3.14"
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["solve", "--config", path, "--epsilon", "0.5", "--k", "1"]) == 1
        assert capsys.readouterr().err.startswith("config error: bad geometry block")

    @pytest.mark.parametrize("config, eps", [
        ("warped_torus.json", "1e-320"),
        ("waveguide.json", "1e-320"),
        ("warp800", "0.1"),
        ("warp700", "0.1"),
    ])
    def test_metric_that_is_not_finite_is_a_one_line_config_error(self, tmp_path, capsys,
                                                                  config, eps):
        # eps = 1e-320 is in (0, 1), and exp(800 cos s) is a valid warp, but
        # 1/eps and the warp overflow: the metric has no float coefficients.
        # exp(700 cos s) has them, but not their ratio g^tt = exp(-1400 cos s)
        if not config.endswith(".json"):
            cfg = flat_config()
            cfg["geometry"]["warp"] = {"cos": [int(config[4:])], "exp": True}
            path = self.write_config(tmp_path, cfg)
        else:
            path = str(DEMO_CONFIGS / config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["solve", "--config", path, "--epsilon", eps, "--k", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"config error: [^\n]* metric coefficients are not finite "
                            rf"at eps={eps}\n", captured.err), captured.err

    def test_extreme_warp_with_finite_metric_is_a_one_line_solver_failure(self, tmp_path,
                                                                          capsys):
        # exp(300 cos s) spans 1e-130 to 1e130: the metric and g^tt are
        # finite, and the residuals, not float overflow, refuse the solve
        cfg = flat_config()
        cfg["geometry"]["warp"] = {"cos": [300], "exp": True}
        path = self.write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["solve", "--config", path, "--epsilon", "0.1", "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"solver failure: [^\n]*\n", captured.err), captured.err

    def test_check_subcommand_passes(self, capsys):
        assert cli_main(["check"]) == 0

    def test_failing_check_line_exits_one(self, capsys, monkeypatch):
        # a shift margin of 10 % of the bound puts lambda_1 more than eps^2
        # above the shift: that line fails on its own, and the shift-invert
        # solve of the same waveguide still matches its dense values
        monkeypatch.setattr(operators_module, "BOUND_MARGIN", 0.1)
        assert cli_main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        failed = [line for line in lines if not line.startswith("PASS ")]
        assert failed == ["FAIL waveguide fibre-block shift AssertionError: "]
        assert "PASS waveguide shift-invert solve " in lines


def test_self_check_all_green():
    results = self_check()
    names = [name for name, _, _ in results]
    assert "waveguide shift-invert solve" in names
    assert "waveguide fibre-block shift" in names
    assert all(ok for _, ok, _ in results)
