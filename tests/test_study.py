import json
import re

import numpy as np
import pytest

import fibrelab.study as study_module
from fibrelab.cli import main as cli_main
from fibrelab.effective import DiscrepancyRecord
from fibrelab.errors import ConfigError, InsufficientPoints
from fibrelab.nodal import NodalReport
from fibrelab.report import dumps_canonical, emit_report, records_csv
from fibrelab.study import (
    _evaluate_rate_check,
    fit_rate,
    load_config,
    run_study,
    self_check,
    CheckResult,
    StudyReport,
)

TWO_PI = 2.0 * np.pi


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


def synthetic_record(eps, eig_gap, est_ratio=0.01, supnorm=1.0, hausdorff=None):
    nod = NodalReport(domain_count=1, component_count=0, hausdorff=hausdorff,
                      boundary_components=0, graph_over_fiber=None, zero_list=[])
    rec = DiscrepancyRecord(
        eps=eps, mode_index=0, lambda_full=0.0, mu=0.0, eig_gap=eig_gap,
        supnorm=supnorm, hausdorff=hausdorff, nodal=nod,
    )
    rec.disc_estimates = {"eig_gap": eig_gap * est_ratio, "supnorm": supnorm * est_ratio}
    rec.disc_error_estimate = rec.disc_estimates["eig_gap"]
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
        with pytest.raises(ConfigError):
            load_config(flat_config(geometry={"type": "sphere"}))

    def test_increasing_epsilons_rejected(self):
        with pytest.raises(ConfigError):
            load_config(flat_config(epsilons=[0.1, 0.2, 0.3]))

    def test_rate_check_needs_three_epsilons(self):
        with pytest.raises(ConfigError):
            load_config(flat_config(epsilons=[0.2, 0.1]))

    def test_unknown_check_rejected(self):
        bad = flat_config()
        bad["study"] = {"mode_index": 0, "checks": ["volume_rate"]}
        with pytest.raises(ConfigError):
            load_config(bad)

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
        {"eig_rate": "1.5"},  # a string
        {"eig_rate": float("nan")},  # would fail every fit
        {"eig_rat": 5.0},  # misspelled: would be ignored silently
    ])
    def test_bad_threshold_rejected(self, thresholds):
        cfg = flat_config()
        cfg["study"] = {"mode_index": 0, "checks": ["eig_rate"], "thresholds": thresholds}
        with pytest.raises(ConfigError):
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


class TestGuardSemantics:
    def test_synthetic_quadratic_records_fit(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.2, 0.1, 0.05)]
        fits = {}
        res = _evaluate_rate_check("eig_rate", cfg, records, fits)
        assert res.passed
        assert res.slope == pytest.approx(2.0, abs=0.01)

    def test_all_points_below_floor_skip_passes(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, 1e-9, est_ratio=1.0) for e in (0.2, 0.1, 0.05)]
        fits = {}
        res = _evaluate_rate_check("eig_rate", cfg, records, fits)
        assert res.passed
        assert "floor" in res.reason
        assert fits["eig_gap"] is None

    def test_partial_floor_exclusion(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.4, 0.2, 0.1, 0.05)]
        records[3].disc_estimates["eig_gap"] = records[3].eig_gap  # floored point
        fits = {}
        res = _evaluate_rate_check("eig_rate", cfg, records, fits)
        assert res.passed
        assert len(fits["eig_gap"].points_used) == 3
        assert len(fits["eig_gap"].excluded) == 1

    def test_two_points_above_floor_fails(self):
        cfg = load_config(flat_config())
        records = [synthetic_record(e, e * e) for e in (0.2, 0.1)]
        records += [synthetic_record(0.05, 1e-9, est_ratio=1.0)]
        res = _evaluate_rate_check("eig_rate", cfg, records, {})
        assert not res.passed


class TestRunStudy:
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

    def test_degenerate_mode_fails_at_every_eps_in_order(self):
        # mode 1 of the flat torus is the exactly paired cos/sin level
        cfg = flat_config(epsilons=[0.4, 0.2, 0.1],
                          grid={"n_s": 16, "n_f": 16, "stencil_order": 2, "refine": 2})
        cfg["study"]["mode_index"] = 1
        report = run_study(load_config(cfg))
        assert report.records == []
        assert [f["epsilon"] for f in report.failures] == [0.4, 0.2, 0.1]
        assert {f["error"] for f in report.failures} == {"DegenerateEffectiveEigenvalue"}
        h = TWO_PI / 16
        mu = (2.0 - 2.0 * np.cos(h)) / h**2
        for failure in report.failures:
            match = re.fullmatch(rf"effective eigenvalue {mu:.12g} has neighbour gap (\S+)",
                                 failure["message"])
            assert match and float(match.group(1)) <= 1e-8
        assert len({f["message"] for f in report.failures}) == 1

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


class TestEmitReport:
    def test_empty_records_valid_json_and_header_only_csv(self, tmp_path):
        report = StudyReport(config_echo={"epsilons": []}, records=[], fits={},
                             checks={}, failures=[], courant_counts={})
        files = emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["records"] == []
        csv_lines = (tmp_path / "records.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1
        assert csv_lines[0].count(",") == 11

    def test_one_record_csv_row(self, tmp_path):
        report = StudyReport(config_echo={}, records=[synthetic_record(0.1, 1e-3)],
                             fits={}, checks={}, failures=[], courant_counts={})
        emit_report(report, tmp_path)
        lines = (tmp_path / "records.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 12

    def test_csv_column_order(self):
        report = StudyReport(config_echo={}, records=[synthetic_record(0.1, 1e-3)],
                             fits={}, checks={}, failures=[], courant_counts={})
        header = records_csv(report).split("\n")[0]
        assert header == ("epsilon,mode,lambda_full,mu_eff,eig_gap,supnorm,hausdorff,"
                          "nodal_domains,nodal_components,boundary_components,"
                          "graph_check,disc_err_est")

    def test_canonical_json_sorted_and_17_digits(self):
        text = dumps_canonical({"b": 0.1, "a": None, "c": [True, 2]})
        assert text == '{"a":null,"b":0.10000000000000001,"c":[true,2]}'

    def test_identical_reports_identical_bytes(self, tmp_path):
        rec = synthetic_record(0.1, 1e-3)
        rep = StudyReport(config_echo={"x": 1}, records=[rec], fits={},
                          checks={"eig_rate": CheckResult("eig_rate", True, "ok")},
                          failures=[], courant_counts={0.1: [1, 2]})
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

    def test_nodal_csv_output(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config())
        code = cli_main(["nodal", "--config", path, "--epsilon", "0.5", "--mode", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "s0,f0,s1,f1,component"
        assert len(out) > 32

    def test_study_command_writes_reports(self, tmp_path, capsys):
        path = self.write_config(tmp_path, flat_config())
        out_dir = tmp_path / "out"
        code = cli_main(["study", "--config", path, "--out", str(out_dir), "--assert"])
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "records.csv").exists()

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
        cfg["epsilons"] = [0.3]
        cfg["grid"] = {"n_s": 16, "n_f": 16, "stencil_order": 2, "refine": 2}
        # isotopy is a closed-geometry check; on a waveguide it cannot pass
        cfg["study"] = {"mode_index": 0, "checks": ["isotopy"], "out": None}
        path = self.write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli_main(["study", "--config", path, "--out", out, "--assert"]) == 3

    def test_unreachable_tolerance_is_solver_failure(self, tmp_path, capsys):
        cfg = flat_config()
        cfg["solver"] = {"k": 4, "tol": 1e-30, "max_iter": 5000, "seed": 0}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["solve", "--config", path, "--epsilon", "0.5", "--k", "4"]) == 2

    def test_shift_inside_spectrum_is_solver_failure(self, tmp_path, capsys):
        # 2.55 lies between the third and fourth eigenvalues at eps 0.2
        path = self.write_config(tmp_path, small_guide_config(shift=2.55))
        assert cli_main(["solve", "--config", path, "--epsilon", "0.2", "--k", "3"]) == 2
        assert capsys.readouterr().err.startswith("solver failure: ")

    @pytest.mark.parametrize("solver", [{"max_iter": 0}, {"shift": float("nan")}])
    def test_bad_solver_block_is_config_error(self, tmp_path, capsys, solver):
        path = self.write_config(tmp_path, small_guide_config(**solver))
        assert cli_main(["solve", "--config", path, "--epsilon", "0.2", "--k", "3"]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_check_subcommand_passes(self, capsys):
        assert cli_main(["check"]) == 0


def test_self_check_all_green():
    results = self_check()
    assert "waveguide shift-invert solve" in [name for name, _, _ in results]
    assert all(ok for _, ok, _ in results)
