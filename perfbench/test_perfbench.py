"""Tests of the benchmark itself: pinned workloads, tracer and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def acceptance():
    path = HERE.parent / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_configs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


@pytest.mark.parametrize("workload", NAMES)
def test_workload_is_the_acceptance_config(workload, acceptance):
    name, cfg, _ = workloads.WORKLOADS[workload]
    original = getattr(acceptance, name)
    for block, key in (("grid", None), ("epsilons", None), ("solver", "k"), ("solver", "tol"),
                       ("solver", "max_iter"), ("solver", "shift"), ("study", "mode_index")):
        got, want = cfg[block], original[block]
        if key is not None:
            got, want = got.get(key), want.get(key)
        assert got == want, f"{workload}: {block}.{key or ''} drifted"
    assert cfg == original


@pytest.mark.parametrize("workload", NAMES)
def test_traced_dof_max_is_the_pinned_dimension(workload, tracer):
    import fibrelab.study as study

    tracer.fine_dim = workloads.fine_dim(workload)
    tracer.install()
    cfg = study.load_config(workloads.study_config(workload, 0))
    for grid in (cfg.grid, cfg.grid.refined(cfg.refine)):
        study.assemble_full(cfg.geometry, cfg.epsilons[-1], grid)
    assert tracer.layer_metrics()["operators.dof_max"] == workloads.fine_dim(workload)


def test_seed_only_changes_the_start_vector():
    a, b = workloads.study_config("torus_nodal", 0), workloads.study_config("torus_nodal", 7)
    assert b["solver"].pop("seed") == 7
    a["solver"].pop("seed")
    assert a == b
    assert workloads.WORKLOADS["torus_nodal"][1]["solver"]["seed"] == 0


def test_self_time_excludes_traced_children(tracer):
    inner = tracer.wrap(lambda: time.sleep(0.02), lambda a: "inner")
    outer = tracer.wrap(lambda: (inner(), inner(), time.sleep(0.01)), lambda a: "outer")
    outer()
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert 0.04 <= totals["inner"][1] < 0.1
    assert 0.01 <= totals["outer"][1] < 0.04
    assert len(tracer.spans) == 3 and tracer.spans[1].parent == 0


def test_installs_and_restores_at_the_lookup_site(tracer):
    import fibrelab.effective as effective
    import fibrelab.geometry as geometry
    import fibrelab.study as study

    before = (study.smallest_eigenpairs, effective.smallest_eigenpairs,
              geometry.WarpedTorusGeometry.warp_value)
    tracer.install()
    assert study.smallest_eigenpairs is not before[0]
    assert effective.smallest_eigenpairs is not before[1]
    assert geometry.WarpedTorusGeometry.warp_value is not before[2]
    assert not tracer.notes
    tracer.uninstall()
    assert (study.smallest_eigenpairs, effective.smallest_eigenpairs,
            geometry.WarpedTorusGeometry.warp_value) == before


def test_missing_name_gives_null_metrics_and_a_note(tracer, monkeypatch):
    import fibrelab.effective as effective

    monkeypatch.delattr(effective, "hausdorff_distance")
    tracer.install()
    metrics = tracer.layer_metrics()
    assert metrics["nodal.hausdorff_s"] is None and metrics["nodal.hausdorff_calls"] is None
    assert metrics["nodal.extract_s"] == 0.0
    assert any("hausdorff_distance" in note for note in tracer.notes)


def _reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", NAMES)
def test_reference_passes_its_own_gate(workload):
    ref = _reference(workload)
    assert check.compare_reports(ref, ref) == (0, [])
    assert check.operations(ref["config"]) == len(ref["records"]) + len(ref["checks"])


def test_gate_counts_each_kind_of_mismatch():
    ref = _reference("guide_nodal")
    for mutate, fails in (
        (lambda r: r["records"][0].update(lambda_full=r["records"][0]["lambda_full"] * (1 + 1e-9)), 1),
        (lambda r: r["records"][1].update(lambda_full=r["records"][1]["lambda_full"] * (1 + 1e-12)), 0),
        (lambda r: r["records"][1].update(nodal_domains=r["records"][1]["nodal_domains"] + 1), 1),
        (lambda r: r["records"][2].update(hausdorff=r["records"][2]["hausdorff"] * 1.001), 1),
        (lambda r: r["records"][2]["disc_estimates"].update(supnorm=1.0), 1),
        (lambda r: r["checks"]["boundary"].update(passed=False), 1),
        (lambda r: r["courant"].popitem(), 1),
        (lambda r: r["records"].pop(), 1),
        (lambda r: r["records"][3].update(zeros=[[z, z] for z in r["records"][3]["zeros"]]), 1),
        (lambda r: r["records"][0].update(mu_eff=str(r["records"][0]["mu_eff"])), 1),
        (lambda r: r["checks"]["eig_rate"].pop("passed"), 1),
        (lambda r: r["checks"].update(courant="passed"), 1),
    ):
        run = copy.deepcopy(ref)
        mutate(run)
        failed, messages = check.compare_reports(run, ref)
        assert failed == fails and len(messages) >= fails
