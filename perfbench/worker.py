"""One benchmark process: set up a workload, run it once, report as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` so that every study
runs in a fresh interpreter; peak RSS and set-up time are then per study.
The last line of standard output is the JSON result.

    python3 perfbench/worker.py --workload torus_nodal --seed 0 \
        --trace 0 --spawned-at <time.time() of the parent> --out .perfbench/torus_nodal
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _entry_points():
    """load_config, run_study and emit_report, wherever the package keeps them."""
    found = {}
    for name in ("load_config", "run_study", "emit_report"):
        for module_name in ("fibrelab.study", "fibrelab.report", "fibrelab"):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if hasattr(module, name):
                found[name] = getattr(module, name)
                break
        else:
            raise ImportError(f"fibrelab has no {name}")
    return found["load_config"], found["run_study"], found["emit_report"]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    """Versions and thread settings that the timings depend on."""
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True, help="directory for the study's report")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the config is loaded and report the set-up time")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import check
    import workloads

    load_config, run_study, emit_report = _entry_points()
    raw = workloads.study_config(args.workload, args.seed)
    cfg = load_config(raw)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(fine_dim=workloads.fine_dim(args.workload))
        tracer.install()
        run_study = tracer.wrap(run_study, lambda a: tracing.ROOT)
        emit_report = tracer.wrap(emit_report, lambda a: tracing.EMIT)

    out = Path(args.out)
    shutil.rmtree(out / "report", ignore_errors=True)  # never check a stale report
    report = None
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        report = run_study(cfg)
        emit_report(report, out / "report")
    except Exception as exc:  # noqa: BLE001 - a crashed study is a failed run, not a crash
        error = f"{type(exc).__name__}: {exc}"
    study_s = time.perf_counter() - t0
    study_cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = check.operations(raw)
    if error is not None:
        failed, failures = attempted, [f"study raised {error}"]
    else:
        try:
            failed, failures = check.compare(
                out / "report" / "report.json", HERE / "reference" / f"{args.workload}.json")
        except Exception as exc:  # noqa: BLE001 - a report of the wrong shape fails every operation
            failed, failures = attempted, [f"cannot check the report: {type(exc).__name__}: {exc}"]

    result.update({
        "study_s": study_s,
        "study_cpu_s": study_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "eps_points": 0 if report is None else len(report.records) + len(report.failures),
        "environment": environment(),
    })
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        # the problem size is pinned: one more operation, checked only when traced
        dof = layers.get("operators.dof_max")
        result["attempted"] += 1
        if dof != workloads.fine_dim(args.workload):
            failures.append(f"operators.dof_max {dof} != pinned {workloads.fine_dim(args.workload)}")
            result["failed"] += 1
        layers["study.eps_points"] = result["eps_points"]
        layers["trace.study_s"] = study_s
        layers["trace.overhead_s"] = tracing.wrapper_cost() * len(tracer.spans)
        result["layers"] = layers
        result["trace_notes"] = tracer.notes
        (out / "spans.json").write_text(json.dumps(tracer.span_records()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
