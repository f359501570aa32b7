"""Benchmark of fibrelab's acceptance studies.

    python3 perfbench/run.py --workload torus_ground --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each study runs in a fresh
worker process (``worker.py``); studies repeat while another one still
fits in ``--seconds``, at least once.  With ``--trace 0`` the end-to-end
metrics are the medians over those studies, and ``setup_s`` the median
over them and set-up-only processes.  With ``--trace 1`` the workers
trace each layer from outside the package and the per-layer metrics are
reported instead.  Every study's report is checked against
``perfbench/reference``.  The summary is printed by name with units; the
last line of output is the JSON result.  Per-run records, spans and
reports go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "study_s": "s",
    "study_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def _worker(args, out: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def measure(args) -> dict:
    out = ROOT / ".perfbench" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    setups = []
    if not args.trace:
        setups = [_worker(args, out, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    studies = []
    t0 = time.perf_counter()
    while True:
        t_study = time.perf_counter()
        studies.append(_worker(args, out, False))
        last = time.perf_counter() - t_study
        if time.perf_counter() - t0 + last > args.seconds:
            break
    setups += [s["setup_s"] for s in studies]

    if args.trace:
        metrics = {name: (_median([s["layers"][name] for s in studies]), unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: (_median([s[name] for s in studies]), unit)
                   for name, unit in END_TO_END.items() if name != "setup_s"}
        metrics["setup_s"] = (statistics.median(setups), "s")
    attempted = sum(s["attempted"] for s in studies)
    failed = sum(s["failed"] for s in studies)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "studies": len(studies),
        "setup_samples": setups,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [m for s in studies for m in s["failures"]],
        "trace_notes": sorted({n for s in studies for n in s.get("trace_notes", [])}),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "per_study": [{k: v for k, v in s.items() if k != "environment"} for s in studies],
        "environment": studies[0]["environment"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark fibrelab's acceptance studies.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="ARPACK start-vector seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="studies repeat while another one fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fibrelab" / "__init__.py").is_file():
        print(f"no fibrelab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    record = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    for message in result["failures"]:
        print(f"MISMATCH {args.workload}: {message}")
    for note in result["trace_notes"]:
        print(f"NOTE {note}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(f"{args.workload} fail_frac {result['fail_frac']} ratio "
          f"({result['failed']}/{result['attempted']} operations) "
          f"over {result['studies']} studies")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
