"""Repeat the benchmark over seeds and summarise every metric of every workload.

    python3 perfbench/collect.py --trace-runs 2 --first-seed 100 \
        --out perfbench/results/baseline.json

Runs ``run.py`` once per seed and workload over ``RUNS`` seeds,
interleaving the workloads so that slow phases of a shared machine touch
all of them, then the traced runs.  For each metric it prints the median, the quartiles and the
spread (quartile distance over the median, as the acceptance rule takes
it) next to the bound from ``BENCHMARK.json``, plus ``fail_frac``.  The
output file keeps every run's values and the environment of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # untraced runs per workload, as the acceptance rule takes them


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(record.read_text())
    result["run_wall_s"] = wall
    return result


def summarise(values: list) -> dict:
    if any(v is None for v in values):
        return {"values": values, "median": None}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-runs", type=int, default=1, help="traced runs per workload")
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    runs = {w: {0: [], 1: []} for w in names}
    schedule = [(i, 0) for i in range(RUNS)] + [(i, 1) for i in range(args.trace_runs)]
    for i, trace in schedule:
        for workload in names:
            res = run_once(workload, args.first_seed + i, bench["run_seconds"], trace)
            runs[workload][trace].append(res)
            print(f"{workload} seed {args.first_seed + i} trace {trace}: "
                  f"{res['run_wall_s']:.1f} s, failed {res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload, by_trace in runs.items():
        entry = {}
        for trace, results in by_trace.items():
            if not results:
                continue
            names_ = results[0]["metrics"]
            entry["traced" if trace else "untraced"] = {
                "seeds": [r["seed"] for r in results],
                "run_wall_s": summarise([r["run_wall_s"] for r in results]),
                "fail_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
                "failures": [m for r in results for m in r["failures"]],
                "trace_notes": sorted({n for r in results for n in r["trace_notes"]}),
                "metrics": {
                    name: dict(unit=results[0]["metrics"][name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in results]))
                    for name in names_
                },
                "environment": results[0]["environment"],
            }
        if "untraced" in entry and "traced" in entry:
            entry["trace_overhead_vs_untraced_s"] = (
                entry["traced"]["metrics"]["trace.study_s"]["median"]
                - entry["untraced"]["metrics"]["study_s"]["median"])
        summary[workload] = entry

    for workload, entry in summary.items():
        for kind, block in ((k, entry[k]) for k in ("untraced", "traced") if k in entry):
            print(f"{workload} [{kind}, {len(block['seeds'])} runs] "
                  f"fail_frac {block['fail_frac']:.3g} ratio")
            for name, m in block["metrics"].items():
                if m["median"] is None:
                    print(f"  {name:28s} null {m['unit']}")
                    continue
                bound = bounds.get(name) if kind == "untraced" else None
                spread = "" if m["spread"] is None else f" spread {m['spread']:.4f}"
                verdict = "" if bound is None or m["spread"] is None else (
                    f" bound {bound} (spread/bound {m['spread'] / bound:.2f})")
                print(f"  {name:28s} {m['median']:.6g} {m['unit']} "
                      f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]{spread}{verdict}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"date": time.strftime("%Y-%m-%d"), "run_seconds": bench["run_seconds"],
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
