#!/usr/bin/env python3
"""Full guarded convergence study on the bent waveguide, with report files.

Runs the epsilon sweep for the ground mode of the single-harmonic bend,
prints the guarded check verdicts, and writes report.json, records.csv,
and the log-log SVG plots to ./study_out.  The same configuration is
available to the command line as demos/configs/waveguide.json.
"""

import numpy as np

from fibrelab import emit_report, load_config, run_study

TWO_PI = 2.0 * np.pi

config = {
    "geometry": {
        "type": "waveguide",
        "length": TWO_PI,
        "curvature": {"constant": 1.0, "cos": [0.5], "sin": []},
    },
    "epsilons": [0.3, 0.22, 0.15, 0.1],
    "grid": {"n_s": 128, "n_f": 192, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0},
    "study": {
        "mode_index": 0,
        "checks": ["eig_rate", "supnorm_rate", "courant"],
        "out": "study_out",
    },
}

report = run_study(load_config(config))

print("records (epsilon, eigenvalue gap, sup-norm error, discretization estimate):")
for rec in report.records:
    print(f"  eps={rec.eps:<5} gap={rec.eig_gap:.4e} sup={rec.supnorm:.4e} "
          f"est={rec.disc_estimates['eig_gap']:.2e}")

print("\ncheck verdicts:")
for name, check in sorted(report.checks.items()):
    print(f"  {'PASS' if check.passed else 'FAIL'} {name}: {check.reason}")

files = emit_report(report, "study_out")
print(f"\nwrote {len(files)} files to ./study_out:")
for f in files:
    print(f"  {f.name}")
