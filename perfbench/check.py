"""Correctness gate: compare a study's report.json with the stored reference.

An operation is one eps point of the sweep or one configured check.  An
eps point fails when it is missing from the records (the study recorded a
failure) or when any of its outputs disagrees with the reference:

* counts and flags (nodal/domain/boundary counts, ``graph_check``,
  ``mode`` and the Courant domain counts) must match exactly;
* ``lambda_full`` and ``mu_eff`` must match to ``SOLVER_RTOL`` relative,
  the repository's solver gate, plus ``SOLVER_ATOL`` absolute for the
  zero eigenvalue of the closed torus, which is pure round-off (below
  4e-15 in magnitude across seeds) and has no relative accuracy;
* the continuous error quantities (``eig_gap``, ``supnorm``,
  ``hausdorff``, the discretization estimates, ``tube_radius``,
  ``empirical_tube_constant`` and the predicted zeros) must match to
  ``CONT_RTOL`` relative plus ``CONT_ATOL`` absolute.

A check fails when it did not pass or its fitted slope disagrees with
the reference by the continuous tolerance.

Why these tolerances: the seed changes only the ARPACK start vector and
ARPACK runs to machine precision, so eigenvalues move by about 1e-15
absolute (seeds 0-2: at most 1.3e-14 on the waveguide's lambda ~ 2.5,
1.2e-15 on the torus).  The zero eigenvalue itself reads up to 3.2e-15;
``SOLVER_ATOL = 5e-14`` covers twice that with margin and adds at most
1e-10 relative on the smallest nonzero lambda_full (5.5e-4).  The error
quantities divide eigenvalues by eps^2 (down to 6.25e-4) and difference
two grid levels, which raises the round-off to about 1e-11 absolute; the
largest absolute change across seeds 0-2 was 6.3e-12 (torus_nodal
``disc_err_est``).  ``CONT_ATOL = 1e-10`` is 16 times that.  It is loose
only on the torus mode-0 gaps (6.6e-10), which are round-off at the
discretization floor.  The relative term dominates only above 1e-4
(Hausdorff distances, sup norms, fitted slopes), where the change across
seeds stayed below 1.5e-10 relative; ``CONT_RTOL = 1e-6`` still catches
any change of algorithm or grid, which moves these quantities by their
discretization estimates (3e-5 and up on the waveguide).

Store a new reference only from unchanged code:

    python3 perfbench/check.py <report.json> perfbench/reference/<workload>.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SOLVER_RTOL = 1e-10
SOLVER_ATOL = 5e-14
CONT_RTOL = 1e-6
CONT_ATOL = 1e-10

EXACT = ("mode", "nodal_domains", "nodal_components", "boundary_components", "graph_check")
SOLVER = ("lambda_full", "mu_eff")
CONTINUOUS = ("eig_gap", "supnorm", "hausdorff", "disc_err_est", "disc_estimates",
              "tube_radius", "empirical_tube_constant", "zeros")
KEPT = ("config", "records", "checks", "courant", "failures")


def operations(raw_config: dict) -> int:
    """Operations one study attempts: its eps points plus its checks."""
    return len(raw_config["epsilons"]) + len(raw_config["study"]["checks"])


def _close(got, want, rtol: float, atol: float) -> bool:
    """Recursive tolerance comparison of numbers, lists and dicts."""
    if want is None or got is None:
        return got is None and want is None
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], rtol, atol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol, atol) for g, w in zip(got, want)))
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol


def _record_mismatches(got: dict, want: dict) -> list[str]:
    bad = [f"{k}: {got.get(k)!r} != {want[k]!r}" for k in EXACT if got.get(k) != want[k]]
    bad += [f"{k}: {got.get(k)!r} vs {want[k]!r} (rtol {SOLVER_RTOL:g}, atol {SOLVER_ATOL:g})"
            for k in SOLVER if not _close(got.get(k), want[k], SOLVER_RTOL, SOLVER_ATOL)]
    bad += [f"{k}: {got.get(k)!r} vs {want[k]!r} (rtol {CONT_RTOL:g}, atol {CONT_ATOL:g})"
            for k in CONTINUOUS if not _close(got.get(k), want[k], CONT_RTOL, CONT_ATOL)]
    return bad


def compare_reports(report: dict, reference: dict) -> tuple[int, list[str]]:
    """Failed operations and one message per mismatch."""
    failed, messages = 0, []
    for failure in report.get("failures", []):
        messages.append(f"study failure {failure}")
    records = {rec.get("epsilon"): rec for rec in report.get("records", []) if isinstance(rec, dict)}
    for want in reference["records"]:
        eps = want["epsilon"]
        got = records.get(eps)
        if got is None:
            bad = ["no record"]
        else:
            bad = _record_mismatches(got, want)
            key = f"{eps:.17g}"
            if report.get("courant", {}).get(key) != reference["courant"].get(key):
                bad.append(f"courant counts {report.get('courant', {}).get(key)} "
                           f"!= {reference['courant'].get(key)}")
        if bad:
            failed += 1
            messages += [f"eps={eps:g} {m}" for m in bad]
    for name, want in reference["checks"].items():
        got = report.get("checks", {}).get(name)
        if not isinstance(got, dict) or got.get("passed") is not True:
            failed += 1
            reason = got.get("reason") if isinstance(got, dict) else got
            messages.append(f"check {name} did not pass: {reason!r}")
        elif not _close(got.get("slope"), want["slope"], CONT_RTOL, CONT_ATOL):
            failed += 1
            messages.append(f"check {name} slope {got.get('slope')!r} vs {want['slope']!r}")
    return failed, messages


def compare(report_path: Path, reference_path: Path) -> tuple[int, list[str]]:
    reference = json.loads(Path(reference_path).read_text())
    try:
        report = json.loads(Path(report_path).read_text())
    except (OSError, ValueError) as exc:
        return operations(reference["config"]), [f"cannot read {report_path}: {exc}"]
    return compare_reports(report, reference)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: check.py <report.json> <reference.json>")
    src = json.loads(Path(sys.argv[1]).read_text())
    if src["failures"] or not all(c["passed"] for c in src["checks"].values()):
        sys.exit("refusing to store a reference from a failing study")
    reference = {key: src[key] for key in KEPT}
    Path(sys.argv[2]).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
