"""Command-line interface: study sweeps, one-off solves, nodal dumps, self test.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 asserted check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .effective import require_simple
from .eigensolve import smallest_eigenpairs
from .errors import ConfigError, FactorizationFailed, FibrelabError, NoConvergence
from .nodal import extract_nodal_set, field_from_operator
from .operators import assemble_full
from .report import emit_report, nodal_set_to_csv, write_coordinate_triplets
from .study import load_config, run_study, self_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ASSERT = 3


def _read_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(raw)


def _cmd_study(args) -> int:
    cfg = _read_config(args.config)
    out_dir = args.out or cfg.out or "study_out"
    # an output directory that cannot be made fails before the study, not after it
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    report = run_study(cfg)
    files = emit_report(report, out_dir)
    for name, check in sorted(report.checks.items()):
        print(f"{'PASS' if check.passed else 'FAIL'} {name}: {check.reason}")
    for failure in report.failures:
        print(f"ERROR eps={failure['epsilon']} level={failure['level']} "
              f"stage={failure['stage']}: {failure['error']}: {failure['message']}")
    print(f"wrote {len(files)} files to {Path(out_dir)}")
    if args.assert_checks:
        if report.failures or any(not c.passed for c in report.checks.values()):
            return EXIT_ASSERT
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _read_config(args.config)
    op = assemble_full(cfg.geometry, args.epsilon, cfg.grid)
    pairs = smallest_eigenpairs(op, replace(cfg.solver, k=args.k))
    if args.dump_stiffness:
        write_coordinate_triplets(op.stiffness, args.dump_stiffness)
    if args.dump_weight:
        import scipy.sparse as sp

        write_coordinate_triplets(sp.diags(op.weight), args.dump_weight)
    for value in pairs.values:
        print(f"{value:.17g}")
    return EXIT_OK


def _cmd_nodal(args) -> int:
    if args.mode < 0:
        raise ConfigError(f"--mode must be nonnegative, got {args.mode}")
    cfg = _read_config(args.config)
    op = assemble_full(cfg.geometry, args.epsilon, cfg.grid)
    pairs = smallest_eigenpairs(op, replace(cfg.solver, k=max(args.mode + 2, cfg.solver.k)))
    # a member of a degenerate level is whichever one round-off sorts first
    require_simple(pairs.values, args.mode, f"level {args.mode} eigenvalue")
    nodal = extract_nodal_set(field_from_operator(op, pairs.vectors[:, args.mode]))
    csv_text = nodal_set_to_csv(nodal)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_check(_args) -> int:
    results = self_check(verbose=True)
    return EXIT_OK if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrelab",
        description="Spectral and nodal-set studies of thin fibre bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run an epsilon-sweep convergence study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--out", default=None)
    p_study.add_argument("--assert", dest="assert_checks", action="store_true",
                         help="exit 3 if any configured check fails")
    p_study.set_defaults(func=_cmd_study)

    p_solve = sub.add_parser("solve", help="print the smallest eigenvalues at one epsilon")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--epsilon", type=float, required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--dump-stiffness", default=None,
                         help="write the stiffness matrix as row/col/value triplets")
    p_solve.add_argument("--dump-weight", default=None,
                         help="write the weight matrix as row/col/value triplets")
    p_solve.set_defaults(func=_cmd_solve)

    p_nodal = sub.add_parser("nodal", help="emit the nodal set of one mode as CSV")
    p_nodal.add_argument("--config", required=True)
    p_nodal.add_argument("--epsilon", type=float, required=True)
    p_nodal.add_argument("--mode", type=int, required=True)
    p_nodal.add_argument("--out", default=None)
    p_nodal.set_defaults(func=_cmd_nodal)

    p_check = sub.add_parser("check", help="run the built-in invariant self-tests")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, FactorizationFailed) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FibrelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # every read is a ConfigError by now, so this is an output path
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
