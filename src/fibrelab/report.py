"""Text formats of fibrelab's results: JSON, CSV, SVG and coordinate triplets.

Reports are byte-stable: canonical JSON with sorted keys and
17-significant-digit floats, fixed-template SVG plots, and wall-clock
timings kept in a separate non-deterministic file.  Nodal sets and
sparse matrices are written with 17 significant digits as well.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .effective import DiscrepancyRecord
from .nodal import NodalSet
from .study import RateFit, StudyReport

__all__ = [
    "dumps_canonical",
    "emit_report",
    "nodal_set_to_csv",
    "records_csv",
    "report_to_dict",
    "write_coordinate_triplets",
]

CSV_COLUMNS = (
    "epsilon", "mode", "lambda_full", "mu_eff", "eig_gap", "supnorm", "hausdorff",
    "nodal_domains", "nodal_components", "boundary_components", "graph_check",
    "disc_err_est",
)


def _fmt_float(x: float) -> str:
    if x is None or not np.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}" if isinstance(x, float) else str(x)
    return f"{x:.17g}"


def _canonical_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical_json(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canonical_json(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps_canonical(obj) -> str:
    parts: list[str] = []
    _canonical_json(obj, parts)
    return "".join(parts)


def _record_dict(rec: DiscrepancyRecord) -> dict:
    return {
        "epsilon": rec.eps,
        "mode": rec.mode_index,
        "lambda_full": rec.lambda_full,
        "mu_eff": rec.mu,
        "eig_gap": rec.eig_gap,
        "supnorm": rec.supnorm,
        "hausdorff": rec.hausdorff,
        "nodal_domains": rec.nodal.domain_count,
        "nodal_components": rec.nodal.component_count,
        "boundary_components": rec.nodal.boundary_components,
        "graph_check": rec.nodal.graph_over_fiber,
        "disc_err_est": rec.disc_error_estimate,
        "disc_estimates": dict(rec.disc_estimates),
        "zeros": rec.nodal.zero_list,
        "tube_radius": rec.tube_radius,
        "empirical_tube_constant": rec.empirical_tube_constant,
    }


def report_to_dict(report: StudyReport) -> dict:
    fits = {}
    for name, f in report.fits.items():
        fits[name] = None if f is None else {
            "slope": f.slope,
            "intercept": f.intercept,
            "r_squared": f.r_squared,
            "points_used": [list(p) for p in f.points_used],
            "excluded": [[e, v, r] for e, v, r in f.excluded],
        }
    checks = {
        name: {
            "passed": c.passed,
            "reason": c.reason,
            "threshold": c.threshold,
            "theory": c.theory,
            "slope": c.slope,
        }
        for name, c in report.checks.items()
    }
    return {
        "config": report.config_echo,
        "records": [_record_dict(r) for r in report.records],
        "fits": fits,
        "checks": checks,
        "failures": report.failures,
        "courant": {f"{eps:.17g}": counts for eps, counts in report.courant_counts.items()},
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not np.isfinite(value):
        return ""
    return f"{float(value):.17g}"


def records_csv(report: StudyReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in report.records:
        d = _record_dict(rec)
        lines.append(",".join(_csv_cell(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


SVG_W, SVG_H = 720, 540
SVG_MARGIN = 70


def _svg_loglog(title: str, fit: Optional[RateFit],
                included: list[tuple[float, float]],
                excluded: list[tuple[float, float]]) -> str:
    pts = [(x, y) for x, y in included + excluded if y > 0.0 and x > 0.0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W / 2:.6g}" y="28" text-anchor="middle" font-size="18">{title}</text>',
    ]
    if pts:
        lx = [np.log10(x) for x, _ in pts]
        ly = [np.log10(y) for _, y in pts]
        x0, x1 = min(lx) - 0.15, max(lx) + 0.15
        y0, y1 = min(ly) - 0.3, max(ly) + 0.3
        if x1 - x0 < 1e-9:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 < 1e-9:
            y0, y1 = y0 - 0.5, y1 + 0.5

        def px(v: float) -> float:
            return SVG_MARGIN + (v - x0) / (x1 - x0) * (SVG_W - 2 * SVG_MARGIN)

        def py(v: float) -> float:
            return SVG_H - SVG_MARGIN - (v - y0) / (y1 - y0) * (SVG_H - 2 * SVG_MARGIN)

        parts.append(
            f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{SVG_W - 2 * SVG_MARGIN}" '
            f'height="{SVG_H - 2 * SVG_MARGIN}" fill="none" stroke="black"/>'
        )
        for d in range(int(np.floor(x0)), int(np.ceil(x1)) + 1):
            if x0 <= d <= x1:
                parts.append(
                    f'<line x1="{px(d):.6g}" y1="{SVG_H - SVG_MARGIN}" x2="{px(d):.6g}" '
                    f'y2="{SVG_H - SVG_MARGIN + 6}" stroke="black"/>'
                )
                parts.append(
                    f'<text x="{px(d):.6g}" y="{SVG_H - SVG_MARGIN + 22}" text-anchor="middle" '
                    f'font-size="12">1e{d}</text>'
                )
        for d in range(int(np.floor(y0)), int(np.ceil(y1)) + 1):
            if y0 <= d <= y1:
                parts.append(
                    f'<line x1="{SVG_MARGIN - 6}" y1="{py(d):.6g}" x2="{SVG_MARGIN}" '
                    f'y2="{py(d):.6g}" stroke="black"/>'
                )
                parts.append(
                    f'<text x="{SVG_MARGIN - 10}" y="{py(d):.6g}" text-anchor="end" '
                    f'font-size="12">1e{d}</text>'
                )
        if fit is not None:
            ell = fit.slope * np.log(10 ** x0) + fit.intercept
            elr = fit.slope * np.log(10 ** x1) + fit.intercept
            parts.append(
                f'<line x1="{px(x0):.6g}" y1="{py(ell / np.log(10)):.6g}" '
                f'x2="{px(x1):.6g}" y2="{py(elr / np.log(10)):.6g}" '
                f'stroke="steelblue" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{SVG_W - SVG_MARGIN:.6g}" y="{SVG_MARGIN - 12}" text-anchor="end" '
                f'font-size="14">slope {fit.slope:.3f}</text>'
            )
        for x, y in included:
            if y > 0:
                parts.append(
                    f'<circle cx="{px(np.log10(x)):.6g}" cy="{py(np.log10(y)):.6g}" r="4" '
                    f'fill="firebrick"/>'
                )
        for x, y in excluded:
            if y > 0:
                cx, cy = px(np.log10(x)), py(np.log10(y))
                parts.append(
                    f'<path d="M {cx - 4:.6g} {cy - 4:.6g} L {cx + 4:.6g} {cy + 4:.6g} '
                    f'M {cx - 4:.6g} {cy + 4:.6g} L {cx + 4:.6g} {cy - 4:.6g}" '
                    f'stroke="gray" stroke-width="1.5"/>'
                )
    else:
        parts.append(
            f'<text x="{SVG_W / 2:.6g}" y="{SVG_H / 2:.6g}" text-anchor="middle" '
            f'font-size="14">no positive data points</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: StudyReport, out_dir) -> list[Path]:
    """Write report.json, records.csv, and one SVG per measured quantity.

    The JSON and CSV outputs are byte-stable for identical report content;
    wall-clock timings go to a separate timings.json outside that contract.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.json"
    path.write_text(dumps_canonical(report_to_dict(report)) + "\n", encoding="ascii")
    written.append(path)

    path = out / "records.csv"
    path.write_text(records_csv(report), encoding="ascii")
    written.append(path)

    for quantity in ("eig_gap", "supnorm", "hausdorff"):
        fit = report.fits.get(quantity)
        included = fit.points_used if fit is not None else []
        excl_src = fit.excluded if fit is not None else []
        excluded = [(e, v) for e, v, _ in excl_src if np.isfinite(v)]
        if fit is None:
            pts = [
                (r.eps, getattr(r, quantity))
                for r in report.records
                if getattr(r, quantity) is not None
            ]
            excluded = [(e, v) for e, v in pts if v > 0.0]
        path = out / f"{quantity}.svg"
        path.write_text(_svg_loglog(quantity, fit, list(included), excluded), encoding="ascii")
        written.append(path)

    path = out / "timings.json"
    path.write_text(json.dumps(report.timings, indent=2, sort_keys=True) + "\n", encoding="ascii")
    written.append(path)
    return written


def nodal_set_to_csv(nodal: NodalSet) -> str:
    """Segments as ``s0,f0,s1,f1,component`` rows."""
    lines = ["s0,f0,s1,f1,component"]
    for (p0, p1), lab in zip(nodal.segments, nodal.component_labels):
        lines.append(f"{p0[0]:.17g},{p0[1]:.17g},{p1[0]:.17g},{p1[1]:.17g},{int(lab)}")
    return "\n".join(lines) + "\n"


def write_coordinate_triplets(matrix, path) -> None:
    """Dump a sparse matrix as ``row col value`` lines, 17 significant digits."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii") as fh:
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")
