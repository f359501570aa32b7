"""Outside-in span tracer for the per-layer metrics.

The tracer wraps public fibrelab names at the place their caller looks
them up (a module global or a class attribute), so nothing inside the
package changes.  Every call becomes a span kept in memory; a span's self
time is its duration minus the time of the traced spans it contains.
A site whose name no longer exists is skipped with a note, and the
metrics that depend only on skipped sites are reported as ``None``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (site, "module" or "module:Class", attribute); sites that share a name
# are one layer boundary looked up from several callers
SITES = (
    ("eigensolve.full", "fibrelab.study", "smallest_eigenpairs"),
    ("eigensolve.effective", "fibrelab.effective", "smallest_eigenpairs"),
    ("geometry.warp_value", "fibrelab.geometry:WarpedTorusGeometry", "warp_value"),
    ("nodal.hausdorff", "fibrelab.effective", "hausdorff_distance"),
    ("nodal.extract", "fibrelab.effective", "extract_nodal_set"),
    ("nodal.domains", "fibrelab.effective", "count_nodal_domains"),
    ("nodal.domains", "fibrelab.study", "count_nodal_domains"),
    ("nodal.graph_check", "fibrelab.effective", "graph_over_fiber_check"),
    ("nodal.boundary", "fibrelab.effective", "boundary_trace_components"),
    ("operators.assemble", "fibrelab.study", "assemble_full"),
    ("operators.assemble", "fibrelab.study", "assemble_effective"),
    ("effective.prediction", "fibrelab.study", "build_prediction"),
    ("effective.discrepancy", "fibrelab.study", "measure_discrepancy"),
)

ROOT = "study"
EMIT = "study.emit"

# metric -> (unit, site it is measured at)
LAYER_METRICS = {
    "eigensolve.full_s": ("s", "eigensolve.full"),
    "eigensolve.full_fine_s": ("s", "eigensolve.full"),
    "eigensolve.full_calls": ("count", "eigensolve.full"),
    "eigensolve.max_residual": ("ratio", "eigensolve.full"),
    "eigensolve.effective_s": ("s", "eigensolve.effective"),
    "eigensolve.effective_calls": ("count", "eigensolve.effective"),
    "geometry.warp_value_s": ("s", "geometry.warp_value"),
    "geometry.warp_value_calls": ("count", "geometry.warp_value"),
    "nodal.hausdorff_s": ("s", "nodal.hausdorff"),
    "nodal.hausdorff_calls": ("count", "nodal.hausdorff"),
    "nodal.extract_s": ("s", "nodal.extract"),
    "nodal.segments": ("count", "nodal.extract"),
    "nodal.domains_s": ("s", "nodal.domains"),
    "nodal.domains_calls": ("count", "nodal.domains"),
    "nodal.graph_check_s": ("s", "nodal.graph_check"),
    "nodal.boundary_s": ("s", "nodal.boundary"),
    "operators.assemble_s": ("s", "operators.assemble"),
    "operators.dof_max": ("count", "operators.assemble"),
    "operators.nnz_max": ("count", "operators.assemble"),
    "effective.prediction_s": ("s", "effective.prediction"),
    "effective.discrepancy_s": ("s", "effective.discrepancy"),
    "study.self_s": ("s", ROOT),
    "study.emit_s": ("s", EMIT),
    "study.eps_points": ("count", ROOT),
    "trace.study_s": ("s", ROOT),
    "trace.overhead_s": ("s", ROOT),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Spans, counters and the patches that produce them."""

    fine_dim: int = 0
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    installed: set[str] = field(default_factory=lambda: {ROOT, EMIT})
    _open: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append(Span(name, parent, time.perf_counter()))

    def exit(self) -> None:
        span = self.spans[self._open.pop()]
        span.end = time.perf_counter()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def wrap(self, fn: Callable, name: Callable[[tuple], str],
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_result is not None:
                tracer._observe(on_result, args, result)
            return result

        return traced

    def _observe(self, hook: Callable, args: tuple, result) -> None:
        try:
            hook(args, result)
        except (AttributeError, TypeError, ValueError) as exc:
            note = f"counter hook {hook.__name__} failed: {type(exc).__name__}: {exc}"
            if note not in self.notes:
                self.notes.append(note)

    def _bump_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------ patches

    def install(self) -> None:
        """Patch every site that still exists; note the ones that do not."""
        for site, owner_path, attr in SITES:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.notes.append(f"{owner_path}.{attr} not found; {site} not traced")
                continue
            if not callable(fn):
                self.notes.append(f"{owner_path}.{attr} is not callable; {site} not traced")
                continue
            name, hook = self._site_behaviour(site)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, hook))
            self.installed.add(site)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _site_behaviour(self, site: str):
        def fixed(args):
            return site

        if site == "eigensolve.full":
            def level(args):
                fine = args and getattr(args[0], "dim", None) == self.fine_dim
                return site + (".fine" if fine else ".base")

            def residual(args, pairs):
                self._bump_max("max_residual", float(max(pairs.residuals)))

            return level, residual
        if site == "nodal.extract":
            def segments(args, nodal):
                self._add("segments", len(nodal.segments))

            return fixed, segments
        if site == "operators.assemble":
            def size(args, op):
                if hasattr(op, "stiffness"):  # assemble_full; the effective operator is 1D
                    self._bump_max("dof_max", op.dim)
                    self._bump_max("nnz_max", op.stiffness.nnz)

            return fixed, size
        return fixed, None

    # ------------------------------------------------------------ results

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            calls, secs = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, secs + span.self_s)
        return out

    def layer_metrics(self) -> dict[str, Optional[float]]:
        tot = self.totals()

        def calls(*names):
            return sum(tot.get(n, (0, 0.0))[0] for n in names)

        def secs(*names):
            return sum(tot.get(n, (0, 0.0))[1] for n in names)

        full = ("eigensolve.full.base", "eigensolve.full.fine")
        values = {
            "eigensolve.full_s": secs(*full),
            "eigensolve.full_fine_s": secs("eigensolve.full.fine"),
            "eigensolve.full_calls": calls(*full),
            "eigensolve.max_residual": self.counters.get("max_residual"),
            "eigensolve.effective_s": secs("eigensolve.effective"),
            "eigensolve.effective_calls": calls("eigensolve.effective"),
            "geometry.warp_value_s": secs("geometry.warp_value"),
            "geometry.warp_value_calls": calls("geometry.warp_value"),
            "nodal.hausdorff_s": secs("nodal.hausdorff"),
            "nodal.hausdorff_calls": calls("nodal.hausdorff"),
            "nodal.extract_s": secs("nodal.extract"),
            "nodal.segments": self.counters.get("segments", 0),
            "nodal.domains_s": secs("nodal.domains"),
            "nodal.domains_calls": calls("nodal.domains"),
            "nodal.graph_check_s": secs("nodal.graph_check"),
            "nodal.boundary_s": secs("nodal.boundary"),
            "operators.assemble_s": secs("operators.assemble"),
            "operators.dof_max": self.counters.get("dof_max"),
            "operators.nnz_max": self.counters.get("nnz_max"),
            "effective.prediction_s": secs("effective.prediction"),
            "effective.discrepancy_s": secs("effective.discrepancy"),
            "study.self_s": secs(ROOT),
            "study.emit_s": secs(EMIT),
        }
        for metric, (_, site) in LAYER_METRICS.items():
            if site not in self.installed:
                values[metric] = None
        return values

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                 "self_s": s.self_s} for s in self.spans]


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, lambda args: "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
