"""Span tracer that wraps rootgaps' cross-module call sites from outside.

The library carries no timers of its own, so the tracer replaces the
module attributes through which one rootgaps module calls another (for
example ``rootgaps.roots._evaluate_scaled``) with timing wrappers.  Each
call records a span ``[name, start, end, parent, point]`` where ``parent``
is the index of the innermost open span and ``point`` is the index of the
enclosing ``cli.point`` span (``-1`` outside a sweep point).  Spans stay in
memory until :meth:`Tracer.write`.

A target whose module or attribute no longer exists is listed in
``Tracer.missing`` instead of failing, so the tracer outlives refactors of
the library; the metrics that depend on it then read zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict


def _roots_counts(args, result) -> dict:
    return {
        "roots.polished": getattr(result, "n", 0),
        "roots.polish_skipped": len(getattr(result, "polish_skipped", ())),
    }


def _dense_counts(args, result) -> dict:
    n = getattr(args[0], "n", 0) if args else 0
    return {"eigensolve.dense.n3_sum": n**3}


def _report_counts(args, result) -> dict:
    return {"bounds.reports": len(result) if isinstance(result, list) else 1}


# (module, attribute, span name, counter); one span name may cover several
# attributes, e.g. the three S_N builders are all ``covariance.build``.
TARGETS = (
    ("rootgaps.cli", "main", "cli.main", None),
    ("rootgaps.cli", "_evaluate_point", "cli.point", None),
    ("rootgaps.cli", "_emit", "cli.emit", None),
    ("rootgaps.cli", "compute_roots", "roots.compute_roots", _roots_counts),
    ("rootgaps.cli", "dense_eigenvalues", "eigensolve.dense", _dense_counts),
    ("rootgaps.cli", "hermite_S", "covariance.build", None),
    ("rootgaps.cli", "laguerre_S", "covariance.build", None),
    ("rootgaps.cli", "jacobi_S", "covariance.build", None),
    ("rootgaps.cli", "diag_of_square", "covariance.diag_of_square", None),
    ("rootgaps.cli", "hermite_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.cli", "laguerre_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.cli", "jacobi_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.bounds", "hermite_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.bounds", "laguerre_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.bounds", "jacobi_interaction_sums", "covariance.interaction_sums", None),
    ("rootgaps.bounds", "hermite_diag_bound", "bounds.eval", _report_counts),
    ("rootgaps.bounds", "laguerre_bounds", "bounds.eval", _report_counts),
    ("rootgaps.bounds", "laguerre_comparators", "bounds.eval", _report_counts),
    ("rootgaps.bounds", "jacobi_bounds", "bounds.eval", _report_counts),
    ("rootgaps.bounds", "jacobi_comparator", "bounds.eval", _report_counts),
    ("rootgaps.bounds", "sharpness_summary", "bounds.summary", None),
    ("rootgaps.roots", "jacobi_matrix", "families.jacobi_matrix", None),
    ("rootgaps.roots", "_evaluate_scaled", "families.evaluate", None),
    ("rootgaps.roots", "_tridiag_eigenvalues_only", "eigensolve.tridiag", None),
    ("rootgaps.eigensolve", "_householder_tridiag", "eigensolve.householder", None),
    ("rootgaps.eigensolve", "_ql_implicit", "eigensolve.ql", None),
)

POINT_SPAN = "cli.point"

# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "families.jacobi_matrix.s": "s",
    "families.jacobi_matrix.calls": "count",
    "families.evaluate.s": "s",
    "families.evaluate.calls": "count",
    "eigensolve.tridiag.s": "s",
    "eigensolve.tridiag.calls": "count",
    "eigensolve.dense.s": "s",
    "eigensolve.dense.calls": "count",
    "eigensolve.householder.s": "s",
    "eigensolve.dense_ql.s": "s",
    "eigensolve.dense.n3_sum": "count",
    "roots.compute_roots.s": "s",
    "roots.compute_roots.calls": "count",
    "roots.polish.self_s": "s",
    "roots.polish_skipped": "count",
    "roots.polish_accept_ratio": "ratio",
    "covariance.build.s": "s",
    "covariance.build.calls": "count",
    "covariance.diag_of_square.s": "s",
    "covariance.interaction_sums.s": "s",
    "bounds.eval.s": "s",
    "bounds.reports": "count",
    "bounds.summary.s": "s",
    "cli.point.calls": "count",
    "cli.point.p50_ms": "ms",
    "cli.point.p95_ms": "ms",
    "cli.rows.self_s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "cli.other.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs timing wrappers on ``targets`` and aggregates their spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, count in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original, count))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        is_point = name == POINT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            point = index if is_point else (spans[parent][4] if parent >= 0 else -1)
            span = [name, clock(), 0.0, parent, point]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts.update(count(args, result))
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and counts over every recorded span.

        ``cli.emit.bytes`` (output file sizes, added by the worker) and
        ``trace.overhead_s`` (traced minus untraced wall time, added by
        ``run.py``) do not come from spans and are not included here.
        """
        spans = self.spans
        duration = [end - start for _, start, end, _, _ in spans]
        covered = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                covered[span[3]] += duration[i]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        dense_ql = 0.0
        points = []
        for i, (name, _, _, parent, _) in enumerate(spans):
            total[name] += duration[i]
            self_time[name] += duration[i] - covered[i]
            calls[name] += 1
            if name == "eigensolve.ql" and parent >= 0 and spans[parent][0] == "eigensolve.dense":
                dense_ql += duration[i]
            if name == POINT_SPAN:
                points.append(duration[i] * 1e3)
        polished = self.counts["roots.polished"]
        skipped = self.counts["roots.polish_skipped"]
        return {
            "families.jacobi_matrix.s": total["families.jacobi_matrix"],
            "families.jacobi_matrix.calls": calls["families.jacobi_matrix"],
            "families.evaluate.s": total["families.evaluate"],
            "families.evaluate.calls": calls["families.evaluate"],
            "eigensolve.tridiag.s": total["eigensolve.tridiag"],
            "eigensolve.tridiag.calls": calls["eigensolve.tridiag"],
            "eigensolve.dense.s": total["eigensolve.dense"],
            "eigensolve.dense.calls": calls["eigensolve.dense"],
            "eigensolve.householder.s": total["eigensolve.householder"],
            "eigensolve.dense_ql.s": dense_ql,
            "eigensolve.dense.n3_sum": self.counts["eigensolve.dense.n3_sum"],
            "roots.compute_roots.s": total["roots.compute_roots"],
            "roots.compute_roots.calls": calls["roots.compute_roots"],
            "roots.polish.self_s": self_time["roots.compute_roots"],
            "roots.polish_skipped": skipped,
            "roots.polish_accept_ratio": (polished - skipped) / polished if polished else 0.0,
            "covariance.build.s": total["covariance.build"],
            "covariance.build.calls": calls["covariance.build"],
            "covariance.diag_of_square.s": total["covariance.diag_of_square"],
            "covariance.interaction_sums.s": total["covariance.interaction_sums"],
            "bounds.eval.s": total["bounds.eval"],
            "bounds.reports": self.counts["bounds.reports"],
            "bounds.summary.s": total["bounds.summary"],
            "cli.point.calls": calls[POINT_SPAN],
            "cli.point.p50_ms": statistics.median(points) if points else 0.0,
            "cli.point.p95_ms": _p95(points),
            "cli.rows.self_s": self_time[POINT_SPAN],
            "cli.emit.s": total["cli.emit"],
            "cli.other.s": self_time["cli.main"],
        }

    def write(self, path: str) -> None:
        """Write the missing targets, then one span per line, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]
