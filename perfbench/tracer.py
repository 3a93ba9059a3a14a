"""Spans around the public functions of cayleygibbs, recorded from outside.

The package binds names with ``from ... import``, so a wrapper is installed
by rebinding every module attribute that holds the original function.
Each call opens a span (name, start, end, parent); a span's self time is its
duration minus the time its child spans cover.  ``label`` and
``edge_field`` run hundreds of thousands of times per round, so they are
kept as leaves: their calls are summed per parent span instead of stored
one by one.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, leaf)
TARGETS = (
    ("cayleygibbs.words", "enumerate_ball", False),
    ("cayleygibbs.cosets", "label", True),
    ("cayleygibbs.invariance", "check_invariance", False),
    ("cayleygibbs.invariance", "derive_system", False),
    ("cayleygibbs.solver", "solve_fixed_points", False),
    ("cayleygibbs.solver", "edge_field", True),
    ("cayleygibbs.solver", "solve_i1_exact", False),
    ("cayleygibbs.solver", "theta_sweep", False),
    ("cayleygibbs.solver", "verify_compatibility", False),
    ("cayleygibbs.cli", "main", False),
)

# per-layer metric -> unit; self_s and calls come from spans, the rest are counts
METRICS = {
    "words.enumerate_ball.calls": "count",
    "words.enumerate_ball.self_s": "s",
    "words.vertices": "count",
    "cosets.label.calls": "count",
    "cosets.label.self_s": "s",
    "invariance.check_invariance.self_s": "s",
    "invariance.words_checked": "count",
    "invariance.violations": "count",
    "invariance.derive_system.ill_defined": "count",
    "invariance.derive_system.self_s": "s",
    "solver.solve_fixed_points.calls": "count",
    "solver.solve_fixed_points.self_s": "s",
    "solver.edge_field.calls": "count",
    "solver.roots": "count",
    "solver.solve_i1_exact.self_s": "s",
    "solver.verify_compatibility.self_s": "s",
    "solver.configs": "count",
    "solver.verify_compatibility.peak_mb": "MB",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
}

PEAK_METRICS = {"solver.verify_compatibility.peak_mb"}
TIME_METRICS = [m for m, unit in METRICS.items() if unit == "s"]


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.leaves: dict[tuple[str, int | None], list] = defaultdict(lambda: [0, 0.0])
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.active = False

    # --- recording ---

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        self.spans.append((frame[0], name, start, end, parent[0] if parent else None))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        if not self.active:
            yield
            return
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    @contextmanager
    def paused(self):
        """Calls made by the reference checks are not the program's work."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, n: float) -> None:
        if self.active:
            self.counts[name] += n

    # --- wrappers ---

    def _wrap_leaf(self, name: str, fn):
        tracer = self

        def leaf(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[1] += duration
                slot = tracer.leaves[(name, parent[0] if parent else None)]
                slot[0] += 1
                slot[1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration

        return leaf

    def _wrap_span(self, name: str, fn):
        tracer = self
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)
        peak = name == "solver.verify_compatibility"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open()
            if peak:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                end = perf_counter()
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{name}.peak_mb"
                    tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), mb)
                tracer._close(name, frame, start, end)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every cayleygibbs attribute that holds a target function."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "cayleygibbs" or n.startswith("cayleygibbs.")]
        for module_name, attr, is_leaf in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            name = _short(module_name, attr)
            wrapped = self._wrap_leaf(name, original) if is_leaf else self._wrap_span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    # --- results ---

    def snapshot(self) -> dict[str, float]:
        """Per-layer figures accumulated so far, keyed by metric name."""
        out = {}
        for metric in METRICS:
            span, field = metric.rsplit(".", 1)
            if metric in PEAK_METRICS:
                out[metric] = self.peaks.get(metric, 0.0)
            elif field == "self_s":
                out[metric] = self.self_s[span]
            elif field == "calls":
                out[metric] = float(self.calls[span])
            else:
                out[metric] = float(self.counts[metric])
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in self.spans
        ]
        doc["leaves"] = [
            {"name": n, "parent": p, "calls": c, "total_s": t} for (n, p), (c, t) in self.leaves.items()
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _on_ball(tracer: Tracer, ball) -> None:
    tracer.counts["words.vertices"] += len(ball)


def _on_invariance(tracer: Tracer, report) -> None:
    tracer.counts["invariance.words_checked"] += report.words_checked
    tracer.counts["invariance.violations"] += len(report.violations)


def _on_solutions(tracer: Tracer, found) -> None:
    tracer.counts["solver.roots"] += len(found.solutions)


def _on_compat(tracer: Tracer, report) -> None:
    tracer.counts["solver.configs"] += report.configs_checked


def _on_derive_error(tracer: Tracer, exc: Exception) -> None:
    from cayleygibbs.invariance import IllDefinedSystemError

    if isinstance(exc, IllDefinedSystemError):
        tracer.counts["invariance.derive_system.ill_defined"] += 1


_ON_RESULT = {
    "words.enumerate_ball": _on_ball,
    "invariance.check_invariance": _on_invariance,
    "solver.solve_fixed_points": _on_solutions,
    "solver.verify_compatibility": _on_compat,
}
_ON_ERROR = {"invariance.derive_system": _on_derive_error}
