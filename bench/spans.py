"""Benchmark-side tracing of greechie's public functions.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
the module namespace its callers look it up in (for example
``gls.rays_collinear`` for the parser and ``analysis.rays_collinear`` for
``verify_realization``); ``uninstall`` puts the originals back.  greechie's
own code is not changed.

A span wrapper records ``[name, start_ns, end_ns, parent, op, leaf_ns]`` in
memory.  Hot leaves (``rays_collinear``, ``inner_product``,
``joint_probability``) are called thousands of times per op, so they only add
to a call counter and a time total, and charge their time to the innermost
open span (``leaf_ns``).  A span's self time is its duration minus its child
spans and its leaf time, so the self times of a pass add up to the time
spent inside ``cli.main`` and the library calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable

# (object path, attribute, record name, kind, counter of the return value)
TARGETS: tuple[tuple[str, str, str, str, Callable[[Any], int] | None], ...] = (
    ("cli", "main", "cli.main", "span", None),
    ("cli", "inner_product", "model.inner", "leaf", None),
    ("gls", "load_logic", "gls.load_logic", "span", None),
    ("gls", "parse_logic", "gls.parse_logic", "span", None),
    ("gls", "rays_collinear", "model.collinear", "leaf", None),
    ("model", "rays_collinear", "model.collinear", "leaf", None),
    ("model.Logic", "validate", "model.Logic.validate", "span", None),
    ("analysis", "rays_collinear", "model.collinear", "leaf", None),
    ("analysis", "inner_product", "model.inner", "leaf", None),
    ("analysis", "verify_realization", "analysis.verify_realization", "span", None),
    ("analysis", "complete_contexts", "analysis.complete_contexts", "span", None),
    ("analysis", "enumerate_states", "analysis.enumerate_states", "span", lambda r: r.count),
    (
        "analysis",
        "derive_rules",
        "analysis.derive_rules",
        "span",
        lambda r: len(r.one_zero) + len(r.one_one) + len(r.equivalences),
    ),
    (
        "analysis",
        "infer_collapses",
        "analysis.infer_collapses",
        "span",
        lambda r: len(r.forced_identifications),
    ),
    ("analysis", "parity_obstruction", "analysis.parity_obstruction", "span", None),
    ("quantum", "falsification_report", "quantum.falsification_report", "span", None),
    ("quantum", "joint_probability", "quantum.joint", "leaf", None),
    ("diagrams", "tkadlec_dual", "diagrams.tkadlec_dual", "span", None),
    ("diagrams", "emit_dot", "diagrams.emit_dot", "span", None),
)

# Per-layer metric that each span's self time is added to.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "gls.load_logic": "gls.parse_s",
    "gls.parse_logic": "gls.parse_s",
    "model.Logic.validate": "model.validate_s",
    "analysis.verify_realization": "analysis.verify_s",
    "analysis.complete_contexts": "analysis.complete_s",
    "analysis.enumerate_states": "analysis.enumerate_s",
    "analysis.derive_rules": "analysis.rules_s",
    "analysis.infer_collapses": "analysis.collapse_s",
    "analysis.parity_obstruction": "analysis.parity_s",
    "quantum.falsification_report": "quantum.report_s",
    "diagrams.tkadlec_dual": "diagrams.dual_s",
    "diagrams.emit_dot": "diagrams.dot_s",
}
# Per-layer metric that a span's counter (return-value count) is added to.
RESULT_COUNT = {
    "analysis.enumerate_states": "analysis.states_emitted",
    "analysis.derive_rules": "analysis.rules_emitted",
    "analysis.infer_collapses": "analysis.identifications",
}
MODULES = ("gls", "model", "analysis", "quantum", "diagrams", "cli")
LEAVES = ("model.collinear", "model.inner", "quantum.joint")


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"greechie.{module}")
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.leaves = {name: [0, 0] for name in LEAVES}
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for path, attr, name, kind, count in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if kind == "span":
                setattr(owner, attr, self._span(name, original, count))
            else:
                setattr(owner, attr, self._leaf(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, module = self.spans, self.stack, name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                self.counts[name] += count(result)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        spans, stack, totals = self.spans, self.stack, self.leaves[name]
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def self_times(self) -> list[int]:
        """Self time in ns of every span, in recording order."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op, leaf in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            end - start - child[i] - leaf
            for i, (name, start, end, parent, op, leaf) in enumerate(self.spans)
        ]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass (times in seconds)."""
        out: dict[str, float] = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
        for (name, *_), self_ns in zip(self.spans, self.self_times()):
            out[SELF_TIME[name]] += self_ns / 1e9
        for name, metric in RESULT_COUNT.items():
            out[metric] = self.counts[name]
        out["gls.parse_calls"] = sum(1 for s in self.spans if s[0] == "gls.parse_logic")
        for name, (calls, ns) in self.leaves.items():
            out[f"{name}_calls"] = calls
            out[f"{name}_s"] = ns / 1e9
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        out["trace.traced_s"] = sum(
            end - start for _, start, end, parent, *_ in self.spans if parent < 0
        ) / 1e9
        return out
