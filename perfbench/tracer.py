"""Spans around the public entry points of each countsearch layer.

The traced run patches, from outside the package, the methods and
module-level kernels listed in ``Tracer.install``, and restores them on
exit.  Each call becomes a span (name, parent span, job, start, end) kept
in memory; self time is a span's duration minus that of its direct
children.  Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import Counter
from typing import Callable

from countsearch import AllDifferent, GlobalCardinality, Knapsack, Model, Regular
from countsearch import alldiff as alldiff_mod
from countsearch import gcc as gcc_mod
from countsearch import knapsack as knapsack_mod
from countsearch import regular as regular_mod

#: constraint classes and the layer name each reports under
KINDS = (
    (AllDifferent, "alldiff"),
    (GlobalCardinality, "gcc"),
    (Regular, "regular"),
    (Knapsack, "knapsack"),
)

# span record fields
NAME, PARENT, JOB, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.noops: Counter[str] = Counter()
        self.density_lookups = 0
        self.wipeouts = 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.job, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def _wrap_propagate(self, name: str, fn: Callable) -> Callable:
        """Span plus a no-op test: did the call shrink any scope domain?"""
        timed = self.wrap(name, fn)

        def propagate(constraint, model):
            before = sum(model.size(v) for v in constraint.scope)
            ok = timed(constraint, model)
            if ok and sum(model.size(v) for v in constraint.scope) == before:
                self.noops[name] += 1
            return ok

        return propagate

    def _wrap_collect(self, fn: Callable) -> Callable:
        timed = self.wrap("engine.collect_densities", fn)

        def collect_densities(model):
            tables = timed(model)
            self.density_lookups += len(tables)
            return tables

        return collect_densities

    def watch(self, model: Model) -> None:
        """Count wipeouts the model reports to its listeners."""
        model.on_wipeout(self._on_wipeout)

    def _on_wipeout(self, constraint) -> None:
        self.wipeouts += 1

    @contextlib.contextmanager
    def install(self):
        """Patch every traced entry point; restore the originals on exit."""
        patches = [
            (Model, "push_decision", self.wrap("engine.push_decision", Model.push_decision)),
            (Model, "backtrack_to", self.wrap("engine.backtrack_to", Model.backtrack_to)),
            (Model, "collect_densities", self._wrap_collect(Model.collect_densities)),
        ]
        for cls, kind in KINDS:
            patches.append(
                (cls, "propagate", self._wrap_propagate(f"{kind}.propagate", cls.propagate))
            )
            patches.append(
                (cls, "count_densities", self.wrap(f"{kind}.count", cls.count_densities))
            )
        # kernels, patched where the constraint modules imported them
        for module, attr, name in (
            (alldiff_mod, "lb_log_bound", "factors.lb_log_bound"),
            (gcc_mod, "lb_log_bound", "factors.lb_log_bound"),
            (regular_mod, "build_layered_graph", "regular.build_layered_graph"),
            (knapsack_mod, "build_sum_graph", "knapsack.build_sum_graph"),
        ):
            patches.append((module, attr, self.wrap(name, getattr(module, attr))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def calls(self) -> Counter[str]:
        return Counter(span[NAME] for span in self.spans)

    def self_seconds(self) -> Counter[str]:
        """Per span name: total duration minus direct children's."""
        out: Counter[str] = Counter()
        spans = self.spans
        for span in spans:
            dur = span[END] - span[START]
            out[span[NAME]] += dur
            if span[PARENT] >= 0:
                out[spans[span[PARENT]][NAME]] -= dur
        return Counter({k: v / 1e9 for k, v in out.items()})

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent, job, name, start, end (ns)."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[JOB]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")
