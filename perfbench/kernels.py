"""Per-call timings of the four counting kernels on fixed root domains.

Each kernel runs on one constraint of a workload instance after root
propagation, so its inputs do not depend on search.  The result is the
median over several batches of the time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

from countsearch import WIPEOUT, AllDifferent, GlobalCardinality, Knapsack, Regular
from countsearch.bench import (
    build_model,
    generate_marketsplit,
    generate_qwh,
    generate_rostering,
)
from countsearch.engine import Constraint, Model

from workloads import (
    MARKETSPLIT_ROWS,
    QWH_HOLES,
    ROSTER_EMPLOYEES,
    ROSTER_PERIODS,
    roster_gcc_model,
)

BATCHES = 7
BATCH_SECONDS = 0.02


def _per_call_us(fn) -> float:
    fn()  # warm caches the kernel fills lazily
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, int(BATCH_SECONDS / max(once, 1e-9)))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples) * 1e6


def _widest(model: Model, kind: type) -> Constraint:
    """The constraint of ``kind`` with the most free domain values."""
    return max(
        (c for c in model.constraints if isinstance(c, kind)),
        key=lambda c: sum(model.size(v) for v in c.scope if not model.is_bound(v)),
    )


def kernel_timings(seed: int) -> dict[str, float]:
    """``*_us`` metrics: one count_densities call per kernel.

    The alldiff kernel runs at order 30 whatever the workloads' order,
    so it stays comparable with earlier per-call measurements.
    """
    qwh = build_model(generate_qwh(30, QWH_HOLES, seed))
    roster = roster_gcc_model(
        generate_rostering(ROSTER_EMPLOYEES, ROSTER_PERIODS, seed=seed).payload
    )
    marketsplit = build_model(generate_marketsplit(MARKETSPLIT_ROWS, seed))
    for model in (qwh, roster, marketsplit):
        if model.propagate() == WIPEOUT:
            raise RuntimeError("a kernel instance fails at the root")
    out = {}
    for metric, model, kind in (
        ("alldiff.density_table_us", qwh, AllDifferent),
        ("gcc.count_us", roster, GlobalCardinality),
        ("regular.count_us", roster, Regular),
        ("knapsack.count_us", marketsplit, Knapsack),
    ):
        constraint = _widest(model, kind)
        out[metric] = _per_call_us(lambda: constraint.count_densities(model))
    return out
