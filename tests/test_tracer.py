"""perfbench's tracer patches countsearch from outside and restores it."""

import importlib.util
import os

import pytest

from countsearch import alldiff, engine, gcc, knapsack, regular
from countsearch.alldiff import AllDifferent
from countsearch.bench import (
    build_model,
    generate_marketsplit,
    generate_qwh,
    generate_rostering,
)
from countsearch.engine import CONSISTENT, Model
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import MaxSD
from countsearch.knapsack import Knapsack
from countsearch.regular import Regular
from countsearch.search import dfs

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)
#: every class and module the tracer may patch
OWNERS = (Model, AllDifferent, GlobalCardinality, Regular, Knapsack,
          alldiff, engine, gcc, knapsack, regular)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {(owner, attr): fn for owner in OWNERS for attr, fn in vars(owner).items()}


def test_install_patches_entry_points_and_restores_them():
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    with tracer.install():
        during = _snapshot()
        patched = {
            (owner.__name__.rsplit(".", 1)[-1], attr)
            for (owner, attr), fn in during.items()
            if before.get((owner, attr)) is not fn
        }
        m = Model()
        xs = [m.new_variable({1, 2, 3}) for _ in range(3)]
        m.add(GlobalCardinality(xs, {1: 1}, {1: 1, 2: 1, 3: 1}))
        m.add(AllDifferent(xs[:2]))
        assert m.propagate() == CONSISTENT
        m.collect_densities()
    assert {
        ("Model", "push_decision"),
        ("Model", "backtrack_to"),
        ("Model", "collect_densities"),
        ("GlobalCardinality", "propagate"),
        ("GlobalCardinality", "count_densities"),
        ("AllDifferent", "propagate"),
        ("gcc", "lb_log_bound"),
        ("alldiff", "lb_log_bound"),
        ("regular", "build_layered_graph"),
        ("knapsack", "build_sum_graph"),
    } <= patched
    calls = tracer.calls()
    assert calls["gcc.propagate"] >= 1 and calls["gcc.count"] == 1
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize(
    "instance, kind, build, backtracks",
    [
        # a dive with no backtrack
        (generate_rostering(4, 8, seed=0), Regular, "regular.build_layered_graph", 0),
        # stops at the cap of 10 backtracks
        (generate_marketsplit(3, 0), Knapsack, "knapsack.build_sum_graph", 10),
    ],
    ids=["roster", "marketsplit"],
)
def test_traced_dfs_builds_each_graph_once(instance, kind, build, backtracks):
    """The tracer sees the layered-graph builds, one per graph constraint
    however long the search runs."""
    tracer = _load_tracer().Tracer()
    with tracer.install():
        model = build_model(instance)
        stats = dfs(model, MaxSD(model), backtrack_limit=10)
    graphs = sum(isinstance(c, kind) for c in model.constraints)
    calls = tracer.calls()
    assert stats.backtracks == backtracks
    assert graphs > 0 and calls[build] == graphs
    assert calls[f"{kind.__name__.lower()}.propagate"] > 10 * graphs


def test_alldiff_tables_take_liang_bai_once_each():
    """AllDifferent density probes use Bregman-Minc alone: the tracer's
    ``factors.lb_log_bound`` sees one call per table, for its count."""
    tracer = _load_tracer().Tracer()
    with tracer.install():
        model = build_model(generate_qwh(12, seed=0))
        dfs(model, MaxSD(model), backtrack_limit=5)
    assert all(isinstance(c, AllDifferent) for c in model.constraints)
    calls = tracer.calls()
    assert calls["alldiff.count"] > 10
    assert calls["factors.lb_log_bound"] == calls["alldiff.count"]
