"""Recount pins: how many times each counting class's ``count_densities``
runs, with the backtracks, for maxSD, minSCMaxSD, aAvgSD and
domWDeg+maxSD under ``dfs``, ``lds`` and ``restart_search`` on two
quasigroup completions (AllDifferent counting) and two magic squares
(AllDifferent and exact ``Knapsack`` counting), each capped at 200
backtracks.

A change to what the density cache or the trail keeps must not make any
rule recount more: a table restored by a backtrack is ranked again
without a recount.  The counts were recorded with every superseded
table kept whole on the trail; a change that counts tables less often
lowers them here on purpose.
"""

import random
from collections import Counter

import pytest

from countsearch import (
    AllDifferent,
    GlobalCardinality,
    Knapsack,
    Regular,
    SymmetricAllDifferent,
)
from countsearch.bench import build_model, generate_magic, generate_qwh
from countsearch.heuristics import make_heuristic
from countsearch.search import dfs, lds, restart_search

COUNTING = (AllDifferent, SymmetricAllDifferent, GlobalCardinality, Regular, Knapsack)

INSTANCES = {
    "qwh-15": lambda seed: generate_qwh(15, 0.42, seed),
    "magic-4": lambda seed: generate_magic(4, seed=seed),
}

DRIVERS = {
    "dfs": lambda m, h: dfs(m, h, backtrack_limit=200),
    "lds": lambda m, h: lds(m, h, backtrack_limit=200),
    "restart": lambda m, h: restart_search(m, h, scale=10, backtrack_limit=200),
}

#: (heuristic, instance, seed, driver) -> (backtracks, count_densities
#: calls per counting class)
PINS = {
    ("maxSD", "qwh-15", 0, "dfs"): (0, {"AllDifferent": 110}),
    ("maxSD", "qwh-15", 0, "lds"): (0, {"AllDifferent": 110}),
    ("maxSD", "qwh-15", 0, "restart"): (0, {"AllDifferent": 107}),
    ("maxSD", "qwh-15", 1, "dfs"): (0, {"AllDifferent": 76}),
    ("maxSD", "qwh-15", 1, "lds"): (0, {"AllDifferent": 76}),
    ("maxSD", "qwh-15", 1, "restart"): (1, {"AllDifferent": 86}),
    ("maxSD", "magic-4", 0, "dfs"): (42, {"AllDifferent": 46, "Knapsack": 312}),
    ("maxSD", "magic-4", 0, "lds"): (193, {"AllDifferent": 365, "Knapsack": 2517}),
    ("maxSD", "magic-4", 0, "restart"): (71, {"AllDifferent": 82, "Knapsack": 603}),
    ("maxSD", "magic-4", 1, "dfs"): (7, {"AllDifferent": 12, "Knapsack": 102}),
    ("maxSD", "magic-4", 1, "lds"): (3, {"AllDifferent": 11, "Knapsack": 95}),
    ("maxSD", "magic-4", 1, "restart"): (10, {"AllDifferent": 19, "Knapsack": 157}),
    ("minSCMaxSD", "qwh-15", 0, "dfs"): (0, {"AllDifferent": 84}),
    ("minSCMaxSD", "qwh-15", 0, "lds"): (0, {"AllDifferent": 84}),
    ("minSCMaxSD", "qwh-15", 0, "restart"): (1, {"AllDifferent": 74}),
    ("minSCMaxSD", "qwh-15", 1, "dfs"): (0, {"AllDifferent": 53}),
    ("minSCMaxSD", "qwh-15", 1, "lds"): (0, {"AllDifferent": 53}),
    ("minSCMaxSD", "qwh-15", 1, "restart"): (0, {"AllDifferent": 53}),
    ("minSCMaxSD", "magic-4", 0, "dfs"): (1, {"AllDifferent": 4, "Knapsack": 36}),
    ("minSCMaxSD", "magic-4", 0, "lds"): (2, {"AllDifferent": 6, "Knapsack": 56}),
    ("minSCMaxSD", "magic-4", 0, "restart"): (1, {"AllDifferent": 5, "Knapsack": 43}),
    ("minSCMaxSD", "magic-4", 1, "dfs"): (5, {"AllDifferent": 9, "Knapsack": 76}),
    ("minSCMaxSD", "magic-4", 1, "lds"): (47, {"AllDifferent": 97, "Knapsack": 785}),
    ("minSCMaxSD", "magic-4", 1, "restart"): (16, {"AllDifferent": 23, "Knapsack": 191}),
    ("aAvgSD", "qwh-15", 0, "dfs"): (0, {"AllDifferent": 96}),
    ("aAvgSD", "qwh-15", 0, "lds"): (0, {"AllDifferent": 96}),
    ("aAvgSD", "qwh-15", 0, "restart"): (0, {"AllDifferent": 109}),
    ("aAvgSD", "qwh-15", 1, "dfs"): (0, {"AllDifferent": 76}),
    ("aAvgSD", "qwh-15", 1, "lds"): (0, {"AllDifferent": 76}),
    ("aAvgSD", "qwh-15", 1, "restart"): (2, {"AllDifferent": 84}),
    ("aAvgSD", "magic-4", 0, "dfs"): (36, {"AllDifferent": 40, "Knapsack": 301}),
    ("aAvgSD", "magic-4", 0, "lds"): (31, {"AllDifferent": 65, "Knapsack": 490}),
    ("aAvgSD", "magic-4", 0, "restart"): (58, {"AllDifferent": 65, "Knapsack": 467}),
    ("aAvgSD", "magic-4", 1, "dfs"): (200, {"AllDifferent": 203, "Knapsack": 1363}),
    ("aAvgSD", "magic-4", 1, "lds"): (44, {"AllDifferent": 97, "Knapsack": 727}),
    ("aAvgSD", "magic-4", 1, "restart"): (200, {"AllDifferent": 210, "Knapsack": 1465}),
    ("domWDeg+maxSD", "qwh-15", 0, "dfs"): (1, {"AllDifferent": 14}),
    ("domWDeg+maxSD", "qwh-15", 0, "lds"): (1, {"AllDifferent": 20}),
    ("domWDeg+maxSD", "qwh-15", 0, "restart"): (1, {"AllDifferent": 14}),
    ("domWDeg+maxSD", "qwh-15", 1, "dfs"): (1, {"AllDifferent": 8}),
    ("domWDeg+maxSD", "qwh-15", 1, "lds"): (1, {"AllDifferent": 7}),
    ("domWDeg+maxSD", "qwh-15", 1, "restart"): (1, {"AllDifferent": 8}),
    ("domWDeg+maxSD", "magic-4", 0, "dfs"): (1, {"AllDifferent": 5, "Knapsack": 14}),
    ("domWDeg+maxSD", "magic-4", 0, "lds"): (2, {"AllDifferent": 8, "Knapsack": 22}),
    ("domWDeg+maxSD", "magic-4", 0, "restart"): (1, {"AllDifferent": 5, "Knapsack": 14}),
    ("domWDeg+maxSD", "magic-4", 1, "dfs"): (15, {"AllDifferent": 19, "Knapsack": 57}),
    ("domWDeg+maxSD", "magic-4", 1, "lds"): (55, {"AllDifferent": 118, "Knapsack": 343}),
    ("domWDeg+maxSD", "magic-4", 1, "restart"): (32, {"AllDifferent": 38, "Knapsack": 116}),
}


@pytest.fixture
def count_calls(monkeypatch):
    """Counts each counting class's ``count_densities`` calls."""
    calls = Counter()
    for cls in COUNTING:
        count = cls.__dict__["count_densities"]

        def counted(self, model, count=count, name=cls.__name__):
            calls[name] += 1
            return count(self, model)

        monkeypatch.setattr(cls, "count_densities", counted)
    return calls


@pytest.mark.parametrize("heuristic,instance,seed,driver", list(PINS))
def test_recounts_are_pinned(count_calls, heuristic, instance, seed, driver):
    model = build_model(INSTANCES[instance](seed))
    stats = DRIVERS[driver](model, make_heuristic(heuristic, model, random.Random(seed)))
    assert (stats.backtracks, dict(count_calls)) == PINS[heuristic, instance, seed, driver]
