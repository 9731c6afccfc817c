"""What the trail keeps of a superseded density table.

A table a score rule has ranked (``DensityTable.least_keys``) goes on the
trail without its densities, as a copy that keeps its count and least
keys; a table no rule ranked goes on whole.  A restored copy recounts
its densities from its constraint on first read, on the domains it was
counted on, so the recount equals a fresh count bit for bit and trails
nothing.
"""

import gc
import random
import weakref

import pytest

from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.bench import build_model, generate_magic, generate_qwh
from countsearch.engine import _T_CACHE, CONSISTENT, Model
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import _sd_keys, make_heuristic
from countsearch.knapsack import GAUSSIAN, Knapsack
from countsearch.regular import Automaton, Regular
from countsearch.search import dfs

SEARCHES = {
    "qwh-17-s2": lambda: build_model(generate_qwh(17, 0.42, 2)),
    "magic-4-s0": lambda: build_model(generate_magic(4, seed=0)),
}


def _trailed_tables(model):
    return [e[2] for e in model._trail if e[0] == _T_CACHE and e[2] is not None]


def _search_checking_the_trail(make, heuristic_name, check):
    """dfs under ``heuristic_name``, calling ``check(model)`` before each
    pick; the search's backtracks."""
    model = make()
    heuristic = make_heuristic(heuristic_name, model, random.Random(0))
    choose = heuristic.choose

    def checked(m, randomized=False):
        check(m)
        return choose(m, randomized)

    heuristic.choose = checked
    return dfs(model, heuristic, backtrack_limit=200).backtracks


@pytest.mark.parametrize("make", list(SEARCHES.values()), ids=list(SEARCHES))
def test_maxsd_trails_ranked_tables_without_densities(make):
    ranked = []

    def check(model):
        for table in _trailed_tables(model):
            if table._least is not None:
                assert "densities" not in vars(table)
                ranked.append(table)

    assert _search_checking_the_trail(make, "maxSD", check) > 0
    assert ranked


@pytest.mark.parametrize("make", list(SEARCHES.values()), ids=list(SEARCHES))
def test_aavgsd_trails_whole_tables(make):
    seen = []

    def check(model):
        for table in _trailed_tables(model):
            assert table._least is None
            assert "densities" in vars(table)
            seen.append(table)

    _search_checking_the_trail(make, "aAvgSD", check)
    assert seen


#: no two neighbours equal, over the values 1..6
NO_REPEAT = Automaton(
    {(s, d): d for s in range(7) for d in range(1, 7) if s != d}, 0, range(1, 7)
)

KINDS = {
    "alldiff": AllDifferent,
    "symmetric": SymmetricAllDifferent,
    "gcc": lambda xs: GlobalCardinality(xs, {3: 1}, {1: 1, 2: 2, 3: 2}),
    "regular": lambda xs: Regular(xs, NO_REPEAT),
    "knapsack": lambda xs: Knapsack(xs, [1, 2, 3, 1, 2, 3], 20, 26),
    "gaussian": lambda xs: Knapsack(xs, [1, 2, 3, 1, 2, 3], 20, 26, mode=GAUSSIAN),
}


def _bits(table):
    return table.log_count.hex(), {k: s.hex() for k, s in table.densities.items()}


@pytest.mark.parametrize("make", list(KINDS.values()), ids=list(KINDS))
def test_a_restored_copy_recounts_the_dropped_table(make):
    m = Model()
    xs = [m.new_variable(range(1, 7)) for _ in range(6)]
    c = m.add(make(xs))
    assert m.propagate() == CONSISTENT
    assert m.push_decision("refute", xs[0], max(m.domain(xs[0]))) == CONSISTENT
    table = m.density_table(c)
    table.least_keys(_sd_keys, m._domains)
    dropped = _bits(table)
    assert m.push_decision("refute", xs[1], min(m.domain(xs[1]))) == CONSISTENT
    m.backtrack_to(1)
    copy = c.cache
    assert copy is not table and "densities" not in vars(copy)
    assert copy._least == table._least
    trail = len(m._trail)
    assert _bits(copy) == dropped
    assert len(m._trail) == trail
    assert _bits(make(xs).count_densities(m)) == dropped


def test_the_copies_add_no_reference_cycle():
    """A searched model, with ranked copies on its trail, is freed by
    reference counting alone."""
    model = build_model(generate_magic(4, seed=0))
    heuristic = make_heuristic("maxSD", model, random.Random(0))
    enabled = gc.isenabled()
    gc.disable()
    try:
        dfs(model, heuristic, backtrack_limit=5)
        for _ in range(3):
            var, value = heuristic.choose(model)
            model.push_decision("assign", var, value)
        assert any(t._least is not None for t in _trailed_tables(model))
        ref = weakref.ref(model)
        del model, heuristic, var
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
