"""The trailed layered graph of Regular and exact Knapsack against a fresh
build: after any sequence of decisions, levels and backtracks, counting
and filtering on the synced graph give exactly what a newly made
constraint gives on the same domains.  After every step each slot's
sparse set holds exactly its live arcs, and the path counts over the
live prefixes equal a scan of every arc."""

import random
from itertools import compress

from hypothesis import given, settings
from hypothesis import strategies as st

from countsearch.bench import build_model, generate_marketsplit
from countsearch.engine import CONSISTENT, Model
from countsearch.knapsack import Knapsack
from countsearch.regular import Automaton, Regular

SYMBOLS = range(4)


class RecordingModel(Model):
    """A model that lists every value it removes, in order."""

    def __init__(self):
        super().__init__()
        self.removed = []

    def remove_value(self, var, value, cause=None):
        if value in self._domains[var.index]:
            self.removed.append((var.index, value))
        return super().remove_value(var, value, cause)


class Shadow(Model):
    """Reads another model's live domain sets and lists the values a
    constraint removes without removing them.

    A set's iteration order depends on its history of removals and
    re-insertions, and filtering and densities follow it, so a fresh
    constraint must see the very sets the synced one sees.
    """

    def __init__(self, live):
        super().__init__()
        self._domains = live._domains
        self.variables = live.variables
        self.removed = []

    def remove_value(self, var, value, cause=None):
        key = (var.index, value)
        if value in self._domains[var.index] and key not in self.removed:
            self.removed.append(key)
        gone = {d for vi, d in self.removed if vi == var.index}
        return not self._domains[var.index] <= gone


@st.composite
def automata(draw):
    n_states = draw(st.integers(1, 4))
    states = st.integers(0, n_states - 1)
    transitions = draw(
        st.dictionaries(st.tuples(states, st.sampled_from(SYMBOLS)), states)
    )
    accepting = draw(st.lists(states, min_size=1, max_size=n_states))
    return Automaton(transitions, 0, accepting)


@st.composite
def graph_models(draw):
    """Variables over subsets of SYMBOLS, one Regular or exact Knapsack
    over a scope that may repeat variables, posted or not, and a maker
    for a fresh copy of that constraint on any model's variables."""
    domains = draw(
        st.lists(
            st.sets(st.sampled_from(SYMBOLS), min_size=1), min_size=1, max_size=5
        )
    )
    scope = draw(
        st.lists(st.integers(0, len(domains) - 1), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        automaton = draw(automata())

        def make(xs):
            return Regular([xs[i] for i in scope], automaton)

    else:
        size = len(scope)
        coeffs = draw(st.lists(st.integers(-3, 4), min_size=size, max_size=size))
        lower = draw(st.integers(-6, 12))
        upper = lower + draw(st.integers(0, 8))

        def make(xs):
            return Knapsack([xs[i] for i in scope], coeffs, lower, upper)

    model = RecordingModel()
    xs = [model.new_variable(d) for d in domains]
    constraint = make(xs)
    if draw(st.booleans()):
        model.add(constraint)
    return model, xs, constraint, make


def _reference_path_counts(graph):
    """``LayeredGraph.path_counts`` as a scan of every arc of each layer,
    live or dead, that skips the dead ones by their ``alive`` flag."""
    weights = [0] * len(graph.values)
    if graph.start < 0:
        return 0, weights
    src, dst, slot, alive = graph.src, graph.dst, graph.slot, graph.alive
    slot_start, layer_slot = graph.slot_start, graph.layer_slot
    n = len(graph.outdeg)
    ip = [0] * n
    ip[graph.start] = 1
    for i in range(graph.k):
        lo, hi = slot_start[layer_slot[i]], slot_start[layer_slot[i + 1]]
        for u, w in compress(zip(src[lo:hi], dst[lo:hi]), alive[lo:hi]):
            ip[w] += ip[u]
    op = [0] * graph.final + [1] * (n - graph.final)
    for i in range(graph.k - 1, -1, -1):
        lo, hi = slot_start[layer_slot[i]], slot_start[layer_slot[i + 1]]
        arcs = zip(slot[lo:hi], src[lo:hi], dst[lo:hi])
        for s, u, w in compress(arcs, alive[lo:hi]):
            x = op[w]
            op[u] += x
            weights[s] += ip[u] * x
    return op[graph.start], weights


def _assert_graph_state(graph):
    """Each slot's arc range of ``order`` is a permutation of its arcs
    whose first ``support[s]`` are exactly the live ones, ``where``
    inverts ``order``, and the path counts equal the all-arc scan."""
    order, where, alive = graph.order, graph.where, graph.alive
    assert [order[p] for p in where] == list(range(len(order)))
    starts = graph.slot_start
    for s, (lo, hi) in enumerate(zip(starts, starts[1:])):
        assert sorted(order[lo:hi]) == list(range(lo, hi))
        live = sorted(order[lo : lo + graph.support[s]])
        assert live == [a for a in range(lo, hi) if alive[a]]
    assert graph.path_counts() == _reference_path_counts(graph)


def _assert_counts_match(model, xs, constraint, make):
    want = make(xs).count_densities(Shadow(model))
    got = constraint.count_densities(model)
    assert got.log_count == want.log_count
    assert list(got.densities.items()) == list(want.densities.items())
    _assert_graph_state(constraint._graph)


@settings(max_examples=400, deadline=None)
@given(graph_models(), st.data())
def test_synced_graph_matches_a_fresh_build(setup, data):
    model, xs, constraint, make = setup
    if data.draw(st.booleans()):
        # else the graph is first built above the root, and dropped by a
        # backtrack to it
        _assert_counts_match(model, xs, constraint, make)
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(["decide", "level", "backtrack", "filter"]))
        if step == "decide":
            free = [x for x in xs if model.size(x) > 1]
            if not free:
                continue
            x = data.draw(st.sampled_from(free))
            value = data.draw(st.sampled_from(sorted(model.domain(x))))
            kind = data.draw(st.sampled_from(["assign", "refute"]))
            if model.push_decision(kind, x, value) != CONSISTENT:
                model.backtrack_to(model.level - 1)
        elif step == "level":
            model.push_level()
        elif step == "backtrack":
            model.backtrack_to(data.draw(st.integers(0, model.level)))
        else:
            # filter at a new level, removing what a fresh constraint would
            shadow = Shadow(model)
            want = make(xs).propagate(shadow)
            model.push_level()
            del model.removed[:]
            assert constraint.propagate(model) == want
            assert model.removed == shadow.removed
            if not want:
                model.backtrack_to(model.level - 1)
        _assert_counts_match(model, xs, constraint, make)


def test_market_split_graphs_through_a_deep_search():
    """The three exact knapsacks of a benchmark market split, whose
    decisions cascade through most of each graph's arcs, checked after
    every decision, refutation and backtrack of a seeded walk."""
    model = build_model(generate_marketsplit(3, 0))
    graphs = model.constraints
    assert model.propagate() == CONSISTENT
    rng = random.Random(0)
    steps = {"assign": 0, "refute": 0, "wipeout": 0, "backtrack": 0}
    for _ in range(60):
        free = [x for x in model.variables if model.size(x) > 1]
        if free and (model.level == 0 or rng.random() < 0.75):
            x = rng.choice(free)
            kind = rng.choice(["assign", "refute"])
            steps[kind] += 1
            if model.push_decision(kind, x, rng.choice(sorted(model.domain(x)))) != CONSISTENT:
                steps["wipeout"] += 1
                model.backtrack_to(model.level - 1)
        else:
            steps["backtrack"] += 1
            model.backtrack_to(rng.randrange(model.level))
        for c in graphs:
            c.count_densities(model)
            _assert_graph_state(c._graph)
    assert min(steps.values()) > 0
