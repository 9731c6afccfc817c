"""Regular constraint: layered graph, filtering, exact counting."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countsearch.engine import CONSISTENT, WIPEOUT, Model
from countsearch.knapsack import Knapsack, build_sum_graph
from countsearch.oracle import exact_count_densities
from countsearch.regular import Automaton, Regular, build_layered_graph, layered_graph

from conftest import random_automaton, random_domains


def stretch_dfa():
    """Accepts binary words with no two consecutive ones."""
    trans = {
        ("ok", 0): "ok",
        ("ok", 1): "one",
        ("one", 0): "ok",
    }
    return Automaton(trans, "ok", ["ok", "one"])


def test_automaton_accepts():
    a = stretch_dfa()
    assert a.accepts([0, 1, 0, 1])
    assert not a.accepts([0, 1, 1, 0])
    assert a.accepts([])  # initial state is accepting


def test_layered_graph_counts_fibonacci():
    # words of length k over {0,1} avoiding "11" are counted by F(k+2)
    a = stretch_dfa()
    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 8):
        graph = build_layered_graph(a, [{0, 1}] * k)
        assert graph.path_counts()[0] == fib[k + 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_layered_graph(stretch_dfa(), [{0, 1}] * 5),
        lambda: build_sum_graph(
            (3, 1, 2, 1), [{0, 1, 2}, {0, 1, 3}, {0, 1, 2}, {1, 2}], 5, 8
        ),
    ],
    ids=["regular", "knapsack"],
)
def test_layered_graph_weights_partition_count(build):
    # every path crosses each layer once: density_table divides by count
    graph = build()
    count, weights = graph.path_counts()
    assert count > 0
    for index in graph.slot_index:
        assert sum(weights[s] for s in index.values()) == count


def _sum_automaton(coeffs, domains, lower, upper):
    """An automaton over (layer, partial sum) states that accepts exactly
    the words whose weighted sum lies in [lower, upper]."""
    transitions = {}
    layer = {0}
    for i, (c, dom) in enumerate(zip(coeffs, domains)):
        nxt = set()
        for b in layer:
            for d in dom:
                transitions[(i, b), d] = (i + 1, b + c * d)
                nxt.add(b + c * d)
        layer = nxt
    accepting = [(len(domains), b) for b in layer if lower <= b <= upper]
    return Automaton(transitions, (0, 0), accepting)


def _layer_weights(graph):
    count, weights = graph.path_counts()
    slots = {
        (i, d): weights[s]
        for i, index in enumerate(graph.slot_index)
        for d, s in index.items()
    }
    return count, slots, graph.empty()


@st.composite
def _sum_cases(draw):
    k = draw(st.integers(0, 5))
    coeffs = draw(st.lists(st.integers(-3, 4), min_size=k, max_size=k))
    domains = draw(
        st.lists(st.sets(st.integers(0, 3), min_size=1), min_size=k, max_size=k)
    )
    lower = draw(st.integers(-6, 12))
    return coeffs, domains, lower, lower + draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(_sum_cases())
# two 0/1 terms never sum to 5: no path survives
@example(([1, 1], [{0, 1}, {0, 1}], 5, 6))
def test_sum_graph_equals_partial_sum_automaton_graph(case):
    """Both front-ends of the one builder give the same path count, the
    same weight per (layer, value) slot and the same ``empty()``."""
    coeffs, domains, lower, upper = case
    sums = build_sum_graph(coeffs, domains, lower, upper)
    words = build_layered_graph(_sum_automaton(coeffs, domains, lower, upper), domains)
    assert _layer_weights(sums) == _layer_weights(words)


def _step_graph(automaton, domains):
    """The reference builder: one transition lookup per (state, domain
    value)."""
    step = automaton.transitions.get

    def successors(i, state, dom):
        return [(d, nxt) for d in dom if (nxt := step((state, d))) is not None]

    return layered_graph(
        automaton.initial, successors, automaton.accepting.__contains__, domains
    )


class _StepRegular(Regular):
    def build_graph(self, domains):
        return _step_graph(self.automaton, domains)


def _filter_removals(regular_class, automaton, domains, scope, pick):
    """Every removal (variable index, value) and verdict of two
    ``graph_filter`` calls: on the domains, then once a value chosen by
    ``pick`` has left one of them, which syncs the graph."""
    m = Model()
    xs = [m.new_variable(set(d)) for d in domains]
    c = regular_class([xs[i] for i in scope], automaton)
    removed = []
    remove = m.remove_value

    def recording(var, value, cause=None):
        removed.append((var.index, value))
        return remove(var, value, cause)

    m.remove_value = recording
    verdicts = [c.graph_filter(m)]
    open_vars = [x for x in xs if len(m.domain(x)) > 1]
    if verdicts[0] and open_vars:
        x = open_vars[pick % len(open_vars)]
        values = sorted(m.domain(x))
        remove(x, values[pick % len(values)])
        verdicts.append(c.graph_filter(m))
    return verdicts, removed


@st.composite
def _partial_automaton_cases(draw):
    """A partial automaton over symbols 0..5 whose domains hold only 0..3,
    so symbols 4 and 5 are in no domain; states may have no out-arcs, and
    accepting state ``n_states`` is never reached.  The scope may be empty
    and may repeat a variable."""
    n_states = draw(st.integers(1, 5))
    states = st.integers(0, n_states - 1)
    transitions = draw(
        st.dictionaries(st.tuples(states, st.integers(0, 5)), states, max_size=16)
    )
    accepting = draw(st.lists(st.integers(0, n_states), max_size=n_states + 1))
    domains = draw(
        st.lists(st.sets(st.integers(0, 3), min_size=1), min_size=1, max_size=4)
    )
    scope = draw(st.lists(st.integers(0, len(domains) - 1), max_size=6))
    pick = draw(st.integers(0, 99))
    return Automaton(transitions, 0, accepting), domains, scope, pick


@settings(max_examples=400, deadline=None)
@given(_partial_automaton_cases())
# the empty scope: one path exactly when the initial state accepts
@example((Automaton({(0, 1): 1}, 0, [0]), [{0, 1}], [], 0))
# a variable filling two layers, and a state with no out-arcs
@example((Automaton({(0, 0): 1, (0, 1): 0}, 0, [0, 1]), [{0, 1}], [0, 0], 1))
# the only accepting state is unreachable
@example((Automaton({(0, 0): 0, (0, 4): 1}, 0, [2]), [{0, 1}, {0}], [0, 1], 0))
def test_arc_list_graph_equals_stepped_graph(case):
    """The builder reading ``Automaton.arcs`` and a builder stepping the
    automaton once per domain value give the same path count, the same
    weight per (layer, value), the same ``empty()`` and the same
    ``graph_filter`` removals in the same order."""
    automaton, domains, scope, pick = case
    layers = [domains[i] for i in scope]
    built = build_layered_graph(automaton, layers)
    assert _layer_weights(built) == _layer_weights(_step_graph(automaton, layers))
    assert _filter_removals(Regular, automaton, domains, scope, pick) == (
        _filter_removals(_StepRegular, automaton, domains, scope, pick)
    )


@pytest.mark.parametrize(
    "domains, post",
    [
        # the only word is 1 1, which has two consecutive ones
        ([{1}, {1}], lambda xs: Regular(xs, stretch_dfa())),
        # two 0/1 terms never sum to 5
        ([{0, 1}, {0, 1}], lambda xs: Knapsack(xs, [1, 1], 5, 5)),
    ],
    ids=["regular", "knapsack"],
)
def test_infeasible_domains_give_zero_density_table(domains, post):
    m = Model()
    xs = [m.new_variable(set(d)) for d in domains]
    c = m.add(post(xs))
    table = c.count_densities(m)
    assert table.log_count == -math.inf
    assert table.densities == {
        (x.index, d): 0.0 for x, dom in zip(xs, domains) for d in dom
    }


def test_filter_reaches_domain_consistency():
    rng = random.Random(31)
    for _ in range(60):
        symbols = list(range(rng.randint(2, 3)))
        a = random_automaton(rng, rng.randint(2, 4), symbols)
        n = rng.randint(2, 5)
        domains = [
            set(rng.sample(symbols, rng.randint(1, len(symbols))))
            for _ in range(n)
        ]
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        c = m.add(Regular(xs, a))
        status = m.propagate()
        count, dens = exact_count_densities(c, domains)
        if count == 0:
            assert status == WIPEOUT
            continue
        assert status == CONSISTENT
        for i, x in enumerate(xs):
            supported = {d for (vi, d) in dens if vi == x.index}
            assert m.domain(x) == supported


def test_counts_and_densities_match_oracle():
    rng = random.Random(17)
    checked = 0
    for _ in range(80):
        symbols = list(range(rng.randint(2, 3)))
        a = random_automaton(rng, rng.randint(2, 4), symbols)
        n = rng.randint(2, 5)
        domains = [
            set(rng.sample(symbols, rng.randint(1, len(symbols))))
            for _ in range(n)
        ]
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        c = m.add(Regular(xs, a))
        if m.propagate() == WIPEOUT:
            continue
        checked += 1
        pruned = [m.domain(x) for x in xs]
        count, dens = exact_count_densities(c, pruned)
        table = m.collect_densities()[0]
        assert math.exp(table.log_count) == pytest.approx(count, rel=1e-12)
        for (vi, d), frac in dens.items():
            x = m.variables[vi]
            assert table.density(x, d) == pytest.approx(float(frac), abs=1e-12)
    assert checked > 20


def test_single_block_clue_densities():
    # one block of length 1 in 3 cells: 3 accepted words, value 1 appears
    # exactly once per word so sigma(x_i, 1) = 1/3 at every position
    trans = {
        ("a", 0): "a",
        ("a", 1): "b",
        ("b", 0): "b",
    }
    a = Automaton(trans, "a", ["b"])
    m = Model()
    xs = [m.new_variable({0, 1}) for _ in range(3)]
    m.add(Regular(xs, a))
    m.propagate()
    table = m.collect_densities()[0]
    assert math.exp(table.log_count) == pytest.approx(3.0)
    for x in xs:
        assert table.density(x, 1) == pytest.approx(1 / 3)
        assert table.density(x, 0) == pytest.approx(2 / 3)


def test_wipeout_on_empty_language():
    a = Automaton({("q", 0): "q"}, "q", ["r"])  # accepting state unreachable
    m = Model()
    xs = [m.new_variable({0}) for _ in range(2)]
    m.add(Regular(xs, a))
    assert m.propagate() == WIPEOUT


def test_incremental_consistency_under_assignment():
    # assigning mid-sequence re-filters both sides of the word
    a = stretch_dfa()
    m = Model()
    xs = [m.new_variable({0, 1}) for _ in range(4)]
    m.add(Regular(xs, a))
    assert m.propagate() == CONSISTENT
    assert m.push_decision("assign", xs[1], 1) == CONSISTENT
    assert m.domain(xs[0]) == {0}
    assert m.domain(xs[2]) == {0}


def test_check_agrees_with_membership():
    rng = random.Random(9)
    a = stretch_dfa()
    m = Model()
    xs = [m.new_variable({0, 1}) for _ in range(5)]
    c = m.add(Regular(xs, a))
    for word in itertools.product([0, 1], repeat=5):
        assert c.check(word) == a.accepts(word)
