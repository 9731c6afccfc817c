"""alldifferent and symmetric_alldifferent: filtering and counting."""

import math
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countsearch.alldiff import (
    AllDifferent,
    SymmetricAllDifferent,
    alldiff_density_table,
    regin_dead_arcs,
    sym_matching_log_bound,
)
from countsearch.engine import _T_UNDO, CONSISTENT, FORWARD_CHECKING, WIPEOUT, Model
from countsearch.factors import bm_log_factor, lb_log_bound
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import Dom
from countsearch.oracle import exact_count_densities
from countsearch.search import SAT, dfs

from brute_force import count_perfect_matchings, exact_permanent
from conftest import random_domains


def _post(domains, consistency="domain"):
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = m.add(AllDifferent(xs, consistency))
    return m, xs, c


# ----------------------------------------------------------------------
# filtering
# ----------------------------------------------------------------------
def test_domain_consistency_matches_oracle_supports():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        values = list(range(1, n + 2))
        domains = [
            set(rng.sample(values, rng.randint(1, len(values))))
            for _ in range(n)
        ]
        m, xs, c = _post([set(d) for d in domains])
        status = m.propagate()
        count, dens = exact_count_densities(c, domains)
        if count == 0:
            assert status == WIPEOUT
            continue
        assert status == CONSISTENT
        for i, x in enumerate(xs):
            supported = {d for (vi, d) in dens if vi == x.index}
            assert m.domain(x) == supported


def test_forward_checking_removes_bound_values_only():
    m, xs, _ = _post([{1}, {1, 2}, {1, 2, 3}], FORWARD_CHECKING)
    assert m.propagate() == CONSISTENT
    assert m.domain(xs[1]) == {2}
    assert m.domain(xs[2]) == {3}  # cascaded forward checking


def test_pigeonhole_wipeout():
    m, _, _ = _post([{1, 2}, {1, 2}, {1, 2}])
    assert m.propagate() == WIPEOUT


def test_bound_variable_twice_in_scope_wipes_out():
    # the value graph keeps both occurrences of a bound variable whose
    # value another domain holds, here its own second occurrence
    m = Model()
    x = m.new_variable({1})
    y = m.new_variable({1, 2})
    m.add(AllDifferent([x, y, x]))
    assert m.propagate() == WIPEOUT


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=8),
             min_size=1, max_size=8),
    st.lists(st.integers(0, 7), max_size=2),
    st.sampled_from([FORWARD_CHECKING, "domain"]),
)
@example([{1}, {1, 2}, {1, 2, 3}], [], FORWARD_CHECKING)  # cascading binds
@example([{1, 2}, {1, 2}, {2, 3}, {3, 4, 5}], [], "domain")
@example([{1, 2}, {2, 3}], [0], "domain")  # a variable twice in the scope
def test_propagate_is_idempotent(domains, repeats, consistency):
    """After a call that returns True, a second call removes nothing: the
    engine relies on this to skip a wakeup by the call's own removals."""
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    scope = xs + [xs[i % len(xs)] for i in repeats]
    c = AllDifferent(scope, consistency)
    if not c.propagate(m):
        return
    after = [m.domain(x) for x in xs]
    trail = len(m._trail)
    assert c.propagate(m)
    assert [m.domain(x) for x in xs] == after
    assert len(m._trail) == trail


def _reference_forward_check(c, model, quota=lambda value: 1):
    """Forward checking as passes over the whole scope, each counting the
    values over the scope's domains first: the removals and their order
    that ``alldiff.forward_check`` must reproduce.  In each pass every
    bound position whose value had reached its quota, at the start or
    when the position was bound, sweeps that value from the domains in
    scope order.  A sweep skips its own position when the quota is at
    least 1, and the positions bound to the value while no more of them
    than the quota are.  AllDifferent's quota is 1; returns the counts of
    the last pass, or None on wipeout."""
    doms = c._domains(model)

    def reached(value):
        return sum(dom == {value} for dom in doms) >= quota(value)

    armed = [len(dom) == 1 and reached(next(iter(dom))) for dom in doms]
    changed = True
    while changed:
        changed = False
        counts = Counter(chain.from_iterable(doms))
        for i, dom in enumerate(doms):
            if not armed[i]:
                continue
            value = next(iter(dom))
            cap = quota(value)
            for k, odom in enumerate(doms):
                if value not in odom or len(odom) == 1 and (
                    k == i and cap > 0 or sum(d == {value} for d in doms) <= cap
                ):
                    continue
                was_unbound = len(odom) > 1
                if not model.remove_value(c.scope[k], value, c):
                    return None
                if was_unbound and len(odom) == 1:
                    changed = True
                    if reached(next(iter(odom))):
                        for t, tdom in enumerate(doms):
                            armed[t] = armed[t] or tdom is odom
    return counts


def _reference_regin_filter(c, model, counts):
    """Regin's filter on every position but the bound ones whose value no
    other domain held at the start of the last forward-checking pass."""
    scope = []
    doms = []
    for var, dom in zip(c.scope, c._domains(model)):
        if len(dom) == 1 and counts[next(iter(dom))] == 1:
            continue
        scope.append(var)
        doms.append(dom)
    dead = regin_dead_arcs(doms)
    if dead is None:
        return False
    for x, d in dead:
        if not model.remove_value(scope[x], d, c):
            return False
    return True


def _reference_propagate(c, model):
    counts = _reference_forward_check(c, model)
    if counts is None:
        return False
    if c.consistency == "domain":
        return _reference_regin_filter(c, model, counts)
    return True


@st.composite
def _propagate_cases(draw):
    """Up to 9 variables with domains of 1-4 values out of 8, a scope of
    up to 12 positions that may repeat a variable, a consistency level,
    and removals to make before propagating (none that would empty a
    domain)."""
    domains = draw(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                            min_size=1, max_size=9))
    scope = draw(st.lists(st.integers(0, len(domains) - 1), min_size=1, max_size=12))
    consistency = draw(st.sampled_from([FORWARD_CHECKING, "domain"]))
    removals = draw(st.lists(st.tuples(st.integers(0, len(domains) - 1),
                                       st.integers(0, 7)), max_size=6))
    return domains, scope, consistency, removals


def _chain(n, reverse):
    """x_i in {i, i+1} with x_{n-1} = n - 1: a cascade that binds every
    variable, run with or against scope order."""
    doms = [{i, i + 1} for i in range(n - 1)] + [{n - 1}]
    return (doms[::-1] if reverse else doms), list(range(n)), FORWARD_CHECKING, []


@settings(max_examples=500, deadline=None)
@given(_propagate_cases())
@example(_chain(8, reverse=False))
@example(_chain(8, reverse=True))
# x0 fills positions 0 and 3: sweeping position 1 binds it behind and
# ahead of the sweep at once, and position 3 wipes out in the same pass,
# before position 0 could sweep 2 from position 2
@example(([{1, 2}, {1}, {2, 3}], [0, 1, 2, 0], FORWARD_CHECKING, []))
@example(([{1}, {1}, {1, 2}], [2, 0, 1], "domain", []))  # two bound equal values
@example(([{1, 2}, {1, 2}, {1, 2, 3}, {3, 4}], [0, 1, 2, 3], "domain", [(3, 4)]))
def test_propagate_keeps_the_reference_removals_in_order(case):
    """Every removal (variable, value) and its order, the trail entry by
    entry, and the result equal those of the pass-by-pass reference."""
    domains, scope, consistency, removals = case
    runs = []
    for propagate in (lambda c, m: c.propagate(m), _reference_propagate):
        m = Model()
        xs = [m.new_variable(d) for d in domains]
        for x, value in removals:
            if m.domain(xs[x]) != {value}:
                m.remove_value(xs[x], value)
        c = AllDifferent([xs[k] for k in scope], consistency)
        runs.append((propagate(c, m), m._trail))
    assert runs[0] == runs[1]


class _CauseModel(Model):
    """A model that lists every removal (variable, value, cause)."""

    def __init__(self):
        super().__init__()
        self.removed = []

    def remove_value(self, var, value, cause=None):
        if value in self._domains[var.index]:
            self.removed.append((var.index, value, cause))
        return super().remove_value(var, value, cause)


@settings(max_examples=500, deadline=None)
@given(_propagate_cases())
# x1 fills positions 0 and 2: both remove 3 from x0 and then wipe out at x1
@example(([{0, 2, 3}, {3}], [1, 0, 1], FORWARD_CHECKING, []))
# sweeping x4 = 0 binds x3 to 3 ahead of x1 to 2, so 3 goes first
@example(([{1, 2, 3}, {0, 2}, {1, 2, 3}, {0, 3}, {0}], [0, 3, 4, 1],
          FORWARD_CHECKING, []))
def test_alldifferent_is_the_gcc_whose_every_upper_bound_is_one(case):
    """At forward checking an AllDifferent and a GlobalCardinality over
    the same scope, with upper bound 1 on every value and no lower bounds,
    give the same verdict and the same removals (variable, value) in the
    same order."""
    domains, scope, _, removals = case
    runs = []
    for post in (
        lambda xs: AllDifferent(xs, FORWARD_CHECKING),
        lambda xs: GlobalCardinality(xs, {}, dict.fromkeys(range(8), 1),
                                     FORWARD_CHECKING),
    ):
        m = _CauseModel()
        xs = [m.new_variable(d) for d in domains]
        for x, value in removals:
            if m.domain(xs[x]) != {value}:
                m.remove_value(xs[x], value)
        c = post([xs[k] for k in scope])
        mark = len(m.removed)
        verdict = c.propagate(m)
        runs.append((verdict, [(x, v, cause is c) for x, v, cause in m.removed[mark:]]))
    assert runs[0] == runs[1]


#: sparse, negative and huge labels for the values 0..7.  Each keeps its
#: value's hash modulo 1024, so a domain set of labels, whose table has
#: at most 1024 slots and no collision, iterates in the order of the set
#: of the values it relabels
_LABELS = {
    0: 10 ** 12,
    1: -1023,
    2: 2 + 7 * (2 ** 61 - 1),
    3: -7 * 1024 + 3,
    4: 999 * 1024 + 4,
    5: 2 ** 62 + 3,
    6: 6 - 2 ** 50,
    7: 1031,
}


@settings(max_examples=300, deadline=None)
@given(_propagate_cases())
@example(([{1, 2}, {1, 2}, {1, 2, 3}, {3, 4}], [0, 1, 2, 3], "domain", [(3, 4)]))
@example(([{0, 1}, {1, 2}, {2}], [0, 1, 2], "domain", []))  # a chain
def test_domain_filtering_does_not_depend_on_the_labels(case):
    """At domain consistency, relabelling the values 0..7 to sparse,
    negative and huge ints gives the same verdict and removes the
    relabelled pairs (variable, value) in the same order."""
    assert all(hash(label) % 1024 == v for v, label in _LABELS.items())
    domains, scope, _, removals = case
    runs = []
    for label in (int, _LABELS.__getitem__):
        m = _CauseModel()
        xs = [m.new_variable(map(label, d)) for d in domains]
        for x, value in removals:
            if m.domain(xs[x]) != {label(value)}:
                m.remove_value(xs[x], label(value))
        c = AllDifferent([xs[k] for k in scope], "domain")
        mark = len(m.removed)
        runs.append((c.propagate(m), [(x, v) for x, v, _ in m.removed[mark:]]))
    (verdict, removed), relabelled = runs
    assert relabelled == (verdict, [(x, _LABELS[v]) for x, v in removed])


def _open_positions(c):
    return set(c._open)


def _unbound_positions(c, m):
    return {k for k, x in enumerate(c.scope) if not m.is_bound(x)}


def _checked_propagate(c, m, twin):
    """``c.propagate(m)``, whose removals (variable, value, cause) in
    order and verdict must equal the reference's on a fresh constraint
    over ``twin``.  The twin model has gone through the same removals and
    restorations as ``m``, so its domains are the same sets and iterate in
    the same order: a copy would not, once a set has lost and regained a
    value."""
    ref = AllDifferent([twin.variables[x.index] for x in c.scope], c.consistency)
    mark, twin_mark = len(m.removed), len(twin.removed)
    verdict = c.propagate(m)
    assert verdict == _reference_propagate(ref, twin)
    assert [(x, v, cause is c) for x, v, cause in m.removed[mark:]] == [
        (x, v, cause is ref) for x, v, cause in twin.removed[twin_mark:]
    ]
    return verdict


@st.composite
def _search_walks(draw):
    """A propagate case (its removals left out) and up to 14 steps: assign
    or refute a value of some variable at a new level, or backtrack to
    some level."""
    domains, scope, consistency, _ = draw(_propagate_cases())
    steps = draw(st.lists(st.tuples(st.sampled_from(["assign", "refute", "back"]),
                                    st.integers(0, 8), st.integers(0, 7)),
                          max_size=14))
    return domains, scope, consistency, steps


@settings(max_examples=400, deadline=None)
@given(_search_walks())
# x0 fills positions 0 and 2: assigning it wipes out, and the level goes
@example(([{1, 2}, {2, 3}, {3, 4}], [0, 1, 0, 2], "domain",
          [("assign", 0, 0), ("assign", 1, 1), ("back", 0, 0), ("assign", 2, 1)]))
@example(([{1, 2}, {1, 2, 3}, {3, 4}, {4, 5}], [0, 1, 2, 3], FORWARD_CHECKING,
          [("assign", 0, 0), ("refute", 2, 0), ("back", 1, 0), ("refute", 3, 0),
           ("back", 0, 0), ("assign", 3, 0)]))
# x3 regains 1 and 5 on the backtrack, and its set then iterates 2, 5, 1
@example(([{0}, {1, 2, 5}, {0, 3, 6}, {1, 2, 5, 6}], [0, 1, 1, 2, 2, 3], "domain",
          [("assign", 3, 1), ("back", 0, 0), ("refute", 1, 1)]))
# the backtrack reopens position 1 behind position 2; sweeping x0 = 0 must
# still empty x3's domain of 0 (position 1) before x0's own (position 2)
@example(([{0, 1, 2}, {0}, {0}, {0, 1}], [0, 3, 0], FORWARD_CHECKING,
          [("assign", 3, 0), ("back", 0, 0), ("assign", 0, 0)]))
def test_open_positions_follow_push_and_backtrack(walk):
    """Through decisions, refutations, wipeouts and backtracks, every call
    removes what the reference removes on the same domains, in the same
    order, with the same verdict; the open positions are the unbound ones
    after each successful call, the same plus those a decision bound until
    the next call, and those of the level returned to after a backtrack.
    A second call right after a successful one touches no domain and no
    trail entry, above level 0 too."""
    domains, scope, consistency, steps = walk
    m, twin = _CauseModel(), _CauseModel()
    for model in (m, twin):
        for d in domains:
            model.new_variable(d)
    xs = m.variables
    c = AllDifferent([xs[k] for k in scope], consistency)
    if not _checked_propagate(c, m, twin):
        return
    # per level, the open positions it ends with
    expected = [_unbound_positions(c, m)]
    assert _open_positions(c) == expected[0]
    for kind, a, b in steps:
        if kind == "back":
            level = a % (m.level + 1)
            m.backtrack_to(level)
            twin.backtrack_to(level)
            del expected[level + 1:]
            assert _open_positions(c) == expected[-1]
            continue
        i = a % len(xs)
        dom = m.domain_sorted(xs[i])
        if kind == "refute" and len(dom) == 1:
            continue
        for model in (m, twin):
            model.push_level()
            if kind == "assign":
                model.assign(model.variables[i], dom[b % len(dom)])
            else:
                model.remove_value(model.variables[i], dom[b % len(dom)])
        assert _open_positions(c) == expected[-1]
        if not _checked_propagate(c, m, twin):
            m.backtrack_to(m.level - 1)
            twin.backtrack_to(twin.level - 1)
            assert _open_positions(c) == expected[-1]
            continue
        expected.append(_unbound_positions(c, m))
        assert _open_positions(c) == expected[-1]
        trail = list(m._trail)
        assert c.propagate(m)
        assert m._trail == trail


def _undo_entries(m):
    return [entry[0] for entry in m._trail].count(_T_UNDO)


def test_open_positions_are_trailed_above_level_zero_only():
    m, xs, c = _post([{1}, {1, 2}, {1, 2, 3}, {4, 5}, {4, 5}, {6, 7}, {6, 7}])
    assert c._open is None  # made at the first propagate
    assert c.propagate(m)  # x0 = 1 binds x1 to 2, which binds x2 to 3
    assert _open_positions(c) == {3, 4, 5, 6}
    assert _undo_entries(m) == 0
    root = [m.domain(x) for x in xs]
    m.push_level()
    m.assign(xs[3], 4)
    assert c.propagate(m)  # x3 = 4 binds x4 to 5
    assert _open_positions(c) == {5, 6}
    m.assign(xs[5], 6)
    assert c.propagate(m)  # x5 = 6 binds x6 to 7, at the same level
    assert _open_positions(c) == set()
    assert _undo_entries(m) == 2
    m.push_level()
    m.backtrack_to(1)  # a level that closed nothing reopens nothing
    assert _open_positions(c) == set()
    m.backtrack_to(0)
    assert _open_positions(c) == {3, 4, 5, 6}
    assert [m.domain(x) for x in xs] == root
    m.push_level()
    m.assign(xs[5], 7)
    assert c.propagate(m)
    assert _open_positions(c) == {3, 4}
    assert _undo_entries(m) == 1


def _covering_matchings(adj):
    """Every matching of the rows of ``adj`` that covers all of them, as
    the tuple of values the rows take."""
    def extend(x, taken):
        if x == len(adj):
            yield ()
            return
        for v in adj[x]:
            if v not in taken:
                for rest in extend(x + 1, taken | {v}):
                    yield (v,) + rest

    return extend(0, frozenset())


#: the values of a value graph: dense, sparse, negative (often -1, which
#: the matching uses as its mark for no row) and above 2**62
_GRAPH_VALUES = st.one_of(
    st.integers(0, 8),
    st.integers(-3, -1),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(2 ** 62, 2 ** 70),
)


@st.composite
def _value_graphs(draw):
    """Up to 7 rows over up to 9 values, some rows repeated (the same
    list), as GCC's dummy variables are."""
    values = draw(st.lists(_GRAPH_VALUES, unique=True, max_size=9))
    row = st.lists(st.sampled_from(values), unique=True) if values else st.just([])
    rows = draw(st.lists(row, max_size=7))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=7 - len(rows)))
    return rows


@settings(max_examples=400, deadline=None)
@given(_value_graphs())
@example([[0, 1], [1, 2], [2]])  # a chain: every non-diagonal arc dies
@example([[0, 1], [1, 2], [2, 3]])  # a free value at the end keeps all
@example([[0, 1], [0, 1], [1, 2, 3], [3, 4]])  # a cycle and a path
@example([[0, 1], [0, 1], [0, 1]])  # too few values
@example([[1, 2, 3], [0], [0]])  # enough values, no covering matching
@example([[-1, 2 ** 63], [2 ** 63, -7], [-7]])  # the chain, relabelled
@example([[-1, 10 ** 12], [-1, 10 ** 12], [2 ** 63, 10 ** 12, -1]])
@example([])
def test_regin_dead_arcs_are_the_arcs_no_matching_uses(adj):
    assert regin_dead_arcs(adj) == _unused_arcs(adj)


def _unused_arcs(adj):
    """The arcs of ``adj``, in scan order, that no covering matching
    uses; None when there is no covering matching."""
    arcs = [(x, v) for x, vs in enumerate(adj) for v in vs]
    used = set()
    found = False
    for values in _covering_matchings(adj):
        found = True
        used.update(enumerate(values))
        if len(used) == len(arcs):
            break
    return [a for a in arcs if a not in used] if found else None


_DUMMY = [2, 3]


@pytest.mark.parametrize(
    "adj,n_vals,dead",
    [
        # two components closed both ways: nothing dies, though the graph
        # is not strongly connected
        ([[0, 1], [0, 1], [2, 3], [2, 3]], 4, []),
        # x2 can take x0's or x1's value, and nothing leads back
        ([[0, 1], [0, 1], [1, 2, 3], [2, 3]], 4, [(2, 1)]),
        # x2 reaches a free value and has an arc into an unreached component
        ([[0, 1], [0, 1], [1, 2, 3]], 4, [(2, 1)]),
        # GCC's dummy variables share one row: closed, then entered by x1
        ([[0, 1], [0, 1], _DUMMY, _DUMMY], 4, []),
        ([[0, 1], [0, 1, 2], _DUMMY, _DUMMY], 4, [(1, 2)]),
    ],
)
def test_regin_dead_arcs_when_components_are_closed_or_entered(adj, n_vals, dead):
    # the first and fourth end at the closed-components check, the others
    # go on to Kosaraju; relabelling the values 0..n_vals - 1 to negative
    # multiples of 2**62 relabels the dead arcs and keeps their order
    assert _unused_arcs(adj) == dead
    assert regin_dead_arcs(adj) == dead
    label = {v: (v - n_vals) * 2 ** 62 for v in range(n_vals)}
    relabelled = [[label[v] for v in row] for row in adj]
    assert regin_dead_arcs(relabelled) == [(x, label[v]) for x, v in dead]


def test_regin_dead_arcs_on_long_chains():
    # no free value: x_i -> x_{i+1} is never on a cycle; one free value
    # past the end: every variable reaches it
    n = 3000
    chain = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    assert regin_dead_arcs(chain) == [(i, i + 1) for i in range(n - 1)]
    assert regin_dead_arcs([[i, i + 1] for i in range(n)]) == []


@pytest.mark.parametrize("kind", ["alldifferent", "gcc"])
def test_long_chain_binds_every_variable_in_one_propagate(kind):
    # x_i in {i, i+1} for i < n - 1 and x_{n-1} in {n - 1}: a greedy
    # matching solves it, and x_i = i is the only solution
    n = 3000
    m = Model()
    xs = [m.new_variable({i, i + 1}) for i in range(n - 1)]
    xs.append(m.new_variable({n - 1}))
    if kind == "alldifferent":
        m.add(AllDifferent(xs, "domain"))
    else:
        m.add(GlobalCardinality(xs, {}, {d: 1 for d in range(n)}))
    assert m.propagate() == CONSISTENT
    assert [m.domain(x) for x in xs] == [{i} for i in range(n)]


@pytest.mark.parametrize("kind", ["alldifferent", "gcc"])
def test_long_augmenting_path_does_not_overflow_the_stack(kind):
    # x_i in {8i, 8i+8} plus two variables over {0, 8n+8}: each domain
    # iterates its smaller value first, so the greedy matching leaves one
    # augmenting path through the whole chain, 1,100 rows deep
    n = 1100
    m = Model()
    xs = [m.new_variable({8 * i, 8 * i + 8}) for i in range(n - 1)]
    xs += [m.new_variable({0, 8 * n + 8}) for _ in range(2)]
    if kind == "alldifferent":
        c = m.add(AllDifferent(xs))
    else:
        values = set().union(*(m.domain(x) for x in xs))
        c = m.add(GlobalCardinality(xs, {}, {d: 1 for d in values}))
    stats = dfs(m, Dom(m, random.Random(0)))
    assert stats.status == SAT
    assert c.check([stats.solution[x.name] for x in xs])


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------
def test_count_upper_bounds_exact():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        values = list(range(1, n + 2))
        domains = [
            set(rng.sample(values, rng.randint(1, len(values))))
            for _ in range(n)
        ]
        m, xs, c = _post([set(d) for d in domains])
        count, _ = exact_count_densities(c, domains)
        bound = alldiff_density_table(c, domains).log_count
        if count:
            assert math.exp(bound) + 1e-9 >= count
        else:
            assert True  # zero-count instances carry no guarantee


def test_densities_normalized_per_variable():
    domains = [{1, 2, 3}, {1, 2}, {2, 3}]
    m, xs, c = _post(domains)
    m.propagate()
    table = m.collect_densities()[0]
    for x in xs:
        if m.is_bound(x):
            continue
        total = sum(table.density(x, d) for d in m.domain_sorted(x))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_bound_variable_density_is_one():
    m, xs, c = _post([{2}, {1, 2, 3}, {1, 3}])
    m.propagate()
    table = m.collect_densities()[0]
    assert table.density(xs[0], 2) == 1.0


def test_density_ranking_matches_oracle_on_skewed_instance():
    # one variable with a forced-ish value should get the higher density
    domains = [{1, 2}, {2, 3}, {3}]
    m, xs, c = _post([set(d) for d in domains])
    count, dens = exact_count_densities(c, domains)
    m2, xs2, c2 = _post([set(d) for d in domains])
    m2.propagate()
    table = m2.collect_densities()[0]
    # exact: x0 must be 1 (since x2=3 forces x1=2)
    assert dens[(0, 1)] == 1
    assert table.density(xs2[0], 1) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_counting_is_sound_property(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    values = list(range(1, n + 2))
    domains = [
        set(rng.sample(values, rng.randint(1, len(values)))) for _ in range(n)
    ]
    m, xs, c = _post([set(d) for d in domains])
    count, _ = exact_count_densities(c, domains)
    bound = math.exp(alldiff_density_table(c, domains).log_count)
    assert count == 0 or bound + 1e-9 >= count


def _padded_rows(domains):
    """Row sums of the 0-1 matrix, with one all-ones row per value of the
    union past the scope size; the padding row count; the union size."""
    union = set()
    for d in domains:
        union |= d
    n = len(domains)
    u = len(union)
    p = max(0, u - n)
    return [len(d) for d in domains] + [u] * p, p, u


def _reference_log_norm(raw):
    """Log-space scores to densities, taking each ``exp`` twice."""
    finite = [v for v in raw.values() if v > -math.inf]
    if not finite:
        return {d: 0.0 for d in raw}
    top = max(finite)
    total = math.fsum(math.exp(v - top) for v in finite)
    return {
        d: (math.exp(v - top) / total if v > -math.inf else 0.0)
        for d, v in raw.items()
    }


def _reference_log_count(rows, p):
    """The tighter of Bregman-Minc and ``lb_log_bound`` on the root rows,
    less the padding's log p!, the Bregman-Minc factors ``math.fsum``ed."""
    pad_log = math.lgamma(p + 1)
    bm_root = math.fsum(map(bm_log_factor, rows)) - pad_log
    return bm_root, min(bm_root, lb_log_bound(rows) - pad_log)


def _reference_density_table(domains):
    """(log count, densities) computed probe by probe: each probe's
    Bregman-Minc bound is updated from the root by the touched rows'
    factors, holder by holder, and each row is normalized on its own
    largest score."""
    rows, p, _ = _padded_rows(domains)
    if any(r == 0 for r in rows):
        return -math.inf, {}
    bm_root, log_count = _reference_log_count(rows, p)
    densities = {}
    for i, dom in enumerate(domains):
        if len(dom) == 1:
            densities[(i, next(iter(dom)))] = 1.0
            continue
        var_ub = bm_root + bm_log_factor(1) - bm_log_factor(len(dom))
        raw = {}
        for d in sorted(dom):
            others = [k for k, dk in enumerate(domains) if k != i and d in dk]
            if any(len(domains[k]) == 1 for k in others):
                raw[d] = -math.inf
                continue
            delta = 0.0
            for k in others:
                size = len(domains[k])
                delta += bm_log_factor(size - 1) - bm_log_factor(size)
            raw[d] = var_ub + delta
        for d, sigma in _reference_log_norm(raw).items():
            densities[(i, d)] = sigma
    return log_count, densities


def _per_value_density_table(domains):
    """(log count, densities) from one probe sum per value.

    S_d adds up the factor step bm(r - 1) - bm(r) of every unbound
    position holding d, where r is that position's domain size.  A value
    that a bound position takes has weight 0.0, any other value d weight
    exp(S_d - M), where M is the largest S_d of the table (0.0 if none).
    An unbound position's density on d is d's weight over the total
    weight of its domain, or 0.0 if that total is 0.0.  A position whose
    total is below 1e-280 takes its own largest S_d as M instead.  Every
    sum is a ``math.fsum``.
    """
    rows, p, _ = _padded_rows(domains)
    if any(r == 0 for r in rows):
        return -math.inf, {}
    _, log_count = _reference_log_count(rows, p)
    unbound = [dom for dom in domains if len(dom) > 1]
    taken = set().union(*(dom for dom in domains if len(dom) == 1))
    sums = {}
    for d in set().union(*unbound) - taken:
        sums[d] = math.fsum(
            bm_log_factor(len(dom) - 1) - bm_log_factor(len(dom))
            for dom in unbound
            if d in dom
        )

    def weights(dom, top):
        return {d: math.exp(sums[d] - top) if d in sums else 0.0 for d in dom}

    densities = {}
    for i, dom in enumerate(domains):
        if len(dom) == 1:
            densities[(i, next(iter(dom)))] = 1.0
            continue
        row = weights(dom, max(sums.values(), default=0.0))
        if math.fsum(row.values()) < 1e-280 and not dom.isdisjoint(sums):
            row = weights(dom, max(sums[d] for d in dom if d in sums))
        total = math.fsum(row.values())
        for d, w in row.items():
            densities[(i, d)] = w / total if total else 0.0
    return log_count, densities


@st.composite
def _qwh_rows(draw):
    """Up to 30 positions over up to 30 values, most of them bound, as in
    a quasigroup row; a bound value may stay in other domains, so some
    probes empty a bound row."""
    n = draw(st.integers(1, 30))
    values = st.integers(1, draw(st.integers(2, 30)))
    bound = values.map(lambda v: {v})
    unbound = st.sets(values, min_size=2, max_size=8)
    return draw(st.lists(st.one_of(bound, bound, unbound), min_size=n, max_size=n))


def _table_cases(test):
    """Run ``test(domains)`` on random domain lists, quasigroup-like
    rows and the edge cases listed here."""
    for case in (
        [{1, 2, 3, 4, 5}, {1, 2}, {2, 3}],  # union 5 > 3 variables: padded
        [{1}, {1, 2}, {1, 2, 3}],  # probing x1 = 1 or x2 = 1 wipes out x0
        [{1}, {2}, {1, 2}, {3, 4}],  # every value of x2 is taken
        [{1, 2}, set()],  # an empty domain: no probes at all
        [],  # an empty scope
        [set(range(1, 70)), {1, 2}, {2, 3}],  # 69 rows: past the shared table
    ):
        test = example(case)(test)
    domain_lists = st.one_of(
        st.lists(
            st.sets(st.integers(1, 12), min_size=0, max_size=12),
            min_size=0,
            max_size=10,
        ),
        _qwh_rows(),
    )
    return settings(max_examples=400, deadline=None)(given(domain_lists)(test))


def _table(domains):
    m = Model()
    xs = [m.new_variable(d or {0}) for d in domains]
    return alldiff_density_table(AllDifferent(xs), domains)


@_table_cases
def test_density_table_equals_rebuilt_row_reference(domains):
    """The probe-by-probe reference rounds each probe's sum on its own,
    so the densities agree to within 1e-12; the count is the same
    float."""
    table = _table(domains)
    log_count, densities = _reference_density_table(domains)
    assert table.log_count == log_count
    assert table.densities.keys() == densities.keys()
    for key, sigma in densities.items():
        assert abs(table.densities[key] - sigma) <= 1e-12, key


@_table_cases
def test_density_table_equals_per_value_reference(domains):
    # exact equality: a last-bit change can flip an exact tie in maxSD
    table = _table(domains)
    assert (table.log_count, table.densities) == _per_value_density_table(domains)


def test_density_table_depends_on_the_domains_alone():
    """Permuting the scope, or rebuilding every domain set in reverse
    insertion order, gives the same count and densities, compared with
    ``==``.  The values are multiples of 8, which collide in a small set
    table, so the rebuilt sets iterate in another order.  Each unbound
    position's densities add up to 1 within 1e-12, or to 0 when a bound
    position takes each of its values."""
    rng = random.Random(38)
    reordered = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        orders = [
            [8 * v for v in sorted(dom)]
            for dom in random_domains(rng, n, rng.randint(2, 2 * n + 2))
        ]
        forward = [set(order) for order in orders]
        backward = [set(reversed(order)) for order in orders]
        reordered += list(map(list, forward)) != list(map(list, backward))
        m = Model()
        xs = [m.new_variable(dom) for dom in forward]
        perm = rng.sample(range(n), n)
        table = alldiff_density_table(AllDifferent(xs), forward)
        rebuilt = alldiff_density_table(AllDifferent(xs), backward)
        permuted = alldiff_density_table(
            AllDifferent([xs[k] for k in perm]), [backward[k] for k in perm]
        )
        for other in (rebuilt, permuted):
            assert other.log_count == table.log_count
            assert other.densities == table.densities
        taken = {next(iter(dom)) for dom in forward if len(dom) == 1}
        for x, dom in zip(xs, forward):
            if len(dom) > 1:
                total = math.fsum(table.densities[x.index, d] for d in dom)
                assert abs(total - 1.0) <= 1e-12 or dom <= taken and total == 0.0
    assert reordered > 200


def test_density_table_of_a_long_scope_does_not_underflow():
    """2,200 positions over {0, 1} and one over {5, 6}: each {0, 1} row's
    weights are exp(-762) = 0.0 on the shift of the {5, 6} row, so those
    rows are normalized on their own shift."""
    m = Model()
    xs = [m.new_variable({0, 1}) for _ in range(2200)] + [m.new_variable({5, 6})]
    c = m.add(AllDifferent(xs, FORWARD_CHECKING))
    assert m.propagate() == CONSISTENT
    table = c.count_densities(m)
    assert table.densities == {
        (x.index, d): 0.5 for x in xs for d in m.domain(x)
    }


# ----------------------------------------------------------------------
# symmetric alldifferent
# ----------------------------------------------------------------------
def _sym(domains):
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = m.add(SymmetricAllDifferent(xs))
    return m, xs, c


def test_sym_check_requires_mutual_pairs():
    m, xs, c = _sym([{2}, {1}, {4}, {3}])
    assert c.check([2, 1, 4, 3])
    assert not c.check([2, 1, 3, 4])  # 3 would pair with itself
    assert not c.check([2, 3, 1, 4])  # not mutual


def test_sym_filtering_removes_self_and_nonmutual():
    m, xs, c = _sym([{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2}])
    assert m.propagate() == CONSISTENT
    for i, x in enumerate(xs):
        assert (i + 1) not in m.domain(x)
    # entity 3 cannot pair with 4 (4's domain lacks 3): mutuality pruning
    assert 4 not in m.domain(xs[2])


def test_sym_bound_pair_propagates_partner():
    m, xs, c = _sym([{2}, {1, 2, 3, 4}, {1, 2, 4}, {1, 2, 3}])
    assert m.propagate() == CONSISTENT
    assert m.value_of(xs[1]) == 1
    # remaining entities 3 and 4 must pair together
    assert m.value_of(xs[2]) == 4
    assert m.value_of(xs[3]) == 3


def _pairing_fixpoint(scope, domains):
    """The pairing rules on copied sets until nothing changes: drop self
    values, values out of range and values without the mutual edge, and
    bind the partner of a bound position.  None on a wipeout."""
    doms = [set(d) for d in domains]
    n = len(scope)
    changed = True
    while changed:
        changed = False
        for i, x in enumerate(scope):
            for j in sorted(doms[x]):
                if j == i + 1 or not 1 <= j <= n or i + 1 not in doms[scope[j - 1]]:
                    doms[x].discard(j)
                    changed = True
            if len(doms[x]) == 1:
                partner = doms[scope[next(iter(doms[x])) - 1]]
                if partner != {i + 1}:
                    partner.intersection_update({i + 1})
                    changed = True
            if not all(doms):
                return None
    return doms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sym_propagate_reaches_the_pairing_fixpoint(data):
    # self values, values out of 1..n and variables filling two positions;
    # domains keep at least half of 1..n, so some fixpoints are consistent
    n = data.draw(st.integers(1, 7))
    scope = data.draw(
        st.just(list(range(n)))
        | st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
    domains = []
    for _ in range(max(scope) + 1):
        kept = data.draw(st.sets(st.integers(1, n), min_size=n // 2))
        junk = data.draw(
            st.sets(st.sampled_from([-1, 0, n + 1]), min_size=0 if kept else 1)
        )
        domains.append(kept | junk)
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = SymmetricAllDifferent([xs[k] for k in scope])
    assert c.idempotent
    expected = _pairing_fixpoint(scope, domains)
    assert c.propagate(m) == (expected is not None)
    if expected is not None:
        assert [m.domain(x) for x in xs] == expected
        trail = len(m._trail)
        assert c.propagate(m)
        assert len(m._trail) == trail  # a second call removes nothing


def test_sym_matching_bound_dominates_exact():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([4, 6])
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    adj[i].add(j)
                    adj[j].add(i)
        exact = count_perfect_matchings(adj)
        bound = math.exp(sym_matching_log_bound(adj))
        assert exact == 0 or bound + 1e-9 >= exact


def _written_out_sym_bound(adj, pair=()):
    """The pairing bound: the ``math.fsum`` of the halved Bregman-Minc
    factors."""
    if pair and pair[1] not in adj[pair[0]]:
        return -math.inf
    if (len(adj) - len(pair)) % 2 == 1:
        return -math.inf
    halved = []
    for k, neigh in enumerate(adj):
        if k in pair:
            continue
        deg = len(neigh) - len(neigh.intersection(pair))
        if deg == 0:
            return -math.inf
        halved.append(math.lgamma(deg + 1) / (2 * deg))
    return math.fsum(halved)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 24), st.floats(0.0, 1.0), st.integers(0, 2 ** 32))
def test_sym_matching_bound_equals_the_halved_factors_bit_for_bit(n, p, seed):
    """Half of Bregman-Minc's sum is the float the halved factors add up
    to, for the whole graph and after each pairing, on random graphs of
    up to 24 vertices with each edge drawn with probability p."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    pairs = [()] + [(i, j) for i in range(n) for j in range(n) if i != j]
    for pair in pairs:
        got = sym_matching_log_bound(adj, pair)
        assert got.hex() == _written_out_sym_bound(adj, pair).hex()


def test_sym_densities_match_oracle_on_k4():
    m, xs, c = _sym([{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3}])
    m.propagate()
    count, dens = exact_count_densities(
        c, [m.domain(x) for x in xs]
    )
    assert count == 3  # K4 has 3 perfect matchings
    table = m.collect_densities()[0]
    for (vi, d), frac in dens.items():
        x = m.variables[vi]
        assert table.density(x, d) == pytest.approx(float(frac), abs=0.25)


def test_zero_diag_matrix_vs_contracted_matchings():
    n = 6
    matrix = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    assert exact_permanent(matrix) == 265
    adj = [set(range(n)) - {i} for i in range(n)]
    assert count_perfect_matchings(adj) == 15
