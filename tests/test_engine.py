"""Core engine: trail, levels, propagation, density caches."""

import pytest

from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.bench import generate_qwh
from countsearch.engine import (
    CONSISTENT,
    DOMAIN,
    FORWARD_CHECKING,
    WIPEOUT,
    Constraint,
    Model,
)
from countsearch.gcc import GlobalCardinality
from countsearch.knapsack import Knapsack
from countsearch.regular import Automaton, Regular

from conftest import full_domain_model


class Forbid(Constraint):
    """Toy constraint: variable may not take a fixed value."""

    def __init__(self, var, value):
        super().__init__([var])
        self.value = value

    def propagate(self, model):
        return model.remove_value(self.scope[0], self.value, self)

    def check(self, values):
        return values[0] != self.value


class LoggedForbid(Forbid):
    def __init__(self, var, value, log, tag):
        super().__init__(var, value)
        self.log, self.tag = log, tag

    def propagate(self, model):
        self.log.append(self.tag)
        return super().propagate(model)


class LoggedAllDifferent(AllDifferent):
    def __init__(self, scope, log, tag):
        super().__init__(scope)
        self.log, self.tag = log, tag

    def propagate(self, model):
        self.log.append(self.tag)
        return super().propagate(model)


class RerunAllDifferent(LoggedAllDifferent):
    """The same propagator, called again after its own removals."""

    idempotent = False


def _logged_calls(alldiff):
    """propagate calls at the root and after a decision, and the domains
    left, for x in {1, 2}, y and z in {1, 2, 3}, AllDifferent(x, y),
    Forbid(x, 1) and AllDifferent(y, z), posted in that order."""
    m = Model()
    log = []
    x = m.new_variable({1, 2})
    y = m.new_variable({1, 2, 3})
    z = m.new_variable({1, 2, 3})
    m.add(alldiff([x, y], log, "xy"))
    m.add(LoggedForbid(x, 1, log, "f"))
    m.add(alldiff([y, z], log, "yz"))
    assert m.propagate() == CONSISTENT
    root = log[:]
    del log[:]
    assert m.push_decision("assign", y, 1) == CONSISTENT
    return root, log, [m.domain(v) for v in (x, y, z)]


def test_idempotent_constraint_skips_only_its_own_wakeups():
    root, decision, domains = _logged_calls(LoggedAllDifferent)
    # Forbid's removal from x wakes xy and Forbid itself, which is not
    # idempotent and so is called again; xy's removal from y wakes xy
    # itself (skipped) and yz (called)
    assert root == ["xy", "f", "yz", "xy", "f", "yz"]
    # the decision on y calls both; yz's removal from z wakes only yz
    assert decision == ["xy", "yz"]
    assert domains == [{2}, {1}, {2, 3}]
    # called again after their own removals, the constraints remove
    # nothing more, and every other call keeps its place
    rerun_root, rerun_decision, rerun_domains = _logged_calls(RerunAllDifferent)
    assert rerun_root == ["xy", "f", "yz", "xy", "f", "xy", "yz"]
    assert rerun_decision == ["xy", "yz", "yz"]
    assert rerun_domains == domains


#: x != y over 1..3 as an automaton: the same filtering as AllDifferent
NEQ = Automaton(
    {**{("s", a): a for a in (1, 2, 3)},
     **{(a, b): "ok" for a in (1, 2, 3) for b in (1, 2, 3) if a != b}},
    "s",
    ["ok"],
)


class LoggedRegular(Regular):
    def __init__(self, scope, log, tag):
        super().__init__(scope, NEQ)
        self.log, self.tag = log, tag

    def propagate(self, model):
        self.log.append(self.tag)
        return super().propagate(model)


class RerunRegular(LoggedRegular):
    def __init__(self, scope, log, tag):
        super().__init__(scope, log, tag)
        self.idempotent = False


class LoggedSumIsTwo(Knapsack):
    def __init__(self, scope, log, tag):
        super().__init__(scope, [1, 1], 2, 2)
        self.log, self.tag = log, tag

    def propagate(self, model):
        self.log.append(self.tag)
        return super().propagate(model)


class RerunSumIsTwo(LoggedSumIsTwo):
    idempotent = False


def test_idempotent_regular_skips_only_its_own_wakeups():
    # Regular(x != y) filters as AllDifferent does, so the calls are the
    # same as in the AllDifferent test above
    root, decision, domains = _logged_calls(LoggedRegular)
    assert root == ["xy", "f", "yz", "xy", "f", "yz"]
    assert decision == ["xy", "yz"]
    assert domains == [{2}, {1}, {2, 3}]
    rerun_root, rerun_decision, rerun_domains = _logged_calls(RerunRegular)
    assert rerun_root == ["xy", "f", "yz", "xy", "f", "xy", "yz"]
    assert rerun_decision == ["xy", "yz", "yz"]
    assert rerun_domains == domains


def _logged_sum_calls(knapsack):
    """propagate calls at the root and after y = 1, and the domains left,
    for x, y and z in {0, 1, 2}, x + y = 2, Forbid(x, 0) and y + z = 2,
    posted in that order."""
    m = Model()
    log = []
    x, y, z = (m.new_variable({0, 1, 2}) for _ in range(3))
    m.add(knapsack([x, y], log, "xy"))
    m.add(LoggedForbid(x, 0, log, "f"))
    m.add(knapsack([y, z], log, "yz"))
    assert m.propagate() == CONSISTENT
    root = log[:]
    del log[:]
    assert m.push_decision("assign", y, 1) == CONSISTENT
    return root, log, [m.domain(v) for v in (x, y, z)]


def test_idempotent_knapsack_skips_only_its_own_wakeups():
    root, decision, domains = _logged_sum_calls(LoggedSumIsTwo)
    # Forbid's removal from x wakes xy, whose removal of 2 from y wakes
    # yz but not xy; yz's removal of 0 from z wakes only yz (skipped)
    assert root == ["xy", "f", "yz", "xy", "f", "yz"]
    # y = 1: xy binds x, which wakes Forbid; yz binds z
    assert decision == ["xy", "yz", "f"]
    assert domains == [{1}, {1}, {1}]
    rerun_root, rerun_decision, rerun_domains = _logged_sum_calls(RerunSumIsTwo)
    assert rerun_root == ["xy", "f", "yz", "xy", "f", "xy", "yz", "yz"]
    assert rerun_decision == ["xy", "yz", "xy", "f", "yz"]
    assert rerun_domains == domains


def test_bounds_knapsack_and_repeated_scope_are_not_idempotent():
    m = Model()
    x, y = m.new_variable({0, 1}), m.new_variable({0, 1})
    assert Regular([x, y], NEQ).idempotent
    assert not Regular([x, y, x], NEQ).idempotent
    knapsack = Knapsack([x, y], [1, 1], 1, 1)
    assert knapsack.idempotent
    knapsack.consistency = FORWARD_CHECKING
    assert not knapsack.idempotent
    assert not Knapsack([x, x], [1, 1], 1, 1).idempotent


def test_repeated_variable_regular_reaches_the_fixpoint():
    # words 0 0 2 and 1 1 1 over (x, y, x): the first call removes 2
    # from x (layer 0) and 0 from x (layer 2), leaving x = 1; only a
    # second call sees that y = 0 has lost its support
    dfa = Automaton(
        {("s", 0): "a", ("a", 0): "b", ("b", 2): "acc",
         ("s", 1): "c", ("c", 1): "d", ("d", 1): "acc"},
        "s",
        ["acc"],
    )
    m = Model()
    x, y = m.new_variable({0, 1, 2}), m.new_variable({0, 1})
    c = m.add(Regular([x, y, x], dfa))
    assert m.propagate() == CONSISTENT
    assert (m.domain(x), m.domain(y)) == ({1}, {1})
    assert c.check([1, 1, 1])


def test_trail_undo_runs_last_in_first_out_with_the_domains():
    m = Model()
    x = m.new_variable({1, 2, 3})
    seen = []

    def undo(tag):
        seen.append((tag, m.domain(x)))

    m.push_level()
    m.trail_undo(undo, "a")
    m.remove_value(x, 1)
    m.trail_undo(undo, "b")
    m.push_level()
    m.remove_value(x, 2)
    m.trail_undo(undo, "c")
    m.backtrack_to(1)
    assert seen == [("c", {3})]
    m.backtrack_to(0)
    # "b" runs before x gets 1 back, "a" after
    assert seen == [("c", {3}), ("b", {2, 3}), ("a", {1, 2, 3})]
    assert m.domain(x) == {1, 2, 3}


def test_leaving_level_zero_forgets_its_trail():
    """No backtrack goes below level 0, so its entries stay on the trail
    only until the first level above opens."""
    m = Model()
    x = m.new_variable({1, 2, 3})
    m.remove_value(x, 3)
    m.trail_undo(lambda arg: pytest.fail("level 0 was undone"), None)
    assert len(m._trail) == 2
    m.push_level()
    assert m._trail == []
    m.remove_value(x, 2)
    m.backtrack_to(0)
    assert m.domain(x) == {1, 2}
    m.push_level()
    m.push_level()
    m.remove_value(x, 2)
    m.backtrack_to(1)
    assert m.domain(x) == {1, 2}


def test_every_domain_keeps_its_set_for_the_model_life():
    """Leaving level 0 replaces no domain set, not even one that root
    propagation shrank: after a push, a decision and a backtrack to the
    root, every domain is the set it was at the root, with its values."""
    m = full_domain_model(generate_qwh(15, 0.42, 0))
    sizes = list(map(len, m._domains))
    assert m.propagate() == CONSISTENT
    root = list(m._domains)
    values = [set(dom) for dom in root]
    assert sum(len(dom) < size for dom, size in zip(root, sizes)) > 50
    m.push_level()
    x = next(v for v in m.variables if not m.is_bound(v))
    assert m.push_decision("assign", x, min(m.domain(x))) == CONSISTENT
    m.backtrack_to(0)
    assert all(dom is old for dom, old in zip(m._domains, root))
    assert m._domains == values


@pytest.mark.parametrize(
    "make",
    [
        lambda xs: Regular(xs, NEQ),
        lambda xs: Knapsack(xs, [1, 2], 3, 5),
    ],
    ids=["regular", "knapsack"],
)
def test_graph_built_at_level_two_is_dropped_by_backtrack(make):
    m = Model()
    xs = [m.new_variable({1, 2, 3}) for _ in range(2)]
    c = make(xs)  # not posted: nothing builds its graph at the root
    m.push_level()
    m.remove_value(xs[0], 1)
    m.push_level()
    m.remove_value(xs[1], 2)
    c.count_densities(m)  # built here, from the level-2 domains
    m.remove_value(xs[0], 3)
    narrowed = c.count_densities(m)
    m.backtrack_to(1)
    assert c._graph is None
    m.backtrack_to(0)
    table = c.count_densities(m)
    fresh = make(xs).count_densities(m)
    assert (table.log_count, table.densities) == (fresh.log_count, fresh.densities)
    assert table.log_count > narrowed.log_count


def test_empty_initial_domain_rejected():
    m = Model()
    with pytest.raises(ValueError):
        m.new_variable([])


def test_remove_and_backtrack_restores_exactly():
    m = Model()
    x = m.new_variable({1, 2, 3})
    m.push_level()
    assert m.remove_value(x, 2)
    assert m.domain(x) == {1, 3}
    m.push_level()
    assert m.assign(x, 1)
    assert m.is_bound(x)
    m.backtrack_to(1)
    assert m.domain(x) == {1, 3}
    m.backtrack_to(0)
    assert m.domain(x) == {1, 2, 3}


def test_backtrack_to_current_level_is_noop():
    m = Model()
    x = m.new_variable({1, 2})
    m.push_level()
    m.remove_value(x, 1)
    m.backtrack_to(m.level)
    assert m.domain(x) == {2}


def test_backtrack_forward_rejected():
    m = Model()
    m.new_variable({1})
    with pytest.raises(ValueError):
        m.backtrack_to(5)


def test_propagation_runs_to_fixpoint():
    m = Model()
    x = m.new_variable({1, 2})
    y = m.new_variable({1, 2})
    m.add(Forbid(x, 1))
    m.add(AllDifferent([x, y]))
    assert m.propagate() == CONSISTENT
    assert m.domain(x) == {2}
    assert m.domain(y) == {1}


def test_wipeout_reported_with_cause():
    no_two_ones = Automaton({(0, 0): 0, (0, 1): 1, (1, 0): 0}, 0, [0, 1])
    posts = [
        lambda m: Forbid(m.new_variable({1}), 1),
        # root-infeasible: the only word is 1 1
        lambda m: Regular([m.new_variable({1}) for _ in range(2)], no_two_ones),
        # root-infeasible: two 0/1 terms never sum to 5
        lambda m: Knapsack([m.new_variable({0, 1}) for _ in range(2)], [1, 1], 5, 5),
    ]
    for post in posts:
        m = Model()
        seen = []
        m.on_wipeout(seen.append)
        c = m.add(post(m))
        assert m.propagate() == WIPEOUT
        assert seen == [c]


def test_failed_matching_is_reported_once_with_its_constraint():
    # three variables over two values: no domain empties, the matching fails
    m = Model()
    xs = [m.new_variable({1, 2}) for _ in range(3)]
    seen = []
    m.on_wipeout(seen.append)
    c = m.add(AllDifferent(xs))
    assert m.propagate() == WIPEOUT
    assert [m.domain(x) for x in xs] == [{1, 2}] * 3
    assert seen == [c]


def test_a_decision_that_empties_a_domain_is_reported_once_with_none():
    m = Model()
    x = m.new_variable({1, 2})
    m.add(Forbid(x, 2))
    assert m.propagate() == CONSISTENT
    seen = []
    m.on_wipeout(seen.append)
    assert m.push_decision("refute", x, 1) == WIPEOUT
    assert seen == [None]


def test_push_decision_assign_and_refute():
    m = Model()
    x = m.new_variable({1, 2, 3})
    assert m.push_decision("assign", x, 2) == CONSISTENT
    assert m.value_of(x) == 2
    m.backtrack_to(0)
    assert m.push_decision("refute", x, 2) == CONSISTENT
    assert m.domain(x) == {1, 3}


def test_push_decision_rejects_absent_value():
    m = Model()
    x = m.new_variable({1})
    with pytest.raises(ValueError):
        m.push_decision("assign", x, 7)


@pytest.mark.parametrize("level", [0, 1])
def test_push_decision_rejects_an_unknown_kind_before_it_opens_a_level(level):
    """A bad kind raises before anything changes: the level, the trail and
    every domain set stay as they were, so at level 0 the trail is not
    cleared."""
    m = Model()
    x = m.new_variable({1, 2, 3})
    y = m.new_variable({1, 2})
    for _ in range(level):
        m.push_level()
    m.remove_value(x, 3)
    trail, domains = len(m._trail), list(m._domains)
    with pytest.raises(ValueError):
        m.push_decision("asign", y, 1)
    assert m.level == level
    assert len(m._trail) == trail
    assert all(now is before for now, before in zip(m._domains, domains))
    assert m._domains == [{1, 2}, {1, 2}]


def test_a_posted_constraint_cannot_be_posted_again():
    """A constraint's state follows the one model it serves.  Posted in a
    fresh model, an AllDifferent that closed position 0 in its first one
    never looks at that position again, and ``dom`` answered sat with
    x0 = x1 = 2; posted twice in one model, it would lose its first
    ``cid``, by which failure weights are kept."""
    a = Model()
    xs = [a.new_variable({1, 2, 3}) for _ in range(3)]
    c = a.add(AllDifferent(xs))
    assert a.push_decision("assign", xs[0], 1) == CONSISTENT
    with pytest.raises(ValueError, match="already posted"):
        a.add(c)
    b = Model()
    for _ in range(3):
        b.new_variable({1, 2, 3})
    with pytest.raises(ValueError, match="already posted"):
        b.add(c)
    assert (c.cid, a.constraints, b.constraints) == (0, [c], [])
    assert b._watchers == [[], [], []]


@pytest.mark.parametrize(
    "make",
    [
        lambda xs, level: AllDifferent(xs, level),
        lambda xs, level: GlobalCardinality(xs, {}, {1: 2, 2: 2}, level),
        lambda xs, level: Knapsack(xs, [1, 2], 0, 3, level),
    ],
    ids=["alldifferent", "gcc", "knapsack"],
)
def test_an_unknown_consistency_level_is_rejected(make):
    m = Model()
    xs = [m.new_variable({1, 2}) for _ in range(2)]
    for level in (FORWARD_CHECKING, DOMAIN):
        assert make(xs, level).consistency == level
    with pytest.raises(ValueError, match="unknown consistency level 'dom'"):
        make(xs, "dom")


def test_density_cache_trailed_across_levels():
    m = Model()
    x = m.new_variable({1, 2})
    y = m.new_variable({1, 2})
    c = m.add(AllDifferent([x, y]))
    m.propagate()
    tables = m.collect_densities()
    assert len(tables) == 1
    cached = c.cache
    assert cached is not None
    m.push_level()
    m.push_decision("assign", x, 1)
    assert c.cache is None  # domain change marked the table stale
    m.collect_densities()
    assert c.cache is not cached
    m.backtrack_to(0)
    assert c.cache is cached  # old table restored with the domains


def test_log_search_space_tracks_domain_product():
    import math

    m = Model()
    m.new_variable({1, 2})
    m.new_variable({1, 2, 3})
    assert m.log_search_space() == pytest.approx(math.log(6))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(AllDifferent, id="alldiff"),
        pytest.param(SymmetricAllDifferent, id="symmetric"),
        pytest.param(lambda xs: GlobalCardinality(xs, {}, {1: 1, 2: 2}), id="gcc"),
        pytest.param(
            lambda xs: Regular(xs, Automaton({(0, d): 0 for d in range(5)}, 0, [0])),
            id="regular",
        ),
    ],
)
def test_a_fresh_constraint_counts_an_equal_table(make):
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(4)]
    c = m.add(make(xs))
    m.push_decision("refute", xs[0], 2)
    # first counted on narrowed domains: nothing it keeps may leak into
    # the root's table
    c.count_densities(m)
    m.backtrack_to(0)
    root = c.count_densities(m)
    fresh = make(xs)
    assert fresh.count_densities(m).densities == root.densities
