"""Core engine: trail, levels, propagation, density caches."""

import pytest

from countsearch.alldiff import AllDifferent
from countsearch.engine import CONSISTENT, WIPEOUT, Constraint, Model
from countsearch.knapsack import Knapsack
from countsearch.regular import Automaton, Regular


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
        assert m.last_wipeout is c
        assert seen == [c]


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


def test_density_cache_trailed_across_levels():
    m = Model()
    x = m.new_variable({1, 2})
    y = m.new_variable({1, 2})
    c = m.add(AllDifferent([x, y]))
    m.propagate()
    tables = m.collect_densities()
    assert len(tables) == 1
    assert not c.dirty
    cached = c.cache
    m.push_level()
    m.push_decision("assign", x, 1)
    assert c.dirty  # domain change marked the table stale
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
