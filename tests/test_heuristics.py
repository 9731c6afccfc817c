"""Branching heuristics: selection rules, tie-breaking, learned state."""

import math
import random

import pytest

from countsearch.alldiff import AllDifferent
from countsearch.engine import CONSISTENT, WIPEOUT, Constraint, Model
from countsearch.heuristics import (
    HEURISTIC_NAMES,
    AAvgSD,
    Dom,
    DomDeg,
    DomWdeg,
    Ibs,
    MaxRelRatio,
    MaxRelSD,
    MaxSD,
    MinSCMaxSD,
    VarThenValue,
    WdegState,
    WSCAvg,
    _wdeg_sums,
    make_heuristic,
)
from countsearch.knapsack import Knapsack
from countsearch.search import SAT, dfs, lds, restart_search


def golden_knapsack_model():
    m = Model()
    xs = [
        m.new_variable(d, f"x{i + 1}")
        for i, d in enumerate([{0, 1, 2}, {0, 1, 3}, {0, 1, 2}, {1, 2}])
    ]
    m.add(Knapsack(xs, [3, 1, 2, 1], 5, 8))
    m.propagate()
    return m, xs


def test_maxsd_picks_highest_density_pair():
    # densities peak at 11/22 for both values of the last variable; the
    # lexicographic tie-break selects the smaller value
    m, xs = golden_knapsack_model()
    h = MaxSD(m)
    var, value = h.choose(m)
    assert var is xs[3]
    assert value == 1


def test_all_bound_returns_none():
    m = Model()
    x = m.new_variable({3})
    for name in HEURISTIC_NAMES:
        h = make_heuristic(name, m, random.Random(0))
        assert h.choose(m) is None


#: heuristics that score pairs from density tables (``maxSD+random``
#: takes its variable from ``maxSD``)
SCORING = ["maxSD", "maxRelSD", "maxRelRatio", "aAvgSD", "wSCAvg", "minSCMaxSD"]


def _alldiff_and_free_vars():
    """Free a, then AllDifferent(x, y), then free b: no table scores a or b."""
    m = Model()
    a = m.new_variable({4, 3}, "a")
    x = m.new_variable({0, 1, 2}, "x")
    y = m.new_variable({0, 1, 2}, "y")
    b = m.new_variable({5, 6}, "b")
    m.add(AllDifferent([x, y]))
    return m, (a, x, y, b)


@pytest.mark.parametrize("name", SCORING)
def test_unscored_variable_is_tried_by_index_with_its_smallest_value(name):
    m, (a, x, y, b) = _alldiff_and_free_vars()
    h = make_heuristic(name, m)
    var, _ = h.choose(m)
    assert var in (x, y)  # scored pairs come first
    m.push_decision("assign", x, 0)
    m.push_decision("assign", y, 1)
    assert h.choose(m) == (a, 3)
    m.push_decision("assign", a, 4)
    assert h.choose(m) == (b, 5)


@pytest.mark.parametrize("driver", [dfs, lds, restart_search])
@pytest.mark.parametrize("name", [*SCORING, "maxSD+random"])
def test_search_solves_a_model_with_unscored_variables(driver, name):
    m, (a, x, y, b) = _alldiff_and_free_vars()
    stats = driver(m, make_heuristic(name, m))
    assert stats.status == SAT
    sol = stats.solution
    assert sol["x"] != sol["y"]
    assert sol["a"] in (3, 4) and sol["b"] in (5, 6)


def test_aavgsd_equals_maxsd_with_single_constraint():
    m1, _ = golden_knapsack_model()
    m2, _ = golden_knapsack_model()
    pick1 = MaxSD(m1).choose(m1)
    pick2 = AAvgSD(m2).choose(m2)
    assert pick1[0].name == pick2[0].name
    assert pick1[1] == pick2[1]


def test_maxrelsd_subtracts_uniform_density():
    # x has density .5 on a 2-value domain (relative 0); y has density
    # .4 on a 4-value domain (relative .15): relSD must prefer y
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2, 3, 4}, "y")

    class Fixed(AllDifferent):
        def count_densities(self, model):
            from countsearch.engine import DensityTable

            return DensityTable(
                self,
                0.0,
                {
                    (x.index, 1): 0.5,
                    (x.index, 2): 0.5,
                    (y.index, 1): 0.4,
                    (y.index, 2): 0.2,
                    (y.index, 3): 0.2,
                    (y.index, 4): 0.2,
                },
            )

    m.add(Fixed([x, y]))
    assert MaxSD(m).choose(m) == (x, 1)  # raw density favours x
    assert MaxRelSD(m).choose(m) == (y, 1)  # relative difference favours y
    assert MaxRelRatio(m).choose(m) == (y, 1)  # 0.4*4 > 0.5*2


def test_wscavg_weights_by_solution_count():
    # same variable in two constraints: one with many solutions favours
    # value a, one with few favours value b; the weighted average must
    # lean towards the large-count constraint
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    z = m.new_variable({1, 2, 3}, "z")

    from countsearch.engine import DensityTable

    class Big(AllDifferent):
        def count_densities(self, model):
            return DensityTable(
                self,
                math.log(100.0),
                {(x.index, 1): 0.9, (x.index, 2): 0.1,
                 (y.index, 1): 0.4, (y.index, 2): 0.3, (y.index, 3): 0.3},
            )

    class Small(AllDifferent):
        def count_densities(self, model):
            return DensityTable(
                self,
                math.log(10.0),
                {(x.index, 1): 0.2, (x.index, 2): 0.8,
                 (z.index, 1): 0.4, (z.index, 2): 0.3, (z.index, 3): 0.3},
            )

    m.add(Big([x, y]))
    m.add(Small([x, z]))
    h = WSCAvg(m)
    scores = {(vi, d): s for s, vi, d in h.scores(m)}
    # weighted: (100*0.9 + 10*0.2) / 110
    assert scores[(x.index, 1)] == pytest.approx((90 + 2) / 110)
    assert scores[(x.index, 2)] == pytest.approx((10 + 8) / 110)
    var, value = h.choose(m)
    assert (var, value) == (x, 1)


def test_minscmaxsd_uses_tightest_constraint():
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    z = m.new_variable({1, 2, 3}, "z")

    from countsearch.engine import DensityTable

    class Loose(AllDifferent):
        def count_densities(self, model):
            return DensityTable(
                self,
                math.log(500.0),
                {(x.index, 1): 0.9, (x.index, 2): 0.1,
                 (y.index, 1): 0.5, (y.index, 2): 0.3, (y.index, 3): 0.2},
            )

    class Tight(AllDifferent):
        def count_densities(self, model):
            return DensityTable(
                self,
                math.log(4.0),
                {(z.index, 3): 0.7, (z.index, 1): 0.2, (z.index, 2): 0.1,
                 (x.index, 1): 0.5, (x.index, 2): 0.5},
            )

    m.add(Loose([x, y]))
    m.add(Tight([x, z]))
    var, value = MinSCMaxSD(m).choose(m)
    assert (var, value) == (z, 3)  # best pair inside the tight constraint


def test_dom_prefers_smallest_domain():
    m = Model()
    x = m.new_variable({1, 2, 3}, "x")
    y = m.new_variable({1, 2}, "y")
    m.add(AllDifferent([x, y]))
    var, value = Dom(m, random.Random(0)).choose(m)
    assert var is y
    assert value in m.domain(y)


def test_domwdeg_learns_from_wipeouts():
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2}, "y")
    z = m.new_variable({1}, "z")
    c1 = m.add(AllDifferent([x, y]))
    c2 = m.add(AllDifferent([y, z]))
    h = DomWdeg(m)
    assert h.state.weight(c1) == 1
    # force a wipeout caused by c2 (y = z = 1)
    status = m.push_decision("assign", y, 1)
    assert status == WIPEOUT
    m.backtrack_to(0)
    assert h.state.weight(c2) == 2
    assert h.state.weight(c1) == 1


def test_domwdeg_ranking_follows_weights():
    m = Model()
    x = m.new_variable({1, 2, 3}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    z = m.new_variable({1, 2, 3}, "z")
    c1 = m.add(AllDifferent([x, y]))
    c2 = m.add(AllDifferent([y, z]))
    h = DomWdeg(m)
    h.state._bump(c2)
    h.state._bump(c2)
    # wdeg(x)=1, wdeg(y)=1+3=4, wdeg(z)=3: y has the best dom/wdeg
    var, value = h.choose(m)
    assert var is y
    assert value == m.min(var)


class _Inert(Constraint):
    """A scope and nothing else."""

    def propagate(self, model):
        return True


def _reference_wdeg_sum(model, state, var):
    """Weighted degree of one variable, scanned from its watchers."""
    total = 0
    for c in model._watchers[var.index]:
        others = sum(
            1 for v in c.scope if v.index != var.index and not model.is_bound(v)
        )
        if others:
            total += state.weight(c)
    return total


def test_wdeg_sums_match_per_variable_scan():
    rng = random.Random(11)
    for _ in range(200):
        m = Model()
        xs = [m.new_variable(range(rng.randint(1, 3))) for _ in range(6)]
        state = WdegState(m)
        for _ in range(rng.randint(1, 6)):
            # sampled with replacement, so a scope may repeat a variable
            scope = [rng.choice(xs) for _ in range(rng.randint(1, 4))]
            c = m.add(_Inert(scope))
            for _ in range(rng.randint(0, 3)):
                state._bump(c)
        m.add(_Inert([xs[0], xs[0]]))
        for x in xs:
            if rng.random() < 0.4:
                m.assign(x, m.min(x))
        sums = _wdeg_sums(m, state)
        for x in m.unbound_variables():
            assert sums[x.index] == _reference_wdeg_sum(m, state, x)


def test_domdeg_uses_static_degree():
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2}, "y")
    z = m.new_variable({1, 2}, "z")
    m.add(AllDifferent([x, y]))
    m.add(AllDifferent([y, z]))
    var, value = DomDeg(m).choose(m)
    assert var is y  # degree 2, same domain size as the others
    assert value == 1


def test_ibs_ranks_by_impact():
    # y is in two constraints: assigning it shrinks the space more
    m = Model()
    x = m.new_variable({1, 2, 3}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    z = m.new_variable({1, 2, 3}, "z")
    m.add(AllDifferent([x, y]))
    m.add(AllDifferent([y, z]))
    m.propagate()
    h = Ibs(m, random.Random(0))
    var, value = h.choose(m)
    assert var is y
    assert m.level == 0  # probing fully undone


def test_ibs_observe_feeds_averages():
    m = Model()
    x = m.new_variable({1, 2}, "x")
    h = Ibs(m, random.Random(0))
    h.observe(x, 1, 0.25)
    h.observe(x, 1, 0.75)
    assert h._avg(x.index, 1) == pytest.approx(0.5)


def _free_alldiff(n=4):
    m = Model()
    xs = [m.new_variable(set(range(1, n + 1)), f"x{i}") for i in range(n)]
    m.add(AllDifferent(xs))
    return m


@pytest.mark.parametrize("name", ["ibs", "ibs+maxSD"])
def test_search_feeds_impacts_to_ibs(name):
    m = _free_alldiff()
    h = make_heuristic(name, m)
    ibs = h if name == "ibs" else h.var_rule
    impacts = []
    ibs.observe = lambda var, value, impact: impacts.append(impact)
    assert dfs(m, h).status == SAT
    assert impacts
    assert all(0.0 < impact <= 1.0 for impact in impacts)


@pytest.mark.parametrize("name", [n for n in HEURISTIC_NAMES if "ibs" not in n])
def test_search_skips_the_impact_scan_for_other_heuristics(name):
    m = _free_alldiff()
    scans = []
    m.log_search_space = lambda: scans.append(m.level) or 0.0
    assert dfs(m, make_heuristic(name, m)).status == SAT
    assert scans == []


def test_hybrid_var_and_value_split():
    m, xs = golden_knapsack_model()
    calls = []

    class PickFirst(MaxSD):
        def choose(self, model, randomized=False):
            calls.append("var")
            return xs[0], 0

    def value_rule(model, var):
        calls.append("value")
        return max(model.domain(var))

    h = VarThenValue(m, PickFirst(m), value_rule)
    var, value = h.choose(m)
    assert var is xs[0]
    assert value == 2
    assert calls == ["var", "value"]


def test_registry_covers_all_names():
    for name in HEURISTIC_NAMES:
        m, _ = golden_knapsack_model()
        h = make_heuristic(name, m, random.Random(0))
        pick = h.choose(m)
        assert pick is not None
        var, value = pick
        assert value in m.domain(var)
        assert m.level == 0


def test_registry_rejects_unknown_name():
    m = Model()
    with pytest.raises(ValueError, match="maxSD"):
        make_heuristic("bogus", m)


def test_deterministic_choice_is_stable():
    for name in ("maxSD", "maxRelSD", "aAvgSD", "wSCAvg", "minSCMaxSD"):
        picks = set()
        for _ in range(3):
            m, _ = golden_knapsack_model()
            var, value = make_heuristic(name, m, random.Random(0)).choose(m)
            picks.add((var.name, value))
        assert len(picks) == 1


def test_randomized_choice_stays_in_top_two():
    m, xs = golden_knapsack_model()
    h = MaxSD(m, random.Random(7))
    seen = set()
    for _ in range(50):
        var, value = h.choose(m, randomized=True)
        seen.add((var.name, value))
    # the two best pairs are x4=1 and x4=2 (both 11/22)
    assert seen == {("x4", 1), ("x4", 2)}


def test_fail_first_tendency_on_forced_value():
    # a nearly-forced pair must outrank loose ones for maxSD
    m = Model()
    xs = [m.new_variable(d, f"x{i}") for i, d in
          enumerate([{1, 2, 3}, {2, 3}, {3, 4}])]
    m.add(AllDifferent(xs))
    m.propagate()
    var, value = MaxSD(m).choose(m)
    # exact densities: sigma(x2, 4) = 3/5 is the unique maximum
    assert var is xs[2]
    assert value == 4
