"""Branching heuristics: selection rules, tie-breaking, learned state."""

import heapq
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.bench import apply_overrides, build_model, generate_magic, generate_qwh
from countsearch.engine import CONSISTENT, DOMAIN, WIPEOUT, Constraint, Model
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
    _rel_ratio_keys,
    _rel_sd_keys,
    _sd_keys,
    make_heuristic,
)
from countsearch.gcc import GlobalCardinality
from countsearch.knapsack import EXACT, GAUSSIAN, Knapsack
from countsearch.regular import Regular
from countsearch.search import SAT, dfs, lds, restart_search

from conftest import random_automaton, random_micro_model


def _wdeg_sums(model, state):
    """Weighted degree of every variable, indexed by variable index,
    recounted from scratch: the reference the kept degrees of
    ``DomWdeg`` must equal at every pick.

    A constraint counts towards a variable once per occurrence in its
    scope, and only while the scope holds another unbound variable (by
    index).  That is the case for every variable of the scope exactly
    when the scope holds two distinct unbound variables.  Bound
    variables' entries follow the same rule, which the kept degrees
    follow too, so the whole lists compare.
    """
    domains = model._domains
    sums = [0] * len(domains)
    for c in model.constraints:
        first = -1
        for v in c.scope:
            vi = v.index
            if len(domains[vi]) > 1 and vi != first:
                if first >= 0:
                    break
                first = vi
        else:
            continue
        weight = state.weight(c)
        for v in c.scope:
            sums[v.index] += weight
    return sums


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
    scores = {(vi, d): -neg for neg, vi, d in h.scores(m)}
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


def test_minscmaxsd_skips_tables_without_a_count():
    # a Gaussian Knapsack has no count estimate (-inf), which must not
    # read as the fewest solutions: the AllDifferent is left to choose in
    m = build_model(generate_magic(4, 0.1, 1))
    apply_overrides(m, DOMAIN, GAUSSIAN)
    assert m.propagate() == CONSISTENT
    alldiff = m.density_table(m.constraints[0])
    assert isinstance(alldiff.constraint, AllDifferent)
    assert [t.log_count for t in m.collect_densities()[1:]] == [-math.inf] * 10
    _, vi, d = min(
        (-sigma, vi, d)
        for (vi, d), sigma in alldiff.densities.items()
        if m.size(m.variables[vi]) > 1
    )
    assert MinSCMaxSD(m).choose(m) == (m.variables[vi], d)


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


def test_wdeg_ignores_a_wipeout_blamed_on_no_constraint():
    # refuting a variable's last value wipes out before any propagator runs
    m = Model()
    x = m.new_variable({1}, "x")
    y = m.new_variable({1, 2}, "y")
    m.add(AllDifferent([x, y]))
    state = WdegState(m)
    assert m.push_decision("refute", x, 1) == WIPEOUT
    assert (state.weights, state.bumped) == ({}, [])


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
    assert value == min(m.domain(var))


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
                m.assign(x, min(m.domain(x)))
        sums = _wdeg_sums(m, state)
        for x in m.unbound_variables():
            assert sums[x.index] == _reference_wdeg_sum(m, state, x)


def _least_ratio_pick(model, degrees):
    """The unbound variable with the least (|D| / degree, index), a degree
    of 0 ranking as inf, scanned one variable at a time."""

    def key(v):
        deg = degrees[v.index]
        return (model.size(v) / deg if deg else math.inf, v.index)

    return min(model.unbound_variables(), key=key, default=None)


class _CheckedDomWdeg(DomWdeg):
    """DomWdeg that checks, at every pick, its kept degrees against a
    recount from scratch and its pick against a scan of those degrees."""

    def __init__(self, model):
        super().__init__(model)
        self.checked = 0

    def choose(self, model, randomized=False):
        pick = super().choose(model, randomized)
        degrees = _wdeg_sums(model, self.state)
        assert self._wdeg == degrees
        var = _least_ratio_pick(model, degrees)
        assert pick == (None if var is None else (var, min(model.domain(var))))
        self.checked += 1
        return pick


def _repeating_model(rng):
    """Three to six variables under AllDifferent and Knapsack constraints;
    a Knapsack's scope is drawn with replacement, so it may repeat a
    variable."""
    m = Model()
    xs = [
        m.new_variable(rng.sample(range(1, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(3, 6))
    ]
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            m.add(AllDifferent(rng.sample(xs, rng.randint(2, 3))))
        else:
            scope = [rng.choice(xs) for _ in range(rng.randint(2, 4))]
            coeffs = [rng.randint(1, 3) for _ in scope]
            lo = rng.randint(0, 4 * sum(coeffs))
            m.add(Knapsack(scope, coeffs, lo, rng.randint(lo, 4 * sum(coeffs))))
    return m


SEARCHES = {
    "dfs": lambda m, h: dfs(m, h, backtrack_limit=40),
    "restart": lambda m, h: restart_search(m, h, scale=2, backtrack_limit=40),
    "lds": lambda m, h: lds(m, h, backtrack_limit=40),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_kept_wdeg_equals_a_recount_at_every_pick(search):
    """The degrees DomWdeg keeps across picks, and the heuristic with
    them across the runs back to the root, equal ``_wdeg_sums`` at every
    pick, on micro models whose scopes repeat variables."""
    rng = random.Random(25)
    checked = bumps = repeating = 0
    for _ in range(200):
        m = _repeating_model(rng)
        h = _CheckedDomWdeg(m)
        SEARCHES[search](m, h)
        checked += h.checked
        bumps += sum(h.state.weights.values())
        repeating += h.checked > 1 and any(c.repeats() for c in m.constraints)
    assert checked > 300
    assert bumps > 75  # the searches hit wipeouts
    assert repeating > 35  # and scopes that repeat a variable


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_kept_wdeg_equals_a_recount_on_a_quasigroup(search):
    m = build_model(generate_qwh(20, 0.42, 0))
    h = _CheckedDomWdeg(m)
    SEARCHES[search](m, h)
    assert h.checked > 30
    assert sum(h.state.weights.values()) > 5


def test_domwdeg_ranks_a_degree_of_zero_last():
    m = Model()
    free = m.new_variable({1, 2}, "free")  # on no constraint
    x = m.new_variable({1, 2, 3}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    m.add(AllDifferent([x, y]))
    for h in (DomWdeg(m), DomDeg(m)):
        assert h.choose(m) == (x, 1)  # 3/1 beats 2/0
        m.push_decision("assign", x, 1)
        # y is on a constraint that no longer counts: every degree is 0 to
        # dom/wdeg, so the lower index goes first
        assert h.choose(m)[0] is (free if isinstance(h, DomWdeg) else y)
        m.backtrack_to(0)


def test_domdeg_lists_its_static_degrees_once():
    m = _free_alldiff(5)
    resets = []

    class Counting(DomDeg):
        def _reset(self, model):
            resets.append(model.level)
            super()._reset(model)

    h = Counting(m)
    assert dfs(m, h).status == SAT
    assert resets == [0]
    m.backtrack_to(0)
    m.add(AllDifferent(m.variables[:2]))  # a new constraint: new degrees
    assert h.choose(m) is not None
    assert resets == [0, 0]


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


def test_ibs_branch_feeds_averages():
    # x = 1 removes two thirds of the space at the root (y loses 1) and
    # half of it once y = 3
    m = Model()
    x = m.new_variable({1, 2}, "x")
    y = m.new_variable({1, 2, 3}, "y")
    m.add(AllDifferent([x, y]))
    h = Ibs(m, random.Random(0))
    assert h.branch(m, x, 1) == CONSISTENT
    m.backtrack_to(0)
    m.push_decision("assign", y, 3)
    assert h.branch(m, x, 1) == CONSISTENT
    total, n = h._impacts[x.index, 1]
    assert n == 2
    assert total == pytest.approx(2 / 3 + 1 / 2)
    assert h._avg(x.index, 1) == pytest.approx(7 / 12)


def test_ibs_branch_counts_a_wipeout_as_impact_one():
    m = Model()
    x, y, z = (m.new_variable({1, 2}, name) for name in "xyz")
    for pair in ((x, y), (y, z), (x, z)):
        m.add(AllDifferent(list(pair)))
    h = Ibs(m, random.Random(0))
    assert h.branch(m, x, 1) == WIPEOUT
    assert h._impacts[x.index, 1] == (1.0, 1)


def _free_alldiff(n=4):
    m = Model()
    xs = [m.new_variable(set(range(1, n + 1)), f"x{i}") for i in range(n)]
    m.add(AllDifferent(xs))
    return m


@pytest.mark.parametrize("name", ["ibs", "ibs+maxSD"])
def test_search_feeds_impacts_to_ibs(name):
    # the search takes each pick's left branch through Ibs.branch, which
    # records its impact, as it does each probe's
    m = _free_alldiff()
    h = make_heuristic(name, m)
    ibs = h if name == "ibs" else h.var_rule
    choose, branch, events = h.choose, ibs.branch, []

    def chosen(model, randomized=False):
        pick = choose(model, randomized)
        events.append(("pick", pick))
        return pick

    def branched(model, var, value):
        events.append(("branch", (var, value)))
        return branch(model, var, value)

    h.choose, ibs.branch = chosen, branched
    assert dfs(m, h).status == SAT
    picks = [i for i, (kind, pick) in enumerate(events) if kind == "pick" and pick]
    assert picks
    assert all(events[i + 1] == ("branch", events[i][1]) for i in picks)
    records = ibs._impacts.values()
    assert sum(n for _, n in records) == sum(kind == "branch" for kind, _ in events)
    assert all(0.0 < total / n <= 1.0 for total, n in records)


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


def test_max_density_value_counts_only_the_variables_tables():
    m = Model()
    x = m.new_variable({1, 2, 3})
    y = m.new_variable({1, 2})
    z = m.new_variable({1, 2, 3, 4})
    u, v = (m.new_variable({1, 2}) for _ in range(2))
    own = m.add(AllDifferent([x, y, z]))
    other = m.add(AllDifferent([u, v]))
    m.propagate()
    h = make_heuristic("domWDeg+maxSD", m)
    value = h.value_rule(m, x)
    assert own.cache is not None
    assert other.cache is None
    # the same value as a scan of every table
    table = m.collect_densities()[0]
    assert value == max(m.domain_sorted(x), key=lambda d: table.density(x, d)) == 3


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


# ----------------------------------------------------------------------
# per-table least keys against a scan of every key
# ----------------------------------------------------------------------
def _all_keys(name, model):
    """Every rank key the rule gives, scanned from the live tables."""
    domains = model._domains
    tables = model.collect_densities()
    if name == "minSCMaxSD":
        live = [
            t
            for t in tables
            if t.log_count != -math.inf
            and any(len(domains[v.index]) > 1 for v in t.constraint.scope)
        ]
        if not live:
            return []
        tables = [min(live, key=lambda t: (t.log_count, t.constraint.cid))]
    keys = []
    for table in tables:
        for var in table.constraint.scope:
            vi, dom = var.index, domains[var.index]
            if len(dom) < 2:
                continue
            for d in dom:
                neg = -table.densities.get((vi, d), 0.0)
                if name == "maxRelSD":
                    neg = neg + 1.0 / len(dom)
                elif name == "maxRelRatio":
                    neg = neg * len(dom)
                keys.append((neg, vi, d))
    return keys


class _Forced(random.Random):
    """A generator whose ``randrange`` returns ``index`` and counts calls."""

    def __init__(self):
        super().__init__(0)
        self.index = 0
        self.calls = 0

    def randrange(self, *args):
        self.calls += 1
        return self.index


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["maxSD", "maxRelSD", "maxRelRatio", "minSCMaxSD"]),
    search=st.sampled_from(sorted(SEARCHES)),
)
def test_table_least_keys_give_the_full_scan_pick(seed, name, search):
    """At every ``choose`` of a search, the pick (or, randomized, the pool
    drawn from) is the least (two least) of every key of the live tables."""
    model = random_micro_model(random.Random(seed))
    assume(model.propagate() == CONSISTENT)
    rng = _Forced()
    h = make_heuristic(name, model, rng)
    choose = h.choose
    def checking(m, randomized=False):
        keys = _all_keys(name, m)
        rng.index, rng.calls = 0, 0
        pick = choose(m, randomized)
        picks = [pick]
        if rng.calls:
            rng.index = 1
            picks.append(choose(m, randomized))
        unbound = [v for v in m.variables if m.size(v) > 1]
        if not unbound:
            assert pick is None
        elif not keys:
            assert picks == [(unbound[0], min(m.domain(unbound[0])))]
        else:
            pool = heapq.nsmallest(2, keys) if randomized else [min(keys)]
            assert [(v.index, d) for v, d in picks] == [(vi, d) for _, vi, d in pool]
        return pick

    h.choose = checking
    SEARCHES[search](model, h)


# ----------------------------------------------------------------------
# rank keys read from a table's entries against a scan of its scope
# ----------------------------------------------------------------------
RULES = {"maxSD": _sd_keys, "maxRelSD": _rel_sd_keys, "maxRelRatio": _rel_ratio_keys}


@st.composite
def _counted_models(draw):
    """A model with one counting constraint of any kind over up to five
    variables, some of which may fill two or three scope positions."""
    n = draw(st.integers(2, 5))
    n_values = draw(st.integers(2, 4))
    values = st.integers(1, n_values)
    kind = draw(
        st.sampled_from(["alldifferent", "symmetric", "gcc", "regular", "knapsack", "gaussian"])
    )
    m = Model()
    if kind == "symmetric":
        entities = st.integers(1, n)
        xs = [m.new_variable(draw(st.sets(entities, min_size=1))) for _ in range(n)]
        return m, m.add(SymmetricAllDifferent(xs))
    xs = [m.new_variable(draw(st.sets(values, min_size=1))) for _ in range(n)]
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    scope = draw(st.permutations(xs + [xs[i] for i in repeats]))
    if kind == "alldifferent":
        c = AllDifferent(scope)
    elif kind == "gcc":
        lower = draw(st.dictionaries(values, st.integers(0, 1)))
        upper = draw(st.dictionaries(values, st.integers(1, len(scope))))
        c = GlobalCardinality(scope, lower, upper)
    elif kind == "regular":
        rng = random.Random(draw(st.integers(0, 2**16)))
        c = Regular(scope, random_automaton(rng, 3, range(1, n_values + 1)))
    else:
        coeffs = draw(st.lists(st.integers(0, 4), min_size=len(scope), max_size=len(scope)))
        top = sum(coeffs) * n_values
        lo = draw(st.integers(0, top))
        hi = draw(st.integers(lo, top))
        mode = GAUSSIAN if kind == "gaussian" else EXACT
        c = Knapsack(scope, coeffs, lo, hi, mode=mode)
    return m, m.add(c)


@settings(max_examples=400, deadline=None)
@given(_counted_models())
def test_table_rules_list_the_keys_of_a_scope_scan(case):
    """Each table rule lists the keys of the scope scan (``_all_keys``,
    one scope variable at a time), repeats counted, so the table's two
    least keys, and the randomized picks drawn from them, are the
    scan's."""
    model, c = case
    assume(model.propagate() == CONSISTENT)
    domains = model._domains
    table = model.density_table(c)
    for name, rule in RULES.items():
        scan = sorted(_all_keys(name, model))
        assert sorted(rule(table, domains)) == scan
        assert table.least_keys(rule, domains) == tuple(scan[:2])
        rng = _Forced()
        h = make_heuristic(name, model, rng)
        for index in (0, 1):
            rng.index = index
            pick = h.choose(model, randomized=True)
            if not scan:
                assert pick is None
                continue
            _, vi, d = scan[index] if len(scan) > 1 else scan[0]
            assert (pick[0].index, pick[1]) == (vi, d)
