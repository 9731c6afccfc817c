"""Knapsack constraint: exact graph counting and Gaussian approximation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countsearch import knapsack
from countsearch.bench import apply_overrides, build_model, generate_marketsplit
from countsearch.engine import CONSISTENT, DOMAIN, FORWARD_CHECKING, WIPEOUT, Model
from countsearch.heuristics import MaxSD
from countsearch.knapsack import (
    EXACT,
    GAUSSIAN,
    Knapsack,
    build_sum_graph,
    interval_moments,
)
from countsearch.oracle import exact_count_densities
from countsearch.search import SAT, dfs

from conftest import random_domains

GOLDEN_COEFFS = (3, 1, 2, 1)
GOLDEN_DOMAINS = [{0, 1, 2}, {0, 1, 3}, {0, 1, 2}, {1, 2}]
GOLDEN_LO, GOLDEN_HI = 5, 8
GOLDEN_DENSITIES = {
    (0, 0): Fraction(9, 22),
    (0, 1): Fraction(10, 22),
    (0, 2): Fraction(3, 22),
    (1, 0): Fraction(8, 22),
    (1, 1): Fraction(8, 22),
    (1, 3): Fraction(6, 22),
    (2, 0): Fraction(9, 22),
    (2, 1): Fraction(7, 22),
    (2, 2): Fraction(6, 22),
    (3, 1): Fraction(11, 22),
    (3, 2): Fraction(11, 22),
}


def _golden_model():
    m = Model()
    xs = [m.new_variable(set(d)) for d in GOLDEN_DOMAINS]
    c = m.add(Knapsack(xs, GOLDEN_COEFFS, GOLDEN_LO, GOLDEN_HI))
    return m, xs, c


def test_golden_count_is_22():
    graph = build_sum_graph(
        GOLDEN_COEFFS, GOLDEN_DOMAINS, GOLDEN_LO, GOLDEN_HI
    )
    assert graph.path_counts()[0] == 22


def test_golden_densities_exact():
    m, xs, c = _golden_model()
    assert m.propagate() == CONSISTENT
    table = m.collect_densities()[0]
    assert math.exp(table.log_count) == pytest.approx(22.0, rel=1e-12)
    for (i, d), frac in GOLDEN_DENSITIES.items():
        assert table.density(xs[i], d) == pytest.approx(
            float(frac), abs=1e-12
        )
    # oracle agrees with the published fractions
    count, dens = exact_count_densities(c, GOLDEN_DOMAINS)
    assert count == 22
    for (i, d), frac in GOLDEN_DENSITIES.items():
        assert dens[(xs[i].index, d)] == frac


def test_domain_filtering_matches_oracle_supports():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        domains = random_domains(rng, n, 4)
        coeffs = [rng.randint(-3, 4) or 1 for _ in range(n)]
        total = [sum(c * d for c, d in zip(coeffs, pick))
                 for pick in [[min(x) for x in domains], [max(x) for x in domains]]]
        lo = rng.randint(min(min(total), 0), max(total))
        hi = rng.randint(lo, max(total))
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        c = m.add(Knapsack(xs, coeffs, lo, hi))
        status = m.propagate()
        count, dens = exact_count_densities(c, domains)
        if count == 0:
            assert status == WIPEOUT
            continue
        assert status == CONSISTENT
        for i, x in enumerate(xs):
            supported = {d for (vi, d) in dens if vi == x.index}
            assert m.domain(x) == supported


def test_exact_densities_match_oracle_randomized():
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        domains = random_domains(rng, n, 4)
        coeffs = [rng.randint(1, 5) for _ in range(n)]
        hi_all = sum(c * max(d) for c, d in zip(coeffs, domains))
        lo = rng.randint(0, hi_all)
        hi = rng.randint(lo, hi_all)
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        c = m.add(Knapsack(xs, coeffs, lo, hi))
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


def test_bounds_filter_prunes_interval_infeasible_values():
    m = Model()
    xs = [m.new_variable({0, 1, 2, 5}), m.new_variable({0, 1})]
    m.add(Knapsack(xs, [1, 1], 0, 3, consistency=FORWARD_CHECKING))
    assert m.propagate() == CONSISTENT
    assert 5 not in m.domain(xs[0])  # 5 + min(other)=0 > 3


def test_bounds_filter_wipes_out_infeasible_interval():
    m = Model()
    xs = [m.new_variable({4, 5}), m.new_variable({4, 5})]
    m.add(Knapsack(xs, [1, 1], 0, 3, consistency=FORWARD_CHECKING))
    assert m.propagate() == WIPEOUT


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([FORWARD_CHECKING, DOMAIN]))
def test_filtering_with_negative_coefficients_keeps_the_supports(data, level):
    """Against the oracle's supports, over coefficients in -4..4 and values
    in -3..3: the graph filter leaves exactly the supported values, and
    the bounds filter keeps each of them and stops at its fixpoint, where
    every value left fits the interval of the other terms' sums."""
    n = data.draw(st.integers(1, 4))
    domains = data.draw(
        st.lists(st.sets(st.integers(-3, 3), min_size=1), min_size=n, max_size=n)
    )
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    lower = data.draw(st.integers(-20, 20))
    upper = lower + data.draw(st.integers(0, 10))
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = m.add(Knapsack(xs, coeffs, lower, upper, level))
    status = m.propagate()
    count, dens = exact_count_densities(c, domains)
    supports = [{d for (vi, d) in dens if vi == x.index} for x in xs]
    if status == WIPEOUT:
        assert count == 0
        return
    live = [m.domain(x) for x in xs]
    if level == DOMAIN:
        assert count > 0
        assert live == supports
        return
    assert all(s <= dom for s, dom in zip(supports, live))
    lows = [min(k * d for d in dom) for k, dom in zip(coeffs, live)]
    highs = [max(k * d for d in dom) for k, dom in zip(coeffs, live)]
    for k, dom, low, high in zip(coeffs, live, lows, highs):
        for d in dom:
            assert k * d + sum(lows) - low <= upper
            assert k * d + sum(highs) - high >= lower


def test_equality_sum_binomial():
    # x_1 + ... + x_6 = 3 over binary domains: C(6,3) = 20 solutions,
    # each value's density is exactly 1/2
    m = Model()
    xs = [m.new_variable({0, 1}) for _ in range(6)]
    m.add(Knapsack(xs, [1] * 6, 3, 3))
    m.propagate()
    table = m.collect_densities()[0]
    assert math.exp(table.log_count) == pytest.approx(20.0)
    for x in xs:
        assert table.density(x, 1) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# moments and Gaussian mode
# ----------------------------------------------------------------------
def test_interval_moments_full_range():
    mean, var = interval_moments([0, 1, 2, 3, 4, 5])
    assert mean == pytest.approx(2.5)
    assert var == pytest.approx(35 / 12)


def test_interval_moments_sparse_domain():
    # interval moments over [0, 4] see the holes as present
    imean, ivar = interval_moments([0, 4])
    assert imean == pytest.approx(2.0)
    assert ivar == pytest.approx(2.0)


def test_gaussian_cache_centered_moments():
    # for 3x + 4y + 2z = t with x,y,z,t-side interval [l, u]
    m = Model()
    xs = [m.new_variable(set(range(6))) for _ in range(3)]
    c = Knapsack(xs, [3, 4, 2], 20, 25, mode=GAUSSIAN)
    domains = [m.domain(x) for x in xs]
    big_m, big_v = c.gaussian_moments(domains)
    assert big_m == pytest.approx((20 + 25) / 2 - 22.5)
    assert big_v == pytest.approx((6 * 6 - 1) / 12 + 84.583, abs=1e-3)


def test_gaussian_masses_normalized_and_peaked():
    m = Model()
    xs = [m.new_variable(set(range(6))) for _ in range(3)]
    c = Knapsack(xs, [3, 4, 2], 22, 23, mode=GAUSSIAN)
    domains = [m.domain(x) for x in xs]
    moments = c.gaussian_moments(domains)
    for i in range(3):
        masses = c.gaussian_masses(domains, i, moments)
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)
        # a tight central sum prefers central values over extremes
        assert masses[2] > masses[0]
        assert masses[3] > masses[5]


def test_gaussian_best_pair_tracks_exact_mode():
    # on a symmetric instance both modes should agree on the best value
    rng = random.Random(47)
    agreements = 0
    trials = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        domains = [set(range(rng.randint(3, 6))) for _ in range(n)]
        coeffs = [rng.randint(1, 4) for _ in range(n)]
        hi_all = sum(c * max(d) for c, d in zip(coeffs, domains))
        mid = hi_all // 2
        lo, hi = mid - 2, mid + 2
        gauss = Model()
        gxs = [gauss.new_variable(set(d)) for d in domains]
        gc = Knapsack(gxs, coeffs, lo, hi, mode=GAUSSIAN)
        exact = Model()
        exs = [exact.new_variable(set(d)) for d in domains]
        ec = exact.add(Knapsack(exs, coeffs, lo, hi))
        if exact.propagate() == WIPEOUT:
            continue
        table = exact.collect_densities()[0]
        moments = gc.gaussian_moments(domains)
        for i in range(n):
            trials += 1
            masses = gc.gaussian_masses(domains, i, moments)
            gbest = max(masses.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            ebest = max(
                sorted(domains[i]), key=lambda d: (table.density(exs[i], d), -d)
            )
            if gbest == ebest:
                agreements += 1
    assert trials >= 100
    # Gaussian mode is an approximation: demand clear better-than-chance
    # agreement with the exact best value, not equality
    assert agreements / trials > 0.55


def test_gaussian_densities_follow_every_domain_change():
    # {1,2,5} and {2,3,4} have the same size and the same min + max, but
    # not the same interval variance: V is 38/3 on the first domains and
    # 34/3 on the second, so x1 and x2 get other densities
    m = Model()
    xs = [m.new_variable(range(1, 6)), m.new_variable({1, 2, 3}),
          m.new_variable({1, 2, 3})]
    c = Knapsack(xs, [1, 2, 3], 10, 14, mode=GAUSSIAN)
    for keep in ({1, 2, 5}, {2, 3, 4}):
        level = m.push_level()
        for d in set(range(1, 6)) - keep:
            m.remove_value(xs[0], d)
        table = c.count_densities(m)
        fresh = Knapsack(xs, [1, 2, 3], 10, 14, mode=GAUSSIAN)
        assert table.densities == fresh.count_densities(m).densities
        m.backtrack_to(level - 1)
    domains = [{2, 3, 4}, {1, 2, 3}, {1, 2, 3}]
    assert c.gaussian_moments(domains)[1] == pytest.approx(34 / 3)
    assert c.gaussian_moments([{1, 2, 5}, *domains[1:]])[1] == pytest.approx(38 / 3)


def test_gaussian_residual_fallback_is_exact():
    # all variables bound but one: fallback enumerates feasible values
    # equality constraint with every other variable bound drives the
    # Gaussian variance to zero, switching to exact enumeration
    m = Model()
    xs = [m.new_variable({2}), m.new_variable({0, 1, 2, 3})]
    c = Knapsack(xs, [1, 1], 3, 3, mode=GAUSSIAN)
    domains = [m.domain(x) for x in xs]
    masses = c.gaussian_masses(domains, 1, c.gaussian_moments(domains))
    assert masses == {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}


def test_gaussian_residual_fallback_when_no_value_fits():
    # the bound variable's 2 leaves 10 out of reach of every value of x1
    m = Model()
    xs = [m.new_variable({2}), m.new_variable({0, 1})]
    c = Knapsack(xs, [1, 1], 10, 10, mode=GAUSSIAN)
    domains = [m.domain(x) for x in xs]
    masses = c.gaussian_masses(domains, 1, c.gaussian_moments(domains))
    assert masses == {0: 0.0, 1: 0.0}


def test_gaussian_underflow_gives_the_nearest_value_all_the_mass():
    # the sum must reach 100 from two 0-1 terms: x0's conditional mean is
    # 99.5 with deviation 0.5, so every interval mass underflows to 0.0
    m = Model()
    xs = [m.new_variable({0, 1}), m.new_variable({0, 1})]
    c = Knapsack(xs, [1, 1], 100, 100, mode=GAUSSIAN)
    domains = [m.domain(x) for x in xs]
    masses = c.gaussian_masses(domains, 0, c.gaussian_moments(domains))
    assert masses == {0: 0.0, 1: 1.0}


def test_gaussian_table_has_no_count():
    m = Model()
    xs = [m.new_variable({0, 1, 2}) for _ in range(3)]
    m.add(Knapsack(xs, [1, 1, 1], 2, 4, mode=GAUSSIAN, consistency=FORWARD_CHECKING))
    m.propagate()
    table = m.collect_densities()[0]
    assert table.log_count == -math.inf
    for x in xs:
        total = sum(table.density(x, d) for d in m.domain_sorted(x))
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("consistency", [FORWARD_CHECKING, DOMAIN])
@pytest.mark.parametrize("overridden", [False, True], ids=["posted", "overridden"])
def test_a_gaussian_knapsack_never_builds_the_graph(monkeypatch, consistency, overridden):
    """It filters by bounds and counts by moments at every level, posted
    as it is or set by ``apply_overrides``, the CLI's path."""
    builds = []

    def counted(*args):
        builds.append(1)
        return build_sum_graph(*args)

    monkeypatch.setattr(knapsack, "build_sum_graph", counted)
    m = Model()
    xs = [m.new_variable(range(4)) for _ in range(3)]
    m.add(Knapsack(xs, [2, 3, 5], 8, 12, consistency, GAUSSIAN))
    if overridden:
        apply_overrides(m, consistency, GAUSSIAN)
    assert m.propagate() == CONSISTENT
    m.collect_densities()
    assert dfs(m, MaxSD(m)).status == SAT
    assert builds == []


def test_rejects_bad_arguments():
    m = Model()
    xs = [m.new_variable({0, 1})]
    with pytest.raises(ValueError):
        Knapsack(xs, [1, 2], 0, 1)
    with pytest.raises(ValueError):
        Knapsack(xs, [1], 0, 1, mode="fuzzy")


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_search_with_zero_coefficients(seed):
    # both instances have a zero coefficient, which must not be divided by
    model = build_model(generate_marketsplit(3, seed))
    knapsacks = [c for c in model.constraints if isinstance(c, Knapsack)]
    assert any(0 in c.coeffs for c in knapsacks)
    for c in knapsacks:
        c.mode, c.consistency = GAUSSIAN, FORWARD_CHECKING
    assert model.propagate() == CONSISTENT
    for c in knapsacks:
        table = c.count_densities(model)
        for var in c.scope:
            total = sum(table.density(var, d) for d in model.domain(var))
            assert total == pytest.approx(1.0)
    dfs(model, MaxSD(model), backtrack_limit=50)  # recounts at every node
