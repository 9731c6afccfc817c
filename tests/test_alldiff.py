"""alldifferent and symmetric_alldifferent: filtering and counting."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countsearch.alldiff import (
    AllDifferent,
    SymmetricAllDifferent,
    _log_norm,
    alldiff_density_table,
    padded_rows,
    sym_matching_log_bound,
)
from countsearch.engine import CONSISTENT, FORWARD_CHECKING, WIPEOUT, Model
from countsearch.factors import bm_log_factor, lb_log_bound
from countsearch.oracle import (
    count_perfect_matchings,
    exact_count_densities,
    exact_permanent,
)


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


def _reference_density_table(domains):
    """(log count, densities) computed probe by probe from rebuilt rows:
    each probe's row sums are listed in full and bounded by
    ``lb_log_bound``, the Bregman-Minc bound is updated from the root by
    the touched rows' factors, and the two are combined by min."""
    rows, p, u = padded_rows(domains)
    if any(r == 0 for r in rows):
        return -math.inf, {}
    pad_log = math.lgamma(p + 1)
    bm_root = sum(bm_log_factor(r) for r in rows) - pad_log
    log_count = min(bm_root, lb_log_bound(rows) - pad_log)
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
            probe_rows = [
                1 if k == i else (len(dk) - 1 if d in dk else len(dk))
                for k, dk in enumerate(domains)
            ] + [u] * p
            raw[d] = min(var_ub + delta, lb_log_bound(probe_rows) - pad_log)
        for d, sigma in _log_norm(raw).items():
            densities[(i, d)] = sigma
    return log_count, densities


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(1, 12), min_size=0, max_size=12),
        min_size=0,
        max_size=10,
    )
)
@example([{1, 2, 3, 4, 5}, {1, 2}, {2, 3}])  # union 5 > 3 variables: padded
@example([{1}, {1, 2}, {1, 2, 3}])  # probing x1 = 1 or x2 = 1 wipes out x0
@example([{1, 2}, set()])  # an empty domain: no probes at all
@example([])  # an empty scope
@example([set(range(1, 70)), {1, 2}, {2, 3}])  # 69 rows: past the shared table
def test_density_table_equals_rebuilt_row_reference(domains):
    m = Model()
    xs = [m.new_variable(d or {0}) for d in domains]
    c = AllDifferent(xs)
    table = alldiff_density_table(c, domains)
    log_count, densities = _reference_density_table(domains)
    # exact equality: a last-bit change can flip an exact tie in maxSD
    assert table.log_count == log_count
    assert table.densities == densities


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
