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
from countsearch.engine import CONSISTENT, FORWARD_CHECKING, WIPEOUT, Model
from countsearch.factors import bm_log_factor, lb_log_bound
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import Dom
from countsearch.oracle import (
    count_perfect_matchings,
    exact_count_densities,
    exact_permanent,
)
from countsearch.search import SAT, dfs


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


def _reference_forward_check(c, model):
    """Forward checking as passes over the whole scope, each counting the
    values over the scope's domains first: the removals and their order
    that ``AllDifferent._forward_check`` must reproduce."""
    doms = c._domains(model)
    changed = True
    while changed:
        changed = False
        counts = Counter(chain.from_iterable(doms))
        for i, dom in enumerate(doms):
            if len(dom) != 1:
                continue
            value = next(iter(dom))
            if counts[value] == 1:
                continue
            for k, odom in enumerate(doms):
                if k != i and value in odom:
                    was_unbound = len(odom) > 1
                    if not model.remove_value(c.scope[k], value, c):
                        return None
                    if was_unbound and len(odom) == 1:
                        changed = True
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
    values = list(counts)
    val_idx = {v: i for i, v in enumerate(values)}
    dead = regin_dead_arcs([[val_idx[d] for d in dom] for dom in doms], len(values))
    if dead is None:
        return False
    for x, v in dead:
        if not model.remove_value(scope[x], values[v], c):
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


@st.composite
def _value_graphs(draw):
    """Up to 7 rows over up to 9 values, some rows repeated (the same
    list), as GCC's dummy variables are."""
    n_vals = draw(st.integers(0, 9))
    row = st.lists(st.integers(0, max(n_vals - 1, 0)), unique=True,
                   max_size=n_vals)
    rows = draw(st.lists(row, max_size=7))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=7 - len(rows)))
    return rows, n_vals


@settings(max_examples=400, deadline=None)
@given(_value_graphs())
@example(([[0, 1], [1, 2], [2]], 3))  # a chain: every non-diagonal arc dies
@example(([[0, 1], [1, 2], [2, 3]], 4))  # a free value at the end keeps all
@example(([[0, 1], [0, 1], [1, 2, 3], [3, 4]], 5))  # a cycle and a path
@example(([[0, 1], [0, 1], [0, 1]], 2))  # too few values
@example(([[1, 2, 3], [0], [0]], 4))  # enough values, no covering matching
@example(([], 0))
def test_regin_dead_arcs_are_the_arcs_no_matching_uses(graph):
    adj, n_vals = graph
    arcs = [(x, v) for x, vs in enumerate(adj) for v in vs]
    used = set()
    found = False
    for values in _covering_matchings(adj):
        found = True
        used.update(enumerate(values))
        if len(used) == len(arcs):
            break
    expected = [a for a in arcs if a not in used] if found else None
    assert regin_dead_arcs(adj, n_vals) == expected


def test_regin_dead_arcs_on_long_chains():
    # no free value: x_i -> x_{i+1} is never on a cycle; one free value
    # past the end: every variable reaches it
    n = 3000
    chain = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    assert regin_dead_arcs(chain, n) == [(i, i + 1) for i in range(n - 1)]
    assert regin_dead_arcs([[i, i + 1] for i in range(n)], n + 1) == []


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



# _kuhn_matching's try_augment nests one call per step of an augmenting
# path, so a path longer than the recursion limit raises.  An
# explicit-stack search in the same visiting order fixes it, but it is
# held back: the recursive one leaves a reference cycle per call, which
# keeps the cyclic collector making full collections, and perfbench's job
# recorder holds each finished model in a cycle only those free.  With the
# explicit stack, qwh-domWDeg peak_rss_mb rose from 29 to 39 MB, past its
# bound.  It lands once that recorder no longer keeps models in a cycle
# (ROADMAP.md, "One job path" and "the last known crash").
@pytest.mark.xfail(raises=RecursionError, strict=True)
def test_long_augmenting_path_does_not_overflow_the_stack():
    # x_i in {8i, 8i+8} plus two variables over {0, 8n+8}: each domain
    # iterates its smaller value first, so the greedy matching leaves one
    # augmenting path through the whole chain (n = 900 solves)
    n = 1100
    m = Model()
    xs = [m.new_variable({8 * i, 8 * i + 8}) for i in range(n - 1)]
    xs += [m.new_variable({0, 8 * n + 8}) for _ in range(2)]
    c = m.add(AllDifferent(xs))
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
    total = sum(math.exp(v - top) for v in finite)
    return {
        d: (math.exp(v - top) / total if v > -math.inf else 0.0)
        for d, v in raw.items()
    }


def _reference_density_table(domains):
    """(log count, densities) computed probe by probe: the count takes the
    tighter of Bregman-Minc and ``lb_log_bound`` on the root rows, and
    each probe's Bregman-Minc bound is updated from the root by the
    touched rows' factors, holder by holder."""
    rows, p, _ = _padded_rows(domains)
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
            raw[d] = var_ub + delta
        for d, sigma in _reference_log_norm(raw).items():
            densities[(i, d)] = sigma
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


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.sets(st.integers(1, 12), min_size=0, max_size=12),
            min_size=0,
            max_size=10,
        ),
        _qwh_rows(),
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
