"""Global cardinality constraint: filtering and counting bounds."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countsearch import gcc
from countsearch.alldiff import probe_table
from countsearch.engine import CONSISTENT, FORWARD_CHECKING, WIPEOUT, Model
from countsearch.factors import bm_log_bound, lb_log_bound
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import Dom
from countsearch.oracle import exact_count_densities
from countsearch.search import SAT, dfs

from conftest import random_domains, random_gcc


def _post(domains, lower, upper, consistency="domain"):
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = m.add(GlobalCardinality(xs, lower, upper, consistency))
    return m, xs, c


def test_check_counts_occurrences():
    m, xs, c = _post([{1, 2}] * 3, {1: 1}, {1: 2, 2: 1})
    assert c.check([1, 2, 1])
    assert not c.check([2, 2, 1])  # value 2 above upper bound
    assert not c.check([2, 2, 2])  # value 1 below lower bound


def _bounded_gcc(rng: random.Random):
    """Lower bounds up to 3, upper bounds below the holder count and
    preset bound variables."""
    n = rng.randint(2, 6)
    n_values = rng.randint(2, 4)
    domains = random_domains(rng, n, n_values)
    for dom in domains:
        if rng.random() < 0.2:
            value = rng.choice(sorted(dom))
            dom.intersection_update({value})
    lower = {}
    upper = {}
    for d in range(1, n_values + 1):
        holders = sum(1 for dom in domains if d in dom)
        lower[d] = rng.choice([0, 0, 1, 2, 3])
        upper[d] = rng.randint(max(lower[d], 1), max(holders, lower[d], 1))
        if holders > 1 and rng.random() < 0.5:
            upper[d] = rng.randint(0, holders - 1)
    m = Model()
    xs = [m.new_variable(dom) for dom in domains]
    return GlobalCardinality(xs, lower, upper), domains


def test_domain_filtering_matches_oracle_supports():
    rng = random.Random(11)
    instances = [random_gcc(rng) for _ in range(60)]
    instances += [_bounded_gcc(rng) for _ in range(400)]
    consistent = 0
    for c, domains in instances:
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        cc = m.add(GlobalCardinality(xs, c.lower, c.upper))
        status = m.propagate()
        count, dens = exact_count_densities(cc, domains)
        if count == 0:
            assert status == WIPEOUT
            continue
        assert status == CONSISTENT
        consistent += 1
        for i, x in enumerate(xs):
            supported = {d for (vi, d) in dens if vi == x.index}
            assert m.domain(x) == supported
    assert consistent > 120


def test_long_augmenting_path_does_not_overflow_the_stack():
    # x_i in {8i, 8i+8} plus two variables over {0, 8n+8}, each value at
    # most once: the spacing makes each domain iterate its smaller value
    # first, so the greedy matching leaves one augmenting path through
    # the whole chain
    n = 900
    m = Model()
    xs = [m.new_variable({8 * i, 8 * i + 8}) for i in range(n - 1)]
    xs += [m.new_variable({0, 8 * n + 8}) for _ in range(2)]
    values = set().union(*(m.domain(x) for x in xs))
    c = m.add(GlobalCardinality(xs, {}, {d: 1 for d in values}))
    stats = dfs(m, Dom(m, random.Random(0)))
    assert stats.status == SAT
    assert c.check([stats.solution[x.name] for x in xs])


def test_fc_level_saturation():
    # two variables bound to value 1 saturate its upper bound of 2
    m, xs, c = _post(
        [{1}, {1}, {1, 2}, {1, 2}], {}, {1: 2, 2: 4}, FORWARD_CHECKING
    )
    assert m.propagate() == CONSISTENT
    assert m.domain(xs[2]) == {2}
    assert m.domain(xs[3]) == {2}


def test_unreachable_lower_bound_fails():
    m, xs, c = _post([{1}, {1}], {2: 1}, {1: 2, 2: 2}, FORWARD_CHECKING)
    assert m.propagate() == WIPEOUT



def _reference_counting_checks(c, model):
    """Forward checking as passes over the whole scope, each counting the
    bound values first: the removals, their order and the verdict that
    ``GlobalCardinality._counting_checks`` must reproduce."""
    doms = c._domains(model)
    saturated = set()
    changed = True
    while changed:
        changed = False
        counts = Counter(next(iter(dom)) for dom in doms if len(dom) == 1)
        for d, n in counts.items():
            if d in saturated:
                continue
            high = c.high(d)
            if n > high:
                return False
            if n < high:
                continue
            saturated.add(d)
            for var, dom in zip(c.scope, doms):
                if len(dom) > 1 and d in dom:
                    if not model.remove_value(var, d, c):
                        return False
                    if len(dom) == 1:
                        changed = True
    return all(
        sum(d in dom for dom in doms) >= low for d, low in c.lower.items() if low > 0
    )


class _CauseModel(Model):
    """A model that lists every removal (variable, value, cause)."""

    def __init__(self):
        super().__init__()
        self.removed = []

    def remove_value(self, var, value, cause=None):
        if value in self._domains[var.index]:
            self.removed.append((var.index, value, cause))
        return super().remove_value(var, value, cause)


@st.composite
def _counting_cases(draw):
    """Up to 8 variables over values 0-5, some bound, a scope of up to 12
    positions that may repeat a variable, and lower and upper bounds on
    some values."""
    domains = draw(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4),
                            min_size=1, max_size=8))
    scope = draw(st.lists(st.integers(0, len(domains) - 1), min_size=1, max_size=12))
    lower = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 3)))
    upper = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 4)))
    return domains, scope, lower, upper


def _chain_case(n):
    """x_i in {i, i+1} with x_{n-1} = n - 1, against scope order: every
    pass binds one more variable."""
    doms = [{i, i + 1} for i in range(n - 1)] + [{n - 1}]
    return doms[::-1], list(range(n)), {}, {d: 1 for d in range(n)}


@settings(max_examples=500, deadline=None)
@given(_counting_cases())
@example(_chain_case(8))
# value 1 saturates first and binds x2 to 2, which the same pass then
# saturates at the count it started with: the passes never see 2 twice
@example(([{1}, {2}, {1, 2}], [0, 1, 2], {}, {1: 1, 2: 1}))
# x0 fills positions 0 and 2, so binding it counts its value twice
@example(([{1, 2}, {1}, {2, 3}], [0, 1, 0, 2], {}, {1: 1, 2: 1}))
@example(([{1}, {1, 2}, {2, 3}], [0, 1, 2], {3: 1}, {1: 1, 2: 1}))  # lower bound fails
# one pass binds 2 and then 1: the next sweeps 2 first, as 2's bound
# position comes first
@example(([{0}, {0, 2}, {0, 1}, {1, 2, 3}], [0, 1, 2, 3], {}, {0: 1, 1: 1, 2: 1}))
def test_counting_checks_keep_the_reference_removals_in_order(case):
    """Every removal (variable, value, cause) in order, and the verdict,
    equal those of the pass-by-pass reference."""
    domains, scope, lower, upper = case
    runs = []
    for check in (GlobalCardinality._counting_checks, _reference_counting_checks):
        m = _CauseModel()
        xs = [m.new_variable(d) for d in domains]
        c = GlobalCardinality([xs[k] for k in scope], lower, upper, FORWARD_CHECKING)
        verdict = check(c, m)
        runs.append((verdict, [(x, v, cause is c) for x, v, cause in m.removed]))
    assert runs[0] == runs[1]


def test_alldifferent_degeneration():
    # l=0, u=1 for every value behaves exactly like alldifferent
    domains = [{1, 2}, {1, 2}, {1, 2, 3}]
    m, xs, c = _post(
        [set(d) for d in domains], {}, {1: 1, 2: 1, 3: 1}
    )
    count, _ = exact_count_densities(c, domains)
    assert count == 2  # permutations (1,2,3) and (2,1,3)
    bound = math.exp(c.log_count(domains))
    assert bound + 1e-9 >= count


def test_count_bound_dominates_exact_randomized():
    rng = random.Random(5)
    checked = 0
    for _ in range(150):
        c, domains = random_gcc(rng, n_vars=rng.randint(2, 6))
        count, _ = exact_count_densities(c, domains)
        bound = c.log_count(domains)
        if count == 0:
            continue
        checked += 1
        assert math.exp(bound) + 1e-9 >= count
    assert checked > 50


def test_bounded_matrices_have_no_row_sum_above_their_size(monkeypatch):
    """The lower graph (one column per required occurrence plus K fake
    columns) and the residual graph (K chosen rows plus fake rows) are
    square, so no row sum exceeds the row count: the rows on which
    ``tests/test_factors.py`` certifies Liang-Bai never below
    Bregman-Minc."""
    seen = []

    def recording(rows):
        seen.append(list(rows))
        return bm_log_bound(rows)

    monkeypatch.setattr(gcc, "bm_log_bound", recording)
    rng = random.Random(29)
    instances = [random_gcc(rng, n_vars=rng.randint(2, 7)) for _ in range(200)]
    instances += [_bounded_gcc(rng) for _ in range(400)]
    for c, domains in instances:
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        m.add(GlobalCardinality(xs, c.lower, c.upper)).count_densities(m)
    assert len(seen) > 1000
    for rows in seen:
        assert max(rows) <= len(rows)
        assert lb_log_bound(rows) >= bm_log_bound(rows) - 1e-9


def test_densities_normalized():
    rng = random.Random(23)
    for _ in range(30):
        c, domains = random_gcc(rng)
        count, _ = exact_count_densities(c, domains)
        if count == 0:
            continue
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        cc = m.add(GlobalCardinality(xs, c.lower, c.upper))
        if m.propagate() == WIPEOUT:
            continue
        table = m.collect_densities()[0]
        for x in xs:
            if m.is_bound(x):
                continue
            total = sum(table.density(x, d) for d in m.domain_sorted(x))
            assert total == pytest.approx(1.0, abs=1e-9)


def _recounted_table(c, domains):
    """The reference table: every probe recounts ``_probe_domains``."""
    return probe_table(
        c, domains, c.log_count(domains),
        lambda i: {
            d: c.log_count(c._probe_domains(domains, i, d)) for d in sorted(domains[i])
        },
    )


def _bits(table):
    return table.log_count.hex(), [(k, v.hex()) for k, v in table.densities.items()]


@st.composite
def _gcc_cases(draw):
    """Domains over up to 5 values, singletons for preset variables,
    scope positions repeating a variable, lower bounds up to 3 and upper
    bounds from 0 up to the scope size (often below the holder count)."""
    n_values = draw(st.integers(1, 5))
    values = st.integers(0, n_values - 1)
    domains = draw(
        st.lists(st.sets(values, min_size=1, max_size=n_values), min_size=1, max_size=7)
    )
    repeats = draw(st.lists(st.integers(0, len(domains) - 1), max_size=2))
    size = len(domains) + len(repeats)
    lower = draw(st.dictionaries(values, st.integers(0, 3)))
    upper = draw(st.dictionaries(values, st.integers(0, size)))
    return domains, repeats, lower, upper


@settings(max_examples=600, deadline=None)
@given(_gcc_cases())
# positive lower bounds; the denominator moves with the probe
@example(([{0, 1}, {0, 1}, {1, 2}, {0, 1, 2}], [], {0: 2, 1: 1}, {}))
# 0 saturates: the two-value domains holding it get bound, within value
# 2's upper bound and past it
@example(([{0, 1}, {0, 2}, {0, 2}, {0, 1, 2}], [], {}, {0: 1, 2: 2}))
@example(([{0, 1}, {0, 2}, {0, 2}, {0, 1, 2}], [], {}, {0: 1, 2: 1}))
# value 2 only x0 holds, value 3 only x1, and one lower bound keeps 3
@example(([{0, 1, 2}, {0, 1, 3}, {0, 1}], [], {3: 1}, {0: 1}))
# preset variables, one already at its value's upper bound
@example(([{0}, {1}, {0, 1}, {0, 1, 2}], [], {1: 1}, {0: 1, 1: 2}))
# a variable repeated in the scope
@example(([{0, 1}, {1, 2}], [0], {}, {1: 1, 0: 1}))
# roots already infeasible: bound above an upper bound, a value's upper
# bound below its lower bound, and too few variables for the lower bounds
@example(([{0}, {0}, {0, 1}], [], {}, {0: 1}))
@example(([{0, 1}, {0, 1}], [], {1: 2}, {1: 1}))
@example(([{0, 1}, {0, 1}], [], {0: 2, 1: 1}, {}))
def test_probes_equal_recounts_bit_for_bit(case):
    """``count_densities`` moves the root's rows per probe; recounting
    ``bound_parts`` on each ``_probe_domains`` must give the same count
    and every density to the last bit."""
    domains, repeats, lower, upper = case
    m = Model()
    xs = [m.new_variable(set(d)) for d in domains]
    c = GlobalCardinality(xs + [xs[i] for i in repeats], lower, upper)
    assert _bits(c.count_densities(m)) == _bits(_recounted_table(c, c._domains(m)))


def test_large_scope_table():
    """150 variables over 30 values, every third value required 1-3
    times and 10% of the variables preset: each unbound variable's
    densities sum to 1, and the table's count is ``log_count``."""
    rng = random.Random(0)
    m = Model()
    xs = []
    for _ in range(150):
        if rng.random() < 0.1:
            xs.append(m.new_variable({rng.randrange(30)}))
        else:
            xs.append(m.new_variable(set(rng.sample(range(30), rng.randint(2, 8)))))
    lower = {d: rng.randint(1, 3) for d in range(0, 30, 3)}
    upper = {d: rng.randint(6, 9) for d in range(30)}
    c = GlobalCardinality(xs, lower, upper)
    domains = c._domains(m)
    table = c.count_densities(m)
    assert table.log_count == c.log_count(domains) > -math.inf
    unbound = [x for x in xs if not m.is_bound(x)]
    assert len(unbound) > 120
    for x in unbound:
        total = sum(table.density(x, d) for d in m.domain(x))
        assert total == pytest.approx(1.0, abs=1e-9)
