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
from test_alldiff import _reference_forward_check


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


def test_a_binding_earlier_in_the_pass_fails_the_first_call():
    # saturating 1 binds x2 to 2, which x1 already takes: the count of 2
    # follows the binding, so the first call wipes out
    m, xs, c = _post([{1}, {2}, {1, 2}], {}, {1: 1, 2: 1}, FORWARD_CHECKING)
    assert not c.propagate(m)
    # x1 sweeps 2 next, with 2 bound twice against its upper bound of 1,
    # so the sweep removes it from x2, a bound position, which empties
    assert m.domain(xs[2]) == set()


def _reference_counting_checks(c, model):
    """AllDifferent's pass-over-the-scope forward checking with each
    value's upper bound as its quota, then the lower bounds: the
    removals, their order and the verdict that
    ``GlobalCardinality._counting_checks`` must reproduce."""
    if _reference_forward_check(c, model, c.high) is None:
        return False
    doms = c._domains(model)
    return all(
        sum(d in dom for dom in doms) >= low for d, low in c.lower.items() if low > 0
    )


def _pass_by_value_counting_checks(c, model):
    """Forward checking as passes over the whole scope, each counting the
    bound values first and, when a value counted at its upper bound has
    its turn, failing if it is now bound more often: the verdict, and on
    success the domains, that ``GlobalCardinality._counting_checks`` must
    leave, whatever its order."""
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
            if n < high:
                continue
            if sum(dom == {d} for dom in doms) > high:
                return False
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
# value 1 saturates first and binds x2 to 2, so when 2 has its turn in
# the same pass it is bound twice against an upper bound of 1: False
@example(([{1}, {2}, {1, 2}], [0, 1, 2], {}, {1: 1, 2: 1}))
# x0 fills positions 0 and 2, so binding it counts its value twice
@example(([{1, 2}, {1}, {2, 3}], [0, 1, 0, 2], {}, {1: 1, 2: 1}))
@example(([{1}, {1, 2}, {2, 3}], [0, 1, 2], {3: 1}, {1: 1, 2: 1}))  # lower bound fails
# sweeping 0 binds x1 to 2 and then x2 to 1, both ahead of it: the same
# pass sweeps 2 and then 1, in scope order
@example(([{0}, {0, 2}, {0, 1}, {1, 2, 3}], [0, 1, 2, 3], {}, {0: 1, 1: 1, 2: 1}))
# x1 is bound to 1, whose upper bound is 0: the sweep removes 1 from x0
# first, in scope order, and wipes out at x1 itself
@example(([{0, 1}, {1}, {1, 2}], [0, 1, 2], {}, {1: 0}))
def test_counting_checks_keep_the_reference_removals_in_order(case):
    """Every removal (variable, value, cause) in order, and the verdict,
    equal those of the pass-by-pass reference; the verdict, and on success
    the domains, equal those of the pass-by-value oracle."""
    domains, scope, lower, upper = case
    runs = []
    for check in (
        GlobalCardinality._counting_checks,
        _reference_counting_checks,
        _pass_by_value_counting_checks,
    ):
        m = _CauseModel()
        xs = [m.new_variable(d) for d in domains]
        c = GlobalCardinality([xs[k] for k in scope], lower, upper, FORWARD_CHECKING)
        verdict = check(c, m)
        runs.append((verdict, [(x, v, cause is c) for x, v, cause in m.removed],
                     [m.domain(x) for x in xs] if verdict else None))
    assert runs[0][:2] == runs[1][:2]
    assert (runs[0][0], runs[0][2]) == (runs[2][0], runs[2][2])


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
    Bregman-Minc.  The rows are recorded where ``_Root.parts`` asks for
    a bound, so a memo hit is recorded too."""
    seen = []
    bound = gcc.padded_log_bound

    def recording(rows, pad):
        seen.append(list(rows))
        return bound(rows, pad)

    monkeypatch.setattr(gcc, "padded_log_bound", recording)
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
    values = [sorted(dom) for dom in domains]
    scores = [
        [c.log_count(c._probe_domains(domains, i, d)) for d in vals]
        for i, vals in enumerate(values)
    ]
    return probe_table(c, domains, c.log_count(domains), values, scores)


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


@settings(max_examples=600, deadline=None)
@given(_gcc_cases(), st.sampled_from([FORWARD_CHECKING, "domain"]))
# x0 fills two positions, so binding it counts its value twice
@example(([{1, 2}, {1}, {2, 3}], [0], {}, {1: 1, 2: 1}), FORWARD_CHECKING)
@example(([{0, 1}, {0, 2}, {0, 2}, {0, 1, 2}], [], {}, {0: 1, 2: 2}), "domain")
def test_propagate_is_idempotent(case, consistency):
    """After a call that returns True, a second call returns True and
    removes nothing: the engine relies on this to skip a wakeup by the
    call's own removals."""
    domains, repeats, lower, upper = case
    m = Model()
    xs = [m.new_variable(d) for d in domains]
    c = GlobalCardinality(xs + [xs[i] for i in repeats], lower, upper, consistency)
    assert c.idempotent
    if not c.propagate(m):
        return
    after = [m.domain(x) for x in xs]
    trail = len(m._trail)
    assert c.propagate(m)
    assert [m.domain(x) for x in xs] == after
    assert len(m._trail) == trail


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


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=12).map(tuple), st.integers(0, 9))
@example((3, 3, 3), 0)  # repeated rows
@example((4, 0, 2), 2)  # a zero row: -inf
@example((), 1)
def test_memoized_bound_equals_the_direct_expression(rows, pad):
    """``padded_log_bound`` gives, on a miss and on a hit, the very float
    of the expression it memoizes, and keys on the rows in their order."""
    def direct(rows):
        return min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(pad + 1)

    gcc.padded_log_bound.cache_clear()
    miss = gcc.padded_log_bound(rows, pad)
    hit = gcc.padded_log_bound(rows, pad)
    assert gcc.padded_log_bound.cache_info().hits == 1
    assert miss.hex() == hit.hex() == direct(rows).hex()
    flipped = rows[::-1]
    assert gcc.padded_log_bound(flipped, pad).hex() == direct(flipped).hex()


def test_a_table_from_an_empty_memo_equals_one_from_a_filled_memo():
    """Each table is counted once right after the memo is emptied and once
    more, when every bound it asks for is a hit."""
    rng = random.Random(37)
    instances = [random_gcc(rng, n_vars=rng.randint(3, 7)) for _ in range(40)]
    instances += [_bounded_gcc(rng) for _ in range(40)]
    hits = 0
    for c, domains in instances:
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        constraint = GlobalCardinality(xs, c.lower, c.upper)
        gcc.padded_log_bound.cache_clear()
        empty = _bits(constraint.count_densities(m))
        before = gcc.padded_log_bound.cache_info()
        assert _bits(constraint.count_densities(m)) == empty
        after = gcc.padded_log_bound.cache_info()
        assert after.misses == before.misses
        hits += after.hits - before.hits
    assert hits > 100


def _probed_per_position(c, domains):
    """The reference table: ``_Root.probes`` for every unbound position,
    none of them sharing another's scores."""
    root = gcc._Root(c, domains)
    values = [sorted(dom) for dom in domains]
    scores = [
        root.probes(i, vals) if len(vals) > 1 else []
        for i, vals in enumerate(values)
    ]
    lower_log, upper_log, denom = root.root_parts()
    return probe_table(c, domains, lower_log + upper_log - denom, values, scores)


@st.composite
def _shared_domain_cases(draw):
    """Scope positions drawing their domains from a pool of at most three,
    so domains repeat (two-value ones often), singletons for preset
    variables, scope positions repeating a variable, lower bounds up to 2
    (some met by the preset variables) and upper bounds from 0 up."""
    n_values = draw(st.integers(2, 5))
    values = st.integers(0, n_values - 1)
    pool = draw(
        st.lists(st.sets(values, min_size=1, max_size=3), min_size=1, max_size=3)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    domains = [set(pool[p]) for p in picks]
    repeats = draw(st.lists(st.integers(0, len(domains) - 1), max_size=2))
    lower = draw(st.dictionaries(values, st.integers(0, 2), max_size=2))
    upper = draw(st.dictionaries(values, st.integers(0, 3)))
    return domains, repeats, lower, upper


@settings(max_examples=600, deadline=None)
@given(_shared_domain_cases())
# a saturating probe binds the twin two-value position to its other value
@example(([{0, 1}, {0, 1}, {0, 1, 2}], [], {}, {0: 1}))
@example(([{0, 1}, {0, 1}, {0, 1}, {1, 2}], [], {}, {0: 1, 1: 1}))
# a variable filling two scope positions
@example(([{0, 1}, {0, 1}, {1, 2}], [0], {}, {1: 2}))
# residual bounds cross: 0 is bound above its upper bound
@example(([{0}, {0}, {0, 1}, {0, 1}], [], {}, {0: 1}))
# a positive lower bound, unmet and met by a preset variable
@example(([{0, 1}, {0, 1}, {0, 1, 2}, {0, 1, 2}], [], {2: 1}, {}))
# positive lower bounds: probe x4 = 2 leaves the rows of probe x0 = 2 in
# another scope order, and the lower graph's Bregman-Minc sum differs in
# its last bit, so equal domains must not share here
@example(([{1, 2}, {1, 2}, {0, 1, 2}, {0, 1, 2}, {1, 2}], [], {0: 2, 2: 1}, {1: 1}))
@example(([{2}, {0, 1}, {0, 1}, {0, 1, 2}], [], {2: 1}, {0: 1}))
def test_equal_domains_share_probes_bit_for_bit(case):
    """``count_densities`` probes each distinct domain once when every
    residual lower bound is 0; it must give the count and every density
    of probing each position, to the last bit."""
    domains, repeats, lower, upper = case
    m = Model()
    xs = [m.new_variable(set(d)) for d in domains]
    c = GlobalCardinality(xs + [xs[i] for i in repeats], lower, upper)
    assert _bits(c.count_densities(m)) == _bits(_probed_per_position(c, c._domains(m)))


@pytest.mark.parametrize("lower,calls", [({}, 1), ({0: 1}, 4), ({3: 1}, 1)])
def test_probes_run_once_per_domain_only_without_lower_bounds(monkeypatch, lower, calls):
    """Four unbound positions over one domain: probed once when every
    residual lower bound is 0 (value 3's is met by the preset variable),
    else once per position."""
    probes = gcc._Root.probes
    seen = []

    def counted(root, i, values):
        seen.append(i)
        return probes(root, i, values)

    monkeypatch.setattr(gcc._Root, "probes", counted)
    m = Model()
    xs = [m.new_variable({0, 1, 2}) for _ in range(4)] + [m.new_variable({3})]
    GlobalCardinality(xs, lower, {0: 2}).count_densities(m)
    assert len(seen) == calls
