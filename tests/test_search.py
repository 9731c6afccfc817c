"""Search drivers: DFS, geometric restarts, limited discrepancy search."""

import gc
import hashlib
import math
import random

import pytest

from countsearch.alldiff import AllDifferent
from countsearch.bench import build_model, generate_magic, generate_qwh
from countsearch.engine import _T_CACHE, CONSISTENT, Model
from countsearch.heuristics import Dom, Heuristic, MaxSD, make_heuristic
from countsearch.search import SAT, TIMEOUT, UNSAT, dfs, lds, restart_search

from brute_force import exact_solve
from conftest import ROSTER_GCC, job_model, random_micro_model


def _check_solution(model, solution):
    by_name = dict(solution)
    positions = {v.index: by_name[v.name] for v in model.variables}
    for c in model.constraints:
        assert c.check([positions[v.index] for v in c.scope])


def _pigeonhole():
    m = Model()
    xs = [m.new_variable({1, 2}) for _ in range(3)]
    m.add(AllDifferent(xs, consistency="fc"))
    return m


def test_dfs_finds_valid_solution():
    m = Model()
    xs = [m.new_variable({1, 2, 3}, f"x{i}") for i in range(3)]
    m.add(AllDifferent(xs))
    stats = dfs(m, MaxSD(m))
    assert stats.status == SAT
    _check_solution(m, stats.solution)


def test_dfs_proves_unsat_and_counts_backtracks():
    m = _pigeonhole()
    stats = dfs(m, Dom(m, random.Random(0)))
    assert stats.status == UNSAT
    assert stats.backtracks > 0
    assert stats.solution is None


def test_dfs_zero_timeout():
    m = _pigeonhole()
    stats = dfs(m, Dom(m, random.Random(0)), timeout=0.0)
    assert stats.status == TIMEOUT


def test_dfs_backtrack_limit_cuts_off():
    m = _pigeonhole()
    stats = dfs(m, Dom(m, random.Random(0)), backtrack_limit=1)
    assert stats.status == TIMEOUT
    assert stats.backtracks == 1


def test_dfs_agrees_with_oracle_on_micro_models():
    rng = random.Random(71)
    for _ in range(40):
        model = random_micro_model(rng)
        sat, _ = exact_solve(model)
        check = random_micro_model(random.Random(0))  # keep rng flowing
        stats = dfs(model, MaxSD(model))
        assert (stats.status == SAT) == sat
        if sat:
            _check_solution(model, stats.solution)


def test_restart_search_finds_solution():
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}, f"x{i}") for i in range(4)]
    m.add(AllDifferent(xs))
    stats = restart_search(m, MaxSD(m, random.Random(1)), scale=2)
    assert stats.status == SAT
    _check_solution(m, stats.solution)


def test_restart_search_proves_unsat_when_run_completes():
    m = _pigeonhole()
    stats = restart_search(m, Dom(m, random.Random(0)), scale=1000)
    assert stats.status == UNSAT


def test_restart_cutoff_grows_geometrically():
    class Failing(Heuristic):
        """Forces exhaustive failure so every run hits its cutoff."""

        def choose(self, model, randomized=False):
            unbound = model.unbound_variables()
            if not unbound:
                return None
            return unbound[0], min(model.domain(unbound[0]))

    # large pigeonhole: cutoffs 1, 2, 4 all trip before exhaustion
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(5)]
    m.add(AllDifferent(xs, consistency="fc"))
    stats = restart_search(m, Failing(m), scale=1, backtrack_limit=7)
    assert stats.status == TIMEOUT
    assert stats.restarts == 2  # three runs: the first and two restarts
    assert stats.backtracks == 1 + 2 + 4


def test_restarts_count_the_runs_after_the_first():
    # runs of 1, 2 and 4 backtracks, ended by the limit, are 2 restarts
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(5)]
    m.add(AllDifferent(xs, consistency="fc"))
    stats = restart_search(m, Dom(m, random.Random(0)), scale=1, backtrack_limit=7)
    assert stats.status == TIMEOUT
    assert stats.backtracks == 7
    assert stats.restarts == 2


def test_restart_determinism_same_seed():
    results = []
    for _ in range(2):
        m = Model()
        xs = [m.new_variable({1, 2, 3, 4}, f"x{i}") for i in range(4)]
        m.add(AllDifferent(xs))
        stats = restart_search(m, MaxSD(m, random.Random(5)), scale=2)
        results.append((stats.status, stats.backtracks, stats.restarts,
                        tuple(sorted(stats.solution.items()))))
    assert results[0] == results[1]


def test_lds_finds_valid_solution():
    m = Model()
    xs = [m.new_variable({1, 2, 3}, f"x{i}") for i in range(3)]
    m.add(AllDifferent(xs))
    stats = lds(m, MaxSD(m))
    assert stats.status == SAT
    _check_solution(m, stats.solution)


def test_lds_proves_unsat_when_exhausted():
    m = _pigeonhole()
    stats = lds(m, Dom(m, random.Random(0)))
    assert stats.status == UNSAT


def test_lds_needs_discrepancies_against_bad_heuristic():
    # the unique solution (1, 2) requires refuting the heuristic's first
    # choice on x: wave 0 (no discrepancies) fails, wave 1 succeeds
    class Anti(Heuristic):
        def choose(self, model, randomized=False):
            unbound = model.unbound_variables()
            if not unbound:
                return None
            var = unbound[0]
            return var, max(model.domain(var))  # steer away from (1, 2)

    class Only12(AllDifferent):
        def check(self, values):
            return tuple(values) == (1, 2)

        def propagate(self, model):
            if all(model.is_bound(v) for v in self.scope):
                if not self.check([model.value_of(v) for v in self.scope]):
                    first = self.scope[0]
                    return model.remove_value(
                        first, model.value_of(first), self
                    )
            return True

    def run(skip):
        mm = Model()
        xx = mm.new_variable({1, 2}, "x")
        yy = mm.new_variable({1, 2}, "y")
        mm.add(Only12([xx, yy]))
        return lds(mm, Anti(mm), skip=skip)

    stats = run(skip=1)
    assert stats.status == SAT
    assert stats.solution == {"x": 1, "y": 2}
    assert stats.max_discrepancy == 1  # needed a second wave

    # with a large enough skip the first wave already covers it
    wide = run(skip=4)
    assert wide.status == SAT
    assert wide.max_discrepancy == 3


def test_lds_agrees_with_oracle_on_micro_models():
    rng = random.Random(73)
    for _ in range(40):
        model = random_micro_model(rng)
        sat, _ = exact_solve(model)
        stats = lds(model, MaxSD(model), skip=2)
        assert (stats.status == SAT) == sat
        if sat:
            _check_solution(model, stats.solution)


DRIVERS = {"dfs": dfs, "lds": lds, "restart": restart_search}
# arguments that make each driver give up after its first backtrack
CUTOFFS = {
    "dfs": {"backtrack_limit": 1},
    "lds": {"backtrack_limit": 1},
    "restart": {"scale": 1, "backtrack_limit": 1},
}


@pytest.mark.parametrize("status", [UNSAT, TIMEOUT])
@pytest.mark.parametrize("driver", DRIVERS)
def test_search_leaves_model_at_root_on_failure(driver, status):
    m = _pigeonhole()
    # root propagation removes 3 from x, so the root differs from the
    # initial domains
    x, fixed = m.new_variable({1, 2, 3}), m.new_variable({3})
    m.add(AllDifferent([x, fixed]))
    assert m.propagate() == CONSISTENT
    level = m.level
    domains = [m.domain(v) for v in m.variables]
    cutoff = CUTOFFS[driver] if status == TIMEOUT else {}
    stats = DRIVERS[driver](m, Dom(m, random.Random(0)), **cutoff)
    assert stats.status == status
    assert m.level == level
    assert [m.domain(v) for v in m.variables] == domains


@pytest.mark.parametrize("driver", DRIVERS)
def test_search_has_no_depth_limit(driver):
    # one decision per free variable: far deeper than Python's default
    # recursion limit of 1000
    m = Model()
    for i in range(1500):
        m.new_variable({0, 1}, f"x{i}")
    stats = DRIVERS[driver](m, Dom(m, random.Random(0)))
    assert stats.status == SAT
    assert len(stats.solution) == 1500


@pytest.mark.parametrize("driver", DRIVERS)
def test_backtrack_limit_caps_the_whole_search(driver):
    # 5 pigeons in 4 holes: dfs needs 24 backtracks, lds 312 over its
    # waves and restarts from scale 1 need five runs, so a cap of 10 binds
    # in every driver, and in lds and restarts only across waves or runs
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(5)]
    m.add(AllDifferent(xs, consistency="fc"))
    wipeouts = []  # one per backtrack, counted apart from the driver
    m.on_wipeout(wipeouts.append)
    scale = {"scale": 1} if driver == "restart" else {}
    stats = DRIVERS[driver](
        m, Dom(m, random.Random(0)), timeout=5.0, backtrack_limit=10, **scale
    )
    assert stats.status == TIMEOUT
    assert stats.backtracks == len(wipeouts) == 10


@pytest.mark.parametrize("driver", DRIVERS)
def test_backtrack_limit_zero_stops_at_first_failure(driver):
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(5)]
    m.add(AllDifferent(xs, consistency="fc"))
    wipeouts = []
    m.on_wipeout(wipeouts.append)
    scale = {"scale": 1} if driver == "restart" else {}
    stats = DRIVERS[driver](
        m, Dom(m, random.Random(0)), timeout=5.0, backtrack_limit=0, **scale
    )
    assert stats.status == TIMEOUT
    assert stats.backtracks == 0
    assert len(wipeouts) == 1


@pytest.mark.parametrize("driver", DRIVERS)
def test_backtrack_limit_zero_allows_a_search_without_failures(driver):
    m = Model()
    xs = [m.new_variable({1, 2, 3}, f"x{i}") for i in range(3)]
    m.add(AllDifferent(xs))
    stats = DRIVERS[driver](m, MaxSD(m), backtrack_limit=0)
    assert stats.status == SAT
    assert stats.backtracks == 0


class _Listed:
    """Passes the search through to ``inner``, listing what each of its
    ``choose`` calls returned."""

    def __init__(self, inner):
        self.inner = inner
        self.chosen = []

    def choose(self, model, randomized=False):
        pick = self.inner.choose(model, randomized)
        self.chosen.append(pick)
        return pick

    def branch(self, model, var, value):
        return self.inner.branch(model, var, value)


@pytest.mark.parametrize("case", ["search", "backtrack-limit-0", "root-wipeout"])
@pytest.mark.parametrize("driver", DRIVERS)
def test_stats_count_nodes_and_digest_picks(driver, case):
    # the order-3 magic square takes maxSD 8 backtracks under dfs, 4
    # restarts from scale 1 and 2 LDS waves; 3 pigeons in 2 holes wipe
    # out at the root under domain consistency
    if case == "root-wipeout":
        m = Model()
        m.add(AllDifferent([m.new_variable({1, 2}) for _ in range(3)]))
    else:
        m = build_model(generate_magic(3, seed=0))
    heuristic = _Listed(MaxSD(m, random.Random(0)))
    options = {"scale": 1} if driver == "restart" else {}
    if case == "backtrack-limit-0":
        options["backtrack_limit"] = 0
    stats = DRIVERS[driver](m, heuristic, **options)
    picks = [(var.index, value) for var, value in filter(None, heuristic.chosen)]
    assert stats.nodes == len(heuristic.chosen)
    assert stats.digest == hashlib.sha256(repr(picks).encode()).hexdigest()[:16]
    if case == "search":
        # the last call, at the solution, picks nothing
        assert (stats.status, stats.nodes) == (SAT, len(picks) + 1)
        assert stats.backtracks > 0
    elif case == "root-wipeout":
        assert (stats.status, stats.nodes, stats.digest) == (
            UNSAT, 0, hashlib.sha256(b"[]").hexdigest()[:16]
        )
    else:
        assert (stats.status, stats.backtracks) == (TIMEOUT, 0)
        assert 0 < stats.nodes == len(picks)


@pytest.mark.parametrize("driver", DRIVERS)
def test_rejects_negative_backtrack_limit(driver):
    m = _pigeonhole()
    with pytest.raises(ValueError):
        DRIVERS[driver](m, Dom(m, random.Random(0)), backtrack_limit=-1)


@pytest.mark.parametrize("driver", DRIVERS)
def test_rejects_variables_that_share_a_name(driver):
    # the second variable's default name is its index's, x1, so a solution
    # would keep one of the two; refused before root propagation
    m = Model()
    xs = [m.new_variable({1}, "x1"), m.new_variable({1, 2})]
    m.add(AllDifferent(xs))
    with pytest.raises(ValueError, match="unique; repeated: x1$"):
        DRIVERS[driver](m, Dom(m, random.Random(0)))
    assert m.domain(xs[1]) == {1, 2}


@pytest.mark.parametrize("timeout", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("driver", DRIVERS)
def test_rejects_negative_or_nan_timeout(driver, timeout):
    # no clock reading exceeds a NaN deadline, so NaN would remove the
    # time budget, and a negative one would time out at once
    m = _pigeonhole()
    with pytest.raises(ValueError, match="timeout"):
        DRIVERS[driver](m, Dom(m, random.Random(0)), timeout=timeout)


@pytest.mark.parametrize(
    "driver, bad",
    [
        pytest.param("lds", {"skip": 0}, id="lds-skip0"),
        pytest.param("lds", {"skip": -1}, id="lds-skip-1"),
        pytest.param("restart", {"scale": 0}, id="restart-scale0"),
    ],
)
def test_rejects_window_or_cutoff_that_never_proves_unsat(driver, bad):
    # skip 0 repeats the empty window [0, -1] and scale 0 cuts every run
    # off before it can finish, so neither could ever answer unsat
    m = _pigeonhole()
    with pytest.raises(ValueError):
        DRIVERS[driver](m, Dom(m, random.Random(0)), timeout=1.0, **bad)


def _qwh():
    m = build_model(generate_qwh(7, 0.6, seed=1))
    assert m.propagate() == CONSISTENT
    return m


def _tables(model):
    return [(t.log_count, t.densities) for t in model.collect_densities()]


@pytest.mark.parametrize("driver", DRIVERS)
def test_sat_search_releases_its_trailed_tables(driver):
    m = _qwh()
    stats = DRIVERS[driver](m, MaxSD(m, random.Random(0)))
    assert stats.status == SAT
    cached = [entry for entry in m._trail if entry[0] == _T_CACHE]
    assert cached and all(entry[2] is None for entry in cached)
    # the removals stay on the trail, so the root comes back, and its
    # tables are recounted
    m.backtrack_to(0)
    fresh = _qwh()
    assert m._domains == fresh._domains
    assert _tables(m) == _tables(fresh)


@pytest.mark.parametrize("status", [UNSAT, TIMEOUT])
@pytest.mark.parametrize("driver", DRIVERS)
def test_failed_search_restores_the_root_tables(driver, status):
    m = Model()
    xs = [m.new_variable({1, 2, 3, 4}) for _ in range(5)]
    m.add(AllDifferent(xs, consistency="fc"))
    m.add(AllDifferent(xs[:3]))
    assert m.propagate() == CONSISTENT
    root = _tables(m)
    cutoff = CUTOFFS[driver] if status == TIMEOUT else {}
    stats = DRIVERS[driver](m, MaxSD(m, random.Random(0)), **cutoff)
    assert stats.status == status
    assert m.level == 0
    assert all(c.cache is not None for c in m.constraints)
    assert _tables(m) == root


#: jobs that post every constraint kind: AllDifferent (qwh), AllDifferent
#: and Knapsack (magic), Regular and GlobalCardinality (roster),
#: SymmetricAllDifferent, AllDifferent and Regular (ttppv), Regular alone
#: (nonogram) and Knapsack alone (kprostering)
GARBAGE_JOBS = {
    "qwh": {"kind": "qwh", "order": 15, "holes": 0.42, "seed": 0},
    "magic": {"kind": "magic", "order": 4, "filled": 0.1, "seed": 0},
    "roster": {"kind": ROSTER_GCC, "employees": 6, "periods": 10, "tasks": 7,
               "preset": 0.05, "seed": 2, "required": 4},
    "ttppv": {"kind": "ttppv", "teams": 4, "seed": 0},
    "nonogram": {"kind": "nonogram", "rows": 5, "cols": 5, "seed": 0},
    "kprostering": {"kind": "kprostering", "employees": 2, "days": 6,
                    "n_forbidden": 3, "seed": 0},
}


@pytest.mark.parametrize("job", list(GARBAGE_JOBS.values()), ids=list(GARBAGE_JOBS))
@pytest.mark.parametrize("driver", DRIVERS)
def test_a_search_leaves_no_cyclic_garbage(driver, job):
    """Reference counting frees all a search makes and drops: with the
    collector off and the model still alive, a collection finds nothing."""
    model = job_model(job)
    heuristic = make_heuristic("maxSD", model, random.Random(0))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        DRIVERS[driver](model, heuristic, backtrack_limit=20)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
