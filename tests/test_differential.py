"""Differential test: every heuristic under every driver against the oracle.

Each seed builds one small model: at most five variables and one or two
constraints, each of a random kind (AllDifferent, GlobalCardinality,
exact or Gaussian Knapsack, Regular, SymmetricAllDifferent) at a random
consistency level, over a scope that may hold a variable twice.  Every
name in ``HEURISTIC_NAMES`` then searches a fresh copy of the model under
``dfs``, ``lds`` and ``restart_search``; the status must agree with
``brute_force.exact_solve``, and a solution must pass every constraint's
``check``.  A search that does not end on a solution, uncapped or cut
off after 0, 1 or 2 backtracks, must leave every domain as root
propagation left it; and at each consistent root, every density table
must sum to 1 over each unbound variable's domain, or to 0 when the
table has no count.

Models of one constraint whose scope holds a variable more than once
check the oracle itself: its count and densities must be those of the
solutions ``exact_solve`` lists, and every root table's count must be at
least the exact count.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.engine import CONSISTENT, DOMAIN, FORWARD_CHECKING, Model
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import HEURISTIC_NAMES, make_heuristic
from countsearch.knapsack import EXACT, GAUSSIAN, Knapsack
from countsearch.oracle import exact_count_densities
from countsearch.regular import Regular
from countsearch.search import SAT, UNSAT, dfs, lds, restart_search

from brute_force import exact_solve
from conftest import random_automaton

VALUES = range(1, 5)
# three entries, as when forward checking and bounds were separate levels,
# so every seeded micro model draws the same constraints
CONSISTENCIES = (FORWARD_CHECKING, FORWARD_CHECKING, DOMAIN)


def _gcc(rng, scope, consistency):
    lower = {d: rng.randint(0, 1) for d in VALUES}
    upper = {d: rng.randint(max(lower[d], 1), len(scope)) for d in VALUES}
    return GlobalCardinality(scope, lower, upper, consistency)


def _knapsack(mode):
    def make(rng, scope, consistency):
        coeffs = [rng.randint(0, 4) for _ in scope]
        top = sum(coeffs) * max(VALUES)
        lower = rng.randint(0, top)
        upper = rng.randint(lower, top)
        return Knapsack(scope, coeffs, lower, upper, consistency, mode)

    return make


def _regular(rng, scope, consistency):
    return Regular(scope, random_automaton(rng, 3, VALUES), consistency)


def _symmetric(rng, scope, consistency):
    # an even scope, so that a pairing can exist
    return SymmetricAllDifferent(scope[: len(scope) // 2 * 2], consistency)


KINDS = (
    lambda rng, scope, consistency: AllDifferent(scope, consistency),
    _gcc,
    _knapsack(EXACT),
    _knapsack(GAUSSIAN),
    _regular,
    _symmetric,
)


def _random_model(seed: int) -> Model:
    rng = random.Random(seed)
    model = Model()
    xs = [
        model.new_variable(rng.sample(VALUES, rng.randint(1, len(VALUES))), f"x{i}")
        for i in range(rng.randint(2, 5))
    ]
    for _ in range(rng.randint(1, 2)):
        scope = [rng.choice(xs) for _ in range(rng.randint(2, 4))]
        make = rng.choice(KINDS)
        model.add(make(rng, scope, rng.choice(CONSISTENCIES)))
    return model


def _passes_every_check(model, solution):
    return all(
        c.check([solution[v.name] for v in c.scope]) for c in model.constraints
    )


DRIVERS = {
    "dfs": dfs,
    "lds": lds,
    "restart": lambda m, h, **budget: restart_search(m, h, scale=1, **budget),
}


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("driver", DRIVERS)
def test_every_heuristic_agrees_with_the_oracle(driver, seed):
    sat, _ = exact_solve(_random_model(seed))
    wrong = []
    for name in HEURISTIC_NAMES:
        model = _random_model(seed)
        stats = DRIVERS[driver](
            model, make_heuristic(name, model, random.Random(seed))
        )
        if stats.status != (SAT if sat else UNSAT) or (
            sat and not _passes_every_check(model, stats.solution)
        ):
            wrong.append((name, stats.status, stats.solution))
    assert not wrong, f"oracle says {'sat' if sat else 'unsat'}"


def _domains(model):
    return [model.domain(v) for v in model.variables]


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("driver", DRIVERS)
def test_a_search_that_does_not_end_sat_restores_the_root(driver, seed):
    root = _random_model(seed)
    root.propagate()
    expected = _domains(root)
    moved = []
    for name in HEURISTIC_NAMES:
        for cap in (None, 0, 1, 2):
            model = _random_model(seed)
            heuristic = make_heuristic(name, model, random.Random(seed))
            stats = DRIVERS[driver](model, heuristic, backtrack_limit=cap)
            if stats.status != SAT and _domains(model) != expected:
                moved.append((name, cap, stats.status))
    assert not moved


@pytest.mark.parametrize("seed", range(40))
def test_root_density_tables_sum_to_one_per_unbound_variable(seed):
    model = _random_model(seed)
    if model.propagate() != CONSISTENT:
        return
    for table in model.collect_densities():
        # a count of 0 gives no value any density; a Gaussian knapsack's
        # table has no count (also -inf) but normalized densities
        no_count = table.log_count == -math.inf
        for var in table.constraint.scope:
            if not model.is_bound(var):
                total = math.fsum(table.density(var, d) for d in model.domain(var))
                assert abs(total - 1) <= 1e-9 or (no_count and total == 0), (
                    table.constraint.name(), var, total
                )


# the kinds with an exact count: all but the Gaussian knapsack
REPEATING = dict(
    zip(("alldifferent", "gcc", "knapsack", "regular", "symmetric"),
        KINDS[:3] + KINDS[4:])
)


def _repeating_model(kind, seed):
    """One ``kind`` constraint, at domain consistency, over a scope of two
    to four positions that holds each of one to three variables, at least
    one of them twice (a SymmetricAllDifferent drops an odd last one)."""
    rng = random.Random(seed)
    model = Model()
    xs = [
        model.new_variable(rng.sample(VALUES, rng.randint(1, len(VALUES))), f"x{i}")
        for i in range(rng.randint(1, 3))
    ]
    scope = xs + [rng.choice(xs) for _ in range(rng.randint(1, 4 - len(xs)))]
    rng.shuffle(scope)
    return model, model.add(REPEATING[kind](rng, scope, DOMAIN))


@pytest.mark.parametrize("kind", REPEATING)
def test_oracle_enumerates_a_repeated_variable_once(kind):
    for seed in range(120):
        model, c = _repeating_model(kind, seed)
        count, densities = exact_count_densities(
            c, [model.domain(v) for v in c.scope]
        )
        _, solutions = exact_solve(model, all_solutions=True)
        variables = list(dict.fromkeys(c.scope))
        tuples = {tuple(s[v.name] for v in variables) for s in solutions}
        hits = Counter(
            (v.index, d) for tup in tuples for v, d in zip(variables, tup)
        )
        assert count == len(tuples), seed
        assert densities == {key: Fraction(n, count) for key, n in hits.items()}


@pytest.mark.parametrize("kind", REPEATING)
def test_count_bounds_hold_on_repeated_scopes(kind):
    for seed in range(120):
        model, c = _repeating_model(kind, seed)
        if model.propagate() != CONSISTENT:
            continue
        count, _ = exact_count_densities(c, [model.domain(v) for v in c.scope])
        for table in model.collect_densities():
            assert math.exp(table.log_count) >= count * (1 - 1e-9), seed
