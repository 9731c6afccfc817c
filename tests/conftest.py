"""Shared helpers: random instance builders used across test modules."""

from __future__ import annotations

import random

from countsearch.alldiff import AllDifferent
from countsearch.engine import Model
from countsearch.gcc import GlobalCardinality
from countsearch.knapsack import Knapsack
from countsearch.regular import Automaton, Regular


def random_domains(rng: random.Random, n: int, n_values: int) -> list[set[int]]:
    values = list(range(1, n_values + 1))
    out = []
    for _ in range(n):
        size = rng.randint(1, n_values)
        out.append(set(rng.sample(values, size)))
    return out


def random_gcc(rng: random.Random, n_vars: int = 5, n_values: int = 4):
    domains = random_domains(rng, n_vars, n_values)
    lower = {}
    upper = {}
    for d in range(1, n_values + 1):
        lo = rng.randint(0, 1)
        hi = rng.randint(max(lo, 1), n_vars)
        lower[d] = lo
        upper[d] = hi
    model = Model()
    xs = [model.new_variable(dom) for dom in domains]
    constraint = GlobalCardinality(xs, lower, upper)
    return constraint, domains


def random_automaton(rng: random.Random, n_states: int, symbols) -> Automaton:
    states = list(range(n_states))
    trans = {}
    for q in states:
        for s in symbols:
            if rng.random() < 0.7:
                trans[(q, s)] = rng.choice(states)
    accepting = [q for q in states if rng.random() < 0.5] or [rng.choice(states)]
    return Automaton(trans, 0, accepting)


def random_micro_model(rng: random.Random) -> Model:
    """Small mixed model for completeness checks (<= 10^6 tuples)."""
    model = Model()
    n = rng.randint(2, 5)
    n_values = rng.randint(2, 4)
    xs = [
        model.new_variable(random_domains(rng, 1, n_values)[0])
        for _ in range(n)
    ]
    kind = rng.randrange(3)
    if kind == 0:
        model.add(AllDifferent(xs))
    elif kind == 1:
        lower = {d: rng.randint(0, 1) for d in range(1, n_values + 1)}
        upper = {d: rng.randint(1, n) for d in range(1, n_values + 1)}
        model.add(GlobalCardinality(xs, lower, upper))
    else:
        coeffs = [rng.randint(1, 4) for _ in xs]
        total_max = sum(c * max(model.domain(x)) for c, x in zip(coeffs, xs))
        lo = rng.randint(0, total_max)
        hi = rng.randint(lo, total_max)
        model.add(Knapsack(xs, coeffs, lo, hi))
    if rng.random() < 0.5 and n >= 3:
        sub = xs[: rng.randint(2, n)]
        symbols = sorted(set().union(*(model.domain(v) for v in sub)))
        model.add(Regular(sub, random_automaton(rng, 3, symbols)))
    return model


def full_domain_model(instance, model_class=Model) -> Model:
    """A qwh or magic ``instance`` modelled as ``bench`` does, with the
    same variables and constraints in the same order, but with every hole
    over the family's whole value range (1..n, or 1..n² for magic), so
    root propagation itself removes the values the hole's lines preset."""
    n, grid = instance.payload["n"], instance.payload["grid"]
    m = model_class()
    values = range(1, (n if instance.kind == "qwh" else n * n) + 1)
    cells = [
        [m.new_variable([v] if v else values, f"x{r}_{c}") for c, v in enumerate(row)]
        for r, row in enumerate(grid)
    ]
    lines = cells + [list(col) for col in zip(*cells)]
    if instance.kind == "qwh":
        for line in lines:
            m.add(AllDifferent(line))
        return m
    target = n * (n * n + 1) // 2
    m.add(AllDifferent([x for row in cells for x in row]))
    diagonals = [
        [row[i] for i, row in enumerate(cells)],
        [row[n - 1 - i] for i, row in enumerate(cells)],
    ]
    for line in lines + diagonals:
        m.add(Knapsack(line, [1] * n, target, target))
    return m
