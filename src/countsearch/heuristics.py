"""Branching heuristics: counting-based selectors, baselines, hybrids.

Every heuristic exposes ``choose(model, randomized=False)`` returning a
``(variable, value)`` pair or ``None`` when all variables are bound.
Ties are broken lexicographically by (variable index, value); with
``randomized=True`` score-based heuristics pick uniformly between their
two best pairs (used by the restart driver).

Learned state (constraint weights, impacts) lives on the heuristic
object and survives restarts.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

from .engine import Constraint, DensityTable, Model, Variable

Pair = tuple[Variable, int]


class Heuristic:
    """Base class; concrete selectors override ``choose``."""

    #: whether ``observe`` wants impacts; the search drivers measure the
    #: search space around each left branch only for heuristics that do
    uses_impact = False

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        self.model = model
        self.rng = rng or random.Random(0)

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        raise NotImplementedError

    def observe(self, var: Variable, value: int, impact: float) -> None:
        """Called after each left branch with the observed impact."""

    def on_restart(self) -> None:
        """Called when the restart driver goes back to the root."""


# ----------------------------------------------------------------------
# score-based (counting) heuristics
# ----------------------------------------------------------------------
def _argmax(scores: Sequence[tuple[float, int, int]]) -> Optional[tuple[int, int]]:
    """Best (var_index, value) by score; lexicographic tie-break."""
    best = None
    for score, vi, val in scores:
        if (
            best is None
            or score > best[0]
            or (score == best[0] and (vi, val) < (best[1], best[2]))
        ):
            best = (score, vi, val)
    if best is None:
        return None
    return best[1], best[2]


def _top2(
    scores: Sequence[tuple[float, int, int]], rng: random.Random
) -> Optional[tuple[int, int]]:
    """Uniform pick between the two best-scoring pairs."""
    ordered = sorted(scores, key=lambda t: (-t[0], t[1], t[2]))
    if not ordered:
        return None
    pool = ordered[:2]
    _, vi, val = pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
    return vi, val


class ScoreHeuristic(Heuristic):
    """Common machinery for heuristics that rank (variable, value) pairs."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        raise NotImplementedError

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        if not model.unbound_variables():
            return None
        scored = self.scores(model)
        pick = _top2(scored, self.rng) if randomized else _argmax(scored)
        if pick is None:
            return None
        vi, val = pick
        return model.variables[vi], val


def _pair_densities(
    model: Model, tables: Sequence[DensityTable]
) -> list[tuple[DensityTable, int, int, float]]:
    """All (table, var_index, value, density) entries for unbound vars."""
    out = []
    domains = model._domains
    for table in tables:
        density = table.densities.get
        for var in table.constraint.scope:
            vi = var.index
            dom = domains[vi]
            if len(dom) == 1:
                continue
            for d in sorted(dom):
                out.append((table, vi, d, density((vi, d), 0.0)))
    return out


class MaxSD(ScoreHeuristic):
    """Maximum solution density over all counting constraints."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        return [
            (sigma, vi, d) for _, vi, d, sigma in _pair_densities(model, tables)
        ]


class MaxRelSD(ScoreHeuristic):
    """Density minus the uniform density 1/|D_i|."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        out = []
        for _, vi, d, sigma in _pair_densities(model, tables):
            size = len(model._domains[vi])
            out.append((sigma - 1.0 / size, vi, d))
        return out


class MaxRelRatio(ScoreHeuristic):
    """Density relative to the uniform density (sigma * |D_i|)."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        out = []
        for _, vi, d, sigma in _pair_densities(model, tables):
            size = len(model._domains[vi])
            out.append((sigma * size, vi, d))
        return out


class AAvgSD(ScoreHeuristic):
    """Arithmetic average of a pair's densities over its constraints."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        sums: dict[tuple[int, int], float] = {}
        counts: dict[int, int] = {}
        for table in tables:
            for var in table.constraint.scope:
                if model.is_bound(var):
                    continue
                counts[var.index] = counts.get(var.index, 0) + 1
                for d in model.domain_sorted(var):
                    key = (var.index, d)
                    sums[key] = sums.get(key, 0.0) + table.density(var, d)
        return [
            (total / counts[vi], vi, d) for (vi, d), total in sums.items()
        ]


class WSCAvg(ScoreHeuristic):
    """Average density weighted by each constraint's solution count.

    Counts are carried in log space; per variable the weights are
    rescaled by the largest participating log count before
    exponentiation so vastly different magnitudes stay finite.
    """

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        per_var: dict[int, list[tuple[DensityTable, float]]] = {}
        for table in tables:
            if table.log_count == -math.inf:
                continue
            for var in table.constraint.scope:
                if model.is_bound(var):
                    continue
                per_var.setdefault(var.index, []).append(
                    (table, table.log_count)
                )
        out = []
        for vi, entries in per_var.items():
            top = max(lc for _, lc in entries)
            weights = [(t, math.exp(lc - top)) for t, lc in entries]
            denom = sum(w for _, w in weights)
            var = model.variables[vi]
            for d in model.domain_sorted(var):
                num = sum(w * t.density(var, d) for t, w in weights)
                out.append((num / denom, vi, d))
        return out


class MinSCMaxSD(ScoreHeuristic):
    """Max density within the constraint with the fewest solutions."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        candidates = [
            t
            for t in tables
            if any(not model.is_bound(v) for v in t.constraint.scope)
        ]
        if not candidates:
            return []
        chosen = min(
            candidates, key=lambda t: (t.log_count, t.constraint.cid)
        )
        out = []
        for var in chosen.constraint.scope:
            if model.is_bound(var):
                continue
            for d in model.domain_sorted(var):
                out.append((chosen.density(var, d), var.index, d))
        return out


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
class Dom(Heuristic):
    """Smallest domain, uniform random among ties; random value."""

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        unbound = model.unbound_variables()
        if not unbound:
            return None
        smallest = min(model.size(v) for v in unbound)
        pool = [v for v in unbound if model.size(v) == smallest]
        var = pool[self.rng.randrange(len(pool))]
        values = model.domain_sorted(var)
        return var, values[self.rng.randrange(len(values))]


class WdegState:
    """Per-constraint failure weights fed by the model's wipeout hook."""

    def __init__(self, model: Model):
        self.weights: dict[int, int] = {}
        model.on_wipeout(self._bump)

    def _bump(self, constraint: Optional[Constraint]) -> None:
        if constraint is None:
            return
        self.weights[constraint.cid] = self.weights.get(constraint.cid, 0) + 1

    def weight(self, constraint: Constraint) -> int:
        return 1 + self.weights.get(constraint.cid, 0)


def _wdeg_sums(model: Model, state: WdegState) -> list[int]:
    """Weighted degree of every variable, indexed by variable index.

    A constraint counts towards a variable once per occurrence in its
    scope, and only while the scope holds another unbound variable (by
    index).  That is the case for every variable of the scope exactly
    when the scope holds two distinct unbound variables; the entries of
    bound variables are not meaningful.
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


class DomWdeg(Heuristic):
    """dom/wdeg variable order, first value in lexicographic order."""

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        super().__init__(model, rng)
        self.state = WdegState(model)

    def _var(self, model: Model) -> Optional[Variable]:
        unbound = model.unbound_variables()
        if not unbound:
            return None
        sums = _wdeg_sums(model, self.state)

        def key(v: Variable):
            w = sums[v.index]
            ratio = model.size(v) / w if w else math.inf
            return (ratio, v.index)

        return min(unbound, key=key)

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        var = self._var(model)
        if var is None:
            return None
        return var, model.min(var)


class DomDeg(Heuristic):
    """dom/degree variable order (static degree), lexicographic value."""

    def _var(self, model: Model) -> Optional[Variable]:
        unbound = model.unbound_variables()
        if not unbound:
            return None

        def key(v: Variable):
            deg = len(model._watchers[v.index])
            ratio = model.size(v) / deg if deg else math.inf
            return (ratio, v.index)

        return min(unbound, key=key)

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        var = self._var(model)
        if var is None:
            return None
        return var, model.min(var)


class Ibs(Heuristic):
    """Impact-based search with root probing and top-5 re-probing."""

    RE_PROBE = 5
    uses_impact = True

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        super().__init__(model, rng)
        self._sums: dict[tuple[int, int], float] = {}
        self._obs: dict[tuple[int, int], int] = {}
        self._initialized = False

    # -- impact bookkeeping -------------------------------------------
    def _record(self, vi: int, d: int, impact: float) -> None:
        key = (vi, d)
        self._sums[key] = self._sums.get(key, 0.0) + impact
        self._obs[key] = self._obs.get(key, 0) + 1

    def _avg(self, vi: int, d: int) -> float:
        key = (vi, d)
        n = self._obs.get(key, 0)
        return self._sums[key] / n if n else 0.0

    def observe(self, var: Variable, value: int, impact: float) -> None:
        self._record(var.index, value, impact)

    # -- probing -------------------------------------------------------
    def _probe(self, model: Model, var: Variable, d: int) -> float:
        before = model.log_search_space()
        level = model.level
        status = model.push_decision("assign", var, d)
        if status == "wipeout":
            impact = 1.0
        else:
            after = model.log_search_space()
            impact = 1.0 - math.exp(after - before)
        model.backtrack_to(level)
        return impact

    def _probe_var(self, model: Model, var: Variable) -> None:
        for d in model.domain_sorted(var):
            self._record(var.index, d, self._probe(model, var, d))

    def _init_root(self, model: Model) -> None:
        for var in model.unbound_variables():
            self._probe_var(model, var)
        self._initialized = True

    def _aggregate(self, model: Model, var: Variable) -> float:
        """Variable impact: total of its values' average impacts."""
        return sum(self._avg(var.index, d) for d in model.domain_sorted(var))

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        unbound = model.unbound_variables()
        if not unbound:
            return None
        if not self._initialized:
            self._init_root(model)
            unbound = model.unbound_variables()
            if not unbound:
                return None
        ranked = sorted(
            unbound, key=lambda v: (-self._aggregate(model, v), v.index)
        )
        subset = ranked[: self.RE_PROBE]
        if len(subset) > 1:
            for v in subset:
                self._probe_var(model, v)
        best_score = max(self._aggregate(model, v) for v in subset)
        tied = [
            v for v in subset if self._aggregate(model, v) == best_score
        ]
        var = tied[0] if len(tied) == 1 else tied[self.rng.randrange(len(tied))]
        # smallest-impact value, lexicographic tie-break
        value = min(
            model.domain_sorted(var), key=lambda d: (self._avg(var.index, d), d)
        )
        return var, value


# ----------------------------------------------------------------------
# hybrids: variable by one rule, value by another
# ----------------------------------------------------------------------
def _max_density_value(model: Model, var: Variable) -> int:
    tables = model.collect_densities()
    best = None
    for table in tables:
        if var not in table.constraint.scope:
            continue
        for d in model.domain_sorted(var):
            sigma = table.density(var, d)
            if best is None or sigma > best[0] or (sigma == best[0] and d < best[1]):
                best = (sigma, d)
    if best is None:
        return model.min(var)
    return best[1]


class VarThenValue(Heuristic):
    """Variable from one heuristic, value from a separate rule."""

    def __init__(
        self,
        model: Model,
        var_rule: Heuristic,
        value_rule: Callable[[Model, Variable], int],
        rng: Optional[random.Random] = None,
    ):
        super().__init__(model, rng)
        self.var_rule = var_rule
        self.value_rule = value_rule
        self.uses_impact = var_rule.uses_impact

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        pick = self.var_rule.choose(model, randomized)
        if pick is None:
            return None
        var, _ = pick
        return var, self.value_rule(model, var)

    def observe(self, var: Variable, value: int, impact: float) -> None:
        self.var_rule.observe(var, value, impact)

    def on_restart(self) -> None:
        self.var_rule.on_restart()


def _random_value(rng: random.Random) -> Callable[[Model, Variable], int]:
    def rule(model: Model, var: Variable) -> int:
        values = model.domain_sorted(var)
        return values[rng.randrange(len(values))]

    return rule


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
HEURISTICS: dict[str, Callable[[Model, random.Random], Heuristic]] = {
    "maxSD": MaxSD,
    "maxRelSD": MaxRelSD,
    "maxRelRatio": MaxRelRatio,
    "aAvgSD": AAvgSD,
    "wSCAvg": WSCAvg,
    "minSCMaxSD": MinSCMaxSD,
    "dom": Dom,
    "domWDeg": DomWdeg,
    "ibs": Ibs,
    "domDeg+maxSD": lambda model, rng: VarThenValue(
        model, DomDeg(model, rng), _max_density_value, rng
    ),
    "maxSD+random": lambda model, rng: VarThenValue(
        model, MaxSD(model, rng), _random_value(rng), rng
    ),
    "ibs+maxSD": lambda model, rng: VarThenValue(
        model, Ibs(model, rng), _max_density_value, rng
    ),
    "domWDeg+maxSD": lambda model, rng: VarThenValue(
        model, DomWdeg(model, rng), _max_density_value, rng
    ),
}
HEURISTIC_NAMES = tuple(HEURISTICS)


def make_heuristic(
    name: str, model: Model, rng: Optional[random.Random] = None
) -> Heuristic:
    if name not in HEURISTICS:
        raise ValueError(
            f"unknown heuristic {name!r}; valid names: {', '.join(HEURISTIC_NAMES)}"
        )
    return HEURISTICS[name](model, rng or random.Random(0))
