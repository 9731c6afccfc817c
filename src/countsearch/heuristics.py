"""Branching heuristics: counting-based selectors, baselines, hybrids.

Every heuristic exposes ``choose(model, randomized=False)`` returning a
``(variable, value)`` pair or ``None`` when all variables are bound, and
``branch(model, var, value)``, through which the search drivers take
each left branch; IBS measures its impacts there, in probes and in
search alike.
Ties are broken lexicographically by (variable index, value).
Score-based heuristics rank pairs by the keys ``(-score, variable index,
value)``, so the least key is the pick; with ``randomized=True`` they
pick uniformly between their two least keys (restart runs ask for
this).  The rules that score a pair from one table alone (``maxSD``,
``maxRelSD``, ``maxRelRatio``, ``minSCMaxSD``) pick from each table's
two least keys, which the table keeps (``DensityTable.least_keys``), so
a ``choose`` scans only the tables recounted since the last one, and
reads each table's entries once, from ``densities.items()``;
``aAvgSD`` and ``wSCAvg`` average a pair over its tables and scan them
all.  Their averages, like IBS's variable impacts, are ``math.fsum``s
(see ``engine``), so the picks are the same on every supported
interpreter.

dom/wdeg (``domWDeg``, Boussemart et al., ECAI 2004): every
constraint's weight starts at 1, and the constraint a wipeout is blamed
on gains 1.  A constraint counts towards a variable's weighted degree
while its scope holds two distinct unbound variables, once per
occurrence of the variable in its scope.  The pick is the unbound
variable with the least ``|D| / wdeg`` (``math.inf`` for a degree of 0),
the lower variable index on ties, with its smallest value.  The degrees
are kept across picks, and a pick ranks the variables in one pass over
the domains; dom/deg (``DomDeg``) ranks the same way by static degrees.

Learned state (constraint weights, weighted degrees, impacts) and the
random generator live on the heuristic object, so they carry over from
one run of a search to the next (restarts, LDS waves): the picks may
differ between runs, and the search drivers stay sound when they do.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Optional, Sequence

from .engine import WIPEOUT, Constraint, DensityTable, Model, Variable

Pair = tuple[Variable, int]


class Heuristic:
    """Base class; concrete selectors override ``choose``, and a selector
    that learns from its left branches overrides ``branch``."""

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        self.model = model
        self.rng = rng or random.Random(0)

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        raise NotImplementedError

    def branch(self, model: Model, var: Variable, value: int) -> str:
        """Take the left branch ``var = value``; the push's status."""
        return model.push_decision("assign", var, value)


# ----------------------------------------------------------------------
# score-based (counting) heuristics
# ----------------------------------------------------------------------
class ScoreHeuristic(Heuristic):
    """Common machinery for heuristics that rank (variable, value) pairs.

    ``scores`` returns rank keys ``(-score, var_index, value)`` that
    include the two least keys over all scored pairs, repeats counted,
    so the least key is the best pair with the lexicographic tie-break.
    When the scores are empty although a variable is unbound (no
    counting constraint watches the unbound variables, say), the first
    unbound variable by index is tried with its smallest value.
    """

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        raise NotImplementedError

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        for var, dom in zip(model.variables, model._domains):
            if len(dom) > 1:
                break
        else:
            return None
        keys = self.scores(model)
        if not keys:
            return var, min(dom)
        if randomized:
            pool = heapq.nsmallest(2, keys)
            _, vi, val = pool[self.rng.randrange(2)] if len(pool) == 2 else pool[0]
        else:
            _, vi, val = min(keys)
        return model.variables[vi], val


def _sd_keys(
    table: DensityTable, domains: Sequence[set[int]]
) -> list[tuple[float, int, int]]:
    """Rank keys (-density, var_index, value) of every value of every
    unbound variable in the table's scope, once per scope position the
    variable fills (maxSD).

    A table holds an entry for every value of every domain in its scope,
    so each entry is read once, straight from ``densities.items()``; the
    keys of a variable that fills further positions
    (``Constraint.repeats``) are listed again once per such position.
    """
    keys = [(-s, vi, d) for (vi, d), s in table.densities.items() if len(domains[vi]) > 1]
    keys += [key for vi in table.constraint.repeats() for key in keys if key[1] == vi]
    return keys


def _rel_sd_keys(
    table: DensityTable, domains: Sequence[set[int]]
) -> list[tuple[float, int, int]]:
    """``_sd_keys`` less the uniform density 1/|D_i| (maxRelSD)."""
    return [
        (neg + 1.0 / len(domains[vi]), vi, d) for neg, vi, d in _sd_keys(table, domains)
    ]


def _rel_ratio_keys(
    table: DensityTable, domains: Sequence[set[int]]
) -> list[tuple[float, int, int]]:
    """``_sd_keys`` times the domain size |D_i| (maxRelRatio)."""
    return [
        (neg * len(domains[vi]), vi, d) for neg, vi, d in _sd_keys(table, domains)
    ]


def _weighted_average(
    model: Model, weighted: Sequence[tuple[DensityTable, float]]
) -> list[tuple[float, int, int]]:
    """Rank keys (-score, var_index, value) for every value of every
    unbound variable in the tables' scopes, scored by the average of its
    densities over those tables, each weighted by exp of its log weight.

    Per variable the weights are rescaled by the largest participating
    log weight before exponentiation, so vastly different magnitudes
    stay finite.
    """
    per_var: dict[int, list[tuple[DensityTable, float]]] = {}
    for table, log_weight in weighted:
        for var in table.constraint.scope:
            if not model.is_bound(var):
                per_var.setdefault(var.index, []).append((table, log_weight))
    out = []
    for vi, entries in per_var.items():
        top = max(lw for _, lw in entries)
        weights = [(t, math.exp(lw - top)) for t, lw in entries]
        denom = math.fsum(w for _, w in weights)
        var = model.variables[vi]
        for d in model.domain_sorted(var):
            num = math.fsum(w * t.density(var, d) for t, w in weights)
            out.append((-num / denom, vi, d))
    return out


class TableRankHeuristic(ScoreHeuristic):
    """A rule that scores each pair of each table from that table and the
    domain sizes alone; its scores are the two least keys of each table.
    """

    #: the rank keys of one table's pairs: ``_sd_keys`` or a rescaling
    rule = staticmethod(_sd_keys)

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        rule, domains = self.rule, model._domains
        out = []
        for table in model.collect_densities():
            out += table.least_keys(rule, domains)
        return out


class MaxSD(TableRankHeuristic):
    """Maximum solution density over all counting constraints."""


class MaxRelSD(TableRankHeuristic):
    """Density minus the uniform density 1/|D_i|."""

    rule = staticmethod(_rel_sd_keys)


class MaxRelRatio(TableRankHeuristic):
    """Density relative to the uniform density (sigma * |D_i|)."""

    rule = staticmethod(_rel_ratio_keys)


class AAvgSD(ScoreHeuristic):
    """Arithmetic average of a pair's densities over its constraints
    (every table has log weight 0)."""

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        return _weighted_average(model, [(t, 0.0) for t in tables])


class WSCAvg(ScoreHeuristic):
    """Average density weighted by each constraint's solution count.

    Counts are carried in log space; a constraint without a count
    estimate (``-inf``) takes no part.
    """

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        tables = model.collect_densities()
        return _weighted_average(
            model, [(t, t.log_count) for t in tables if t.log_count != -math.inf]
        )


class MinSCMaxSD(ScoreHeuristic):
    """Max density within the constraint with the fewest solutions.

    Only tables with an unbound variable in their scope, which are those
    with ``_sd_keys``, are candidates; a constraint without a count
    estimate (``-inf``) takes no part.
    """

    def scores(self, model: Model) -> list[tuple[float, int, int]]:
        domains = model._domains
        candidates = [
            t
            for t in model.collect_densities()
            if t.log_count != -math.inf and t.least_keys(_sd_keys, domains)
        ]
        if not candidates:
            return []
        chosen = min(candidates, key=lambda t: (t.log_count, t.constraint.cid))
        return list(chosen.least_keys(_sd_keys, domains))


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
    """Per-constraint failure weights fed by the model's wipeout hook.

    A weight starts at 1, and the constraint a wipeout is blamed on gains
    1.  ``bumped`` lists each gain's constraint, once per gain, until a
    reader clears it.
    """

    def __init__(self, model: Model):
        self.weights: dict[int, int] = {}
        self.bumped: list[Constraint] = []
        model.on_wipeout(self._bump)

    def _bump(self, constraint: Optional[Constraint]) -> None:
        if constraint is None:
            return
        self.weights[constraint.cid] = self.weights.get(constraint.cid, 0) + 1
        self.bumped.append(constraint)

    def weight(self, constraint: Constraint) -> int:
        return 1 + self.weights.get(constraint.cid, 0)


def _least_ratio(
    domains: list[set[int]], unbound: list[int], degrees: list[int]
) -> int:
    """The variable of ``unbound`` (indices, ascending) with the least
    ``|D| / degree``, the lower index on ties; a degree of 0 ranks as
    ``math.inf``."""
    ratios = [
        len(domains[vi]) / deg if (deg := degrees[vi]) else math.inf
        for vi in unbound
    ]
    return unbound[ratios.index(min(ratios))]


class DomDeg(Heuristic):
    """dom/degree variable order (static degree), smallest value first.

    Each pick is one pass over the domains, which lists the unbound
    variables, and one over the unbound variables, which finds the least
    ``(|D| / degree, variable index)`` (``_least_ratio``).
    """

    #: the numbers of variables and constraints the degrees were set up for
    _n_vars = _n_constraints = -1

    def _reset(self, model: Model) -> None:
        """Set up the degrees: here each variable's number of posted
        constraints, counted once per occurrence."""
        self._static = list(map(len, model._watchers))

    def _degrees(self, model: Model, unbound: list[int]) -> list[int]:
        """Degree of every variable, indexed by variable index, given the
        unbound variables (indices, ascending)."""
        return self._static

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        domains = model._domains
        n_vars, n_constraints = len(domains), len(model.constraints)
        if n_vars != self._n_vars or n_constraints != self._n_constraints:
            self._n_vars, self._n_constraints = n_vars, n_constraints
            self._reset(model)
        unbound = [vi for vi, domain in enumerate(domains) if len(domain) > 1]
        degrees = self._degrees(model, unbound)
        if not unbound:
            return None
        vi = _least_ratio(domains, unbound, degrees)
        return model.variables[vi], min(domains[vi])


class DomWdeg(DomDeg):
    """dom/wdeg variable order (see the module docstring), smallest value
    first.

    The weighted degrees are kept across picks: each pick compares the
    unbound variables with the last pick's, and changes the degrees only
    by the constraints whose contribution changed since, those whose
    weight a wipeout bumped and those whose scope crossed the
    two-distinct-unbound-variables line, either way.
    """

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        super().__init__(model, rng)
        self.state = WdegState(model)

    def _reset(self, model: Model) -> None:
        """Start from no unbound variable, where every degree is 0."""
        self._unbound: set[int] = set()  # at the last pick
        self._wdeg = [0] * len(model._domains)
        # per constraint: its distinct unbound scope variables at the last
        # pick, and what it adds per occurrence (its weight, or 0)
        self._live_vars = [0] * len(model.constraints)
        self._adds = [0] * len(model.constraints)
        self.state.bumped.clear()

    def _degrees(self, model: Model, unbound: list[int]) -> list[int]:
        touched = self.state.bumped
        live_vars, watchers = self._live_vars, model._watchers
        now = set(unbound)
        for vi in now ^ self._unbound:
            step = 1 if vi in now else -1
            last = None
            for c in watchers[vi]:
                # a constraint watches a variable once per occurrence, in a
                # row (``Model.add``): count it once
                if c is not last:
                    live_vars[c.cid] += step
                    touched.append(c)
                    last = c
        self._unbound = now
        if touched:
            adds, wdeg = self._adds, self._wdeg
            state = self.state
            for c in touched:  # a constraint listed twice steps by 0 the second time
                cid = c.cid
                step = (state.weight(c) if live_vars[cid] >= 2 else 0) - adds[cid]
                if step:
                    adds[cid] += step
                    for v in c.scope:
                        wdeg[v.index] += step
            touched.clear()
        return self._wdeg


class Ibs(Heuristic):
    """Impact-based search with root probing and top-5 re-probing."""

    RE_PROBE = 5

    def __init__(self, model: Model, rng: Optional[random.Random] = None):
        super().__init__(model, rng)
        # per pair, the running (total, count) of its impacts
        self._impacts: dict[tuple[int, int], tuple[float, int]] = {}

    def branch(self, model: Model, var: Variable, value: int) -> str:
        """Push var = value and record its impact: the share of the search
        space it removes, or 1 on a wipeout."""
        before = model.log_search_space()
        status = model.push_decision("assign", var, value)
        if status == WIPEOUT:
            impact = 1.0
        else:
            impact = 1.0 - math.exp(model.log_search_space() - before)
        key = (var.index, value)
        total, n = self._impacts.get(key, (0.0, 0))
        self._impacts[key] = (total + impact, n + 1)
        return status

    def _avg(self, vi: int, d: int) -> float:
        total, n = self._impacts.get((vi, d), (0.0, 0))
        return total / n if n else 0.0

    def _probe_var(self, model: Model, var: Variable) -> None:
        level = model.level
        for d in model.domain_sorted(var):
            self.branch(model, var, d)
            model.backtrack_to(level)

    def _aggregate(self, model: Model, var: Variable) -> float:
        """Variable impact: total of its values' average impacts."""
        return math.fsum(self._avg(var.index, d) for d in model.domain_sorted(var))

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        unbound = model.unbound_variables()
        if not unbound:
            return None
        if not self._impacts:  # the first pick probes every pair, undone
            for var in unbound:
                self._probe_var(model, var)
        ranked = sorted(
            unbound, key=lambda v: (-self._aggregate(model, v), v.index)
        )
        subset = ranked[: self.RE_PROBE]
        if len(subset) > 1:
            for v in subset:
                self._probe_var(model, v)
        scores = [self._aggregate(model, v) for v in subset]
        best_score = max(scores)
        tied = [v for v, score in zip(subset, scores) if score == best_score]
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
    """The value of ``var`` with the highest density in any table, the
    smallest on ties; the smallest value when no table holds ``var``."""
    vi = var.index
    dom = model._domains[vi]
    tables = [
        model.density_table(c) for c in model._watchers[vi] if c.supports_counting
    ]
    keys = [(-t.densities.get((vi, d), 0.0), d) for t in tables for d in dom]
    return min(keys)[1] if keys else min(dom)


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

    def choose(self, model: Model, randomized: bool = False) -> Optional[Pair]:
        pick = self.var_rule.choose(model, randomized)
        if pick is None:
            return None
        var, _ = pick
        return var, self.value_rule(model, var)

    def branch(self, model: Model, var: Variable, value: int) -> str:
        return self.var_rule.branch(model, var, value)


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
