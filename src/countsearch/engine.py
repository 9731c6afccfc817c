"""CSP core: variables, reversible domains, trail, and propagation.

The model owns all mutable state.  Domains are sets of integers with a
removal trail tagged by decision level, so any earlier level can be
restored bit-exactly.  Constraints register a consistency level and a
dirty flag; per-constraint density tables are cached and the cache is
trailed together with the domains.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

CONSISTENT = "consistent"
WIPEOUT = "wipeout"

# consistency levels
FORWARD_CHECKING = "fc"
BOUNDS = "bounds"
DOMAIN = "domain"


class Variable:
    """Handle for a model variable; all state lives in the model."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name

    def __repr__(self):
        return f"Variable({self.index}, {self.name!r})"


@dataclass
class DensityTable:
    """Solution-count estimate and per-pair solution densities.

    ``log_count`` is the natural log of the count estimate (``-inf`` for
    a wiped-out constraint).  ``densities`` maps ``(variable_index,
    value)`` to a density in [0, 1]; for each unbound variable in the
    scope the densities over its current domain sum to 1.
    """

    constraint: "Constraint"
    log_count: float
    densities: dict[tuple[int, int], float]

    def density(self, var: Variable, value: int) -> float:
        return self.densities.get((var.index, value), 0.0)


class Constraint:
    """Base class for all constraints.

    Subclasses implement ``propagate`` (filtering at the configured
    consistency level), ``check`` (oracle-side tuple test) and, when the
    constraint supports counting, ``count_densities``.
    """

    supports_counting = False
    #: whether one ``propagate`` call reaches its own fixpoint, so that a
    #: second call on the domains it leaves removes nothing; the queue then
    #: skips a wakeup caused only by the constraint's own removals
    idempotent = False

    def __init__(self, scope: Sequence[Variable], consistency: str = DOMAIN):
        self.scope: tuple[Variable, ...] = tuple(scope)
        self.consistency = consistency
        self.dirty = True
        self.cache: Optional[DensityTable] = None
        self._queued = False
        # a domain in the scope changed since the last propagate call,
        # other than by that call's own removals
        self._stale = True
        self.cid = -1  # set when posted

    def propagate(self, model: "Model") -> bool:
        """Filter domains; return False on wipeout."""
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        """Does the full tuple ``values`` (one per scope var) satisfy us?"""
        raise NotImplementedError

    def count_densities(self, model: "Model") -> DensityTable:
        raise NotImplementedError

    def _domains(self, model: "Model") -> list[set[int]]:
        """The live domain sets of the scope, in scope order."""
        return [model._domains[v.index] for v in self.scope]

    def name(self) -> str:
        return type(self).__name__


# trail entry tags
_T_REMOVE = 0
_T_CACHE = 1


class Model:
    """A CSP instance with reversible state and a FIFO propagation queue."""

    def __init__(self):
        self._domains: list[set[int]] = []
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._watchers: list[list[Constraint]] = []
        self._trail: list = []
        self._level_marks: list[int] = [0]
        self._queue: deque[Constraint] = deque()
        self.last_wipeout: Optional[Constraint] = None
        self._wipeout_listeners: list[Callable[[Constraint], None]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_variable(self, values: Iterable[int], name: str = "") -> Variable:
        idx = len(self.variables)
        var = Variable(idx, name or f"x{idx}")
        self.variables.append(var)
        dom = set(values)
        if not dom:
            raise ValueError(f"variable {var.name} has an empty initial domain")
        self._domains.append(dom)
        self._watchers.append([])
        return var

    def add(self, constraint: Constraint) -> Constraint:
        constraint.cid = len(self.constraints)
        self.constraints.append(constraint)
        for var in constraint.scope:
            self._watchers[var.index].append(constraint)
        self._enqueue(constraint)
        return constraint

    # ------------------------------------------------------------------
    # domain queries
    # ------------------------------------------------------------------
    def domain(self, var: Variable) -> set[int]:
        """Current domain (a copy; mutate via remove_value/assign only)."""
        return set(self._domains[var.index])

    def domain_sorted(self, var: Variable) -> list[int]:
        return sorted(self._domains[var.index])

    def size(self, var: Variable) -> int:
        return len(self._domains[var.index])

    def min(self, var: Variable) -> int:
        return min(self._domains[var.index])

    def max(self, var: Variable) -> int:
        return max(self._domains[var.index])

    def contains(self, var: Variable, value: int) -> bool:
        return value in self._domains[var.index]

    def is_bound(self, var: Variable) -> bool:
        return len(self._domains[var.index]) == 1

    def value_of(self, var: Variable) -> int:
        dom = self._domains[var.index]
        if len(dom) != 1:
            raise ValueError(f"{var.name} is not bound")
        return next(iter(dom))

    def unbound_variables(self) -> list[Variable]:
        return [v for v in self.variables if len(self._domains[v.index]) > 1]

    def solution(self) -> dict[str, int]:
        return {v.name: self.value_of(v) for v in self.variables}

    def log_search_space(self) -> float:
        return sum(math.log(len(d)) for d in self._domains)

    # ------------------------------------------------------------------
    # mutation (trailed)
    # ------------------------------------------------------------------
    def remove_value(self, var: Variable, value: int, cause: Optional[Constraint] = None) -> bool:
        """Remove ``value`` from ``var``'s domain; False if it wipes out."""
        dom = self._domains[var.index]
        if value not in dom:
            return True
        dom.discard(value)
        self._trail.append((_T_REMOVE, var.index, value))
        self._on_domain_change(var, cause)
        if not dom:
            self.last_wipeout = cause
            for cb in self._wipeout_listeners:
                cb(cause)
            return False
        return True

    def assign(self, var: Variable, value: int, cause: Optional[Constraint] = None) -> bool:
        dom = self._domains[var.index]
        if value not in dom:
            # removing everything wipes out; report through the same path
            for v in list(dom):
                if not self.remove_value(var, v, cause):
                    return False
            return False
        for v in list(dom):
            if v != value:
                if not self.remove_value(var, v, cause):
                    return False
        return True

    def _on_domain_change(self, var: Variable, cause: Optional[Constraint]) -> None:
        for c in self._watchers[var.index]:
            if c is not cause:
                c._stale = True
            if not c.dirty:
                self._trail.append((_T_CACHE, c, c.dirty, c.cache))
                c.dirty = True
            self._enqueue(c)

    def _enqueue(self, c: Constraint) -> None:
        if not c._queued:
            c._queued = True
            self._queue.append(c)

    def on_wipeout(self, callback: Callable[[Constraint], None]) -> None:
        self._wipeout_listeners.append(callback)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self) -> str:
        """Run the FIFO queue to fixpoint; returns CONSISTENT or WIPEOUT.

        An idempotent constraint whose scope changed only by its own
        removals since its last call is dequeued without being called.
        """
        while self._queue:
            c = self._queue.popleft()
            c._queued = False
            if c.idempotent and not c._stale:
                continue
            c._stale = False
            if not c.propagate(self):
                if self.last_wipeout is None:
                    self.last_wipeout = c
                    for cb in self._wipeout_listeners:
                        cb(c)
                self._clear_queue()
                return WIPEOUT
        return CONSISTENT

    def _clear_queue(self) -> None:
        while self._queue:
            self._queue.popleft()._queued = False

    # ------------------------------------------------------------------
    # decisions / trail
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return len(self._level_marks) - 1

    def push_level(self) -> int:
        self._level_marks.append(len(self._trail))
        return self.level

    def push_decision(self, kind: str, var: Variable, value: int) -> str:
        """Open a level, apply assign/refute, propagate to fixpoint."""
        if value not in self._domains[var.index]:
            raise ValueError(f"value {value} not in domain of {var.name}")
        self.push_level()
        self.last_wipeout = None
        if kind == "assign":
            ok = self.assign(var, value)
        elif kind == "refute":
            ok = self.remove_value(var, value)
        else:
            raise ValueError(f"unknown decision kind {kind!r}")
        if not ok:
            self._clear_queue()
            return WIPEOUT
        return self.propagate()

    def backtrack_to(self, level: int) -> None:
        if level > self.level:
            raise ValueError(f"cannot backtrack forward to level {level}")
        if level < 0:
            raise ValueError("level must be nonnegative")
        if level == self.level:
            return
        mark = self._level_marks[level + 1]
        while len(self._trail) > mark:
            entry = self._trail.pop()
            tag = entry[0]
            if tag == _T_REMOVE:
                self._domains[entry[1]].add(entry[2])
            else:
                c = entry[1]
                c.dirty = entry[2]
                c.cache = entry[3]
        del self._level_marks[level + 1 :]
        self.last_wipeout = None
        self._clear_queue()

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def collect_densities(self) -> list[DensityTable]:
        """Density tables for all counting constraints, using caches.

        Dirty constraints are recounted and their caches refreshed (the
        refresh is trailed so backtracking restores the earlier table);
        clean constraints return the cached table unchanged.
        """
        tables = []
        for c in self.constraints:
            if not c.supports_counting:
                continue
            if c.dirty or c.cache is None:
                table = c.count_densities(self)
                self._trail.append((_T_CACHE, c, c.dirty, c.cache))
                c.dirty = False
                c.cache = table
            tables.append(c.cache)
        return tables
