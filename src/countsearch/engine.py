"""CSP core: variables, reversible domains, trail, and propagation.

The model owns all mutable state.  Domains are sets of integers with a
removal trail tagged by decision level, so any earlier level can be
restored bit-exactly; each domain is one set for the model's life.
Constraints register a consistency level;
per-constraint density tables are cached, a domain change empties the
cache, and the cache is trailed together with the domains, so a cached
table always describes the live domains of its scope; a table memoizes
what a heuristic derives from it (``DensityTable.least_keys``) for that
reason.  The trail keeps a superseded table whole only when no rule has
ranked it; a ranked one goes on the trail as a copy with its count and
least keys but no densities, which are recounted, on the same domains,
only if a restored copy's densities are read.  ``release_tables`` lets
a finished search drop the superseded tables its trail holds.  Constraints
may trail changes to state of their own (``Model.trail_undo``): the
layered graphs of ``Regular`` and exact ``Knapsack`` trail their arc
deletions and their creation, so backtracking revives the arcs and drops
a graph built below the level it returns to.  Each wipeout is reported
once, from one place, to the ``on_wipeout`` listeners, with its culprit:
the constraint whose ``propagate`` call failed, or None when a decision
itself empties a domain.

One summation rule holds in every module: each float total on a count,
density or score path is a ``math.fsum``.  It is exactly rounded on
every supported interpreter (``sum()`` compensates float sums only from
CPython 3.12 on), so a total depends on its terms alone, not on their
order, and a density table on its constraint's domains alone, not on
the scope order or the order a domain set iterates in.  A last-bit
change in a density can flip an exact tie between picks.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

CONSISTENT = "consistent"
WIPEOUT = "wipeout"


# consistency levels
FORWARD_CHECKING = "fc"
DOMAIN = "domain"
LEVELS = (FORWARD_CHECKING, DOMAIN)


def check_level(consistency: str) -> str:
    """``consistency`` if it is one of ``LEVELS``; else ValueError."""
    if consistency not in LEVELS:
        raise ValueError(f"unknown consistency level {consistency!r}")
    return consistency


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

    ``log_count`` is the natural log of the count estimate: ``-inf`` for
    a count of 0, and for a Gaussian knapsack, which has no count.
    ``densities`` maps ``(variable_index, value)`` to a density in
    [0, 1]; unless the count is 0, for each unbound variable in the
    scope the densities over its current domain sum to 1.  Every value of
    every domain in the scope has an entry, unless a domain is empty.

    When a domain change supersedes a cached table, the trail keeps it
    whole if no rule has ranked it (``least_keys``), and otherwise a copy
    with the same count and least keys whose densities are recounted on
    first read (``_RankedTable``), so a backtrack restores its ranking
    without a recount.
    """

    constraint: "Constraint"
    log_count: float
    densities: dict[tuple[int, int], float]
    # (rank rule, its two least keys), set by ``least_keys``
    _least: Optional[tuple] = field(default=None, repr=False, compare=False)

    def density(self, var: Variable, value: int) -> float:
        return self.densities.get((var.index, value), 0.0)

    def least_keys(
        self,
        rule: Callable[["DensityTable", list[set[int]]], list],
        domains: list[set[int]],
    ) -> tuple:
        """The two least of the rank keys ``rule(self, domains)`` lists
        (with repeats; fewer when it lists fewer), in ascending order.

        ``domains`` are the live domains of the model whose cache holds
        this table.  The keys of the last rule asked for are kept: the
        model drops the table from its constraint's cache as soon as a
        domain in the scope changes, and a table restored from the trail
        comes back with the domains it was counted on, so while the
        table is read its scope's domains never change.  These keys are
        what the trail keeps of a superseded table; a restored copy
        asked for another rule's keys recounts its densities first.
        """
        memo = self._least
        if memo is not None and memo[0] is rule:
            return memo[1]
        keys = rule(self, domains)
        if len(keys) > 2:
            first = min(keys)
            keys.remove(first)
            least = (first, min(keys))
        else:
            least = tuple(sorted(keys))
        self._least = (rule, least)
        return least


class _RankedTable(DensityTable):
    """A superseded table as the trail keeps it once a rule has ranked
    it: its constraint, count and least keys, and a weak reference to the
    model, but no densities.

    Its densities are recounted from the constraint when first read.  A
    restored copy is read only from its constraint's cache, whose table
    always describes the live domains of the scope, so the recount is
    the table that was dropped.
    """

    def __init__(self, table: DensityTable, model: "Model"):
        self.constraint = table.constraint
        self.log_count = table.log_count
        self._least = table._least
        self._model = weakref.ref(model)

    def __getattr__(self, name: str):
        if name != "densities":
            raise AttributeError(name)
        self.densities = self.constraint.count_densities(self._model()).densities
        return self.densities


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
    #: set by ``repeats`` at its first call
    _repeats: Optional[tuple[int, ...]] = None

    def __init__(self, scope: Sequence[Variable], consistency: str = DOMAIN):
        self.scope: tuple[Variable, ...] = tuple(scope)
        self.consistency = check_level(consistency)
        # the density table of the current domains; None when stale
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

    def repeats(self) -> tuple[int, ...]:
        """The index of each scope variable once per scope position it
        fills after its first, in scope order; empty when no variable
        fills two positions."""
        repeats = self._repeats
        if repeats is None:
            seen: set[int] = set()
            later = []
            for var in self.scope:
                if var.index in seen:
                    later.append(var.index)
                seen.add(var.index)
            repeats = self._repeats = tuple(later)
        return repeats

    def _domains(self, model: "Model") -> list[set[int]]:
        """The live domain sets of the scope, in scope order."""
        return [model._domains[v.index] for v in self.scope]

    def name(self) -> str:
        return type(self).__name__


# trail entry tags
_T_REMOVE = 0
_T_CACHE = 1
_T_UNDO = 2


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
        self._wipeout_listeners: list[Callable[[Optional[Constraint]], None]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_variable(self, values: Iterable[int], name: str = "") -> Variable:
        """A variable over ``values``, named ``name`` or else ``x<index>``.
        Names must be unique, as a solution maps each name to its value;
        the search refuses a model whose names repeat."""
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
        if constraint.cid != -1:  # its state follows the model it serves
            raise ValueError(f"{constraint.name()} #{constraint.cid} is already posted")
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
        return math.fsum(math.log(len(d)) for d in self._domains)

    # ------------------------------------------------------------------
    # mutation (trailed)
    # ------------------------------------------------------------------
    def remove_value(self, var: Variable, value: int, cause: Optional[Constraint] = None) -> bool:
        """Remove ``value`` from ``var``'s domain; False if it wipes out."""
        dom = self._domains[var.index]
        if value not in dom:
            return True
        dom.discard(value)
        trail = self._trail
        trail.append((_T_REMOVE, var.index, value))
        # each watcher drops its cached table (trailed) and joins the queue;
        # its own removals do not make it stale
        for c in self._watchers[var.index]:
            if c is not cause:
                c._stale = True
            table = c.cache
            if table is not None:
                if table._least is not None:
                    table = _RankedTable(table, self)
                trail.append((_T_CACHE, c, table))
                c.cache = None
            if not c._queued:
                c._queued = True
                self._queue.append(c)
        if not dom:
            return False
        return True

    def assign(self, var: Variable, value: int, cause: Optional[Constraint] = None) -> bool:
        # a value outside the domain removes them all, ending on a wipeout
        for v in list(self._domains[var.index]):
            if v != value and not self.remove_value(var, v, cause):
                return False
        return True

    def trail_undo(self, undo: Callable[[object], None], arg: object) -> None:
        """Trail a change to state outside the model: backtracking past
        this point calls ``undo(arg)``, in LIFO order with the rest of the
        trail."""
        self._trail.append((_T_UNDO, undo, arg))

    def release_tables(self) -> None:
        """Empty the density table of every cache entry on the trail.

        Backtracking past such an entry then leaves the cache empty, and
        the constraint recounts on demand, on the same domains, since the
        removals stay on the trail.  A search that ends on a solution
        calls this: the tables it superseded are most of what its trail
        holds.
        """
        trail = self._trail
        for i, entry in enumerate(trail):
            if entry[0] == _T_CACHE and entry[2] is not None:
                trail[i] = (_T_CACHE, entry[1], None)

    def _enqueue(self, c: Constraint) -> None:
        if not c._queued:
            c._queued = True
            self._queue.append(c)

    def on_wipeout(self, callback: Callable[[Optional[Constraint]], None]) -> None:
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
                return self._wipeout(c)
        return CONSISTENT

    def _wipeout(self, culprit: Optional[Constraint]) -> str:
        """Report a wipeout blamed on ``culprit`` and empty the queue."""
        for cb in self._wipeout_listeners:
            cb(culprit)
        self._clear_queue()
        return WIPEOUT

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
        """Open a level.  Leaving level 0 empties the trail: no backtrack
        goes below level 0, so nothing recorded there is ever undone."""
        if len(self._level_marks) == 1:
            self._trail.clear()
        self._level_marks.append(len(self._trail))
        return self.level

    def push_decision(self, kind: str, var: Variable, value: int) -> str:
        """Open a level, apply assign/refute, propagate to fixpoint."""
        if kind not in ("assign", "refute"):
            raise ValueError(f"unknown decision kind {kind!r}")
        if value not in self._domains[var.index]:
            raise ValueError(f"value {value} not in domain of {var.name}")
        self.push_level()
        if kind == "assign":
            ok = self.assign(var, value)
        else:
            ok = self.remove_value(var, value)
        if not ok:
            return self._wipeout(None)
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
            elif tag == _T_UNDO:
                entry[1](entry[2])
            else:
                entry[1].cache = entry[2]
        del self._level_marks[level + 1 :]
        self._clear_queue()

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def density_table(self, c: Constraint) -> DensityTable:
        """``c``'s density table, using its cache.

        A stale constraint is recounted and its cache filled (trailed, so
        backtracking empties it again); a fresh one returns the cached
        table unchanged.
        """
        if c.cache is None:
            table = c.count_densities(self)
            self._trail.append((_T_CACHE, c, None))
            c.cache = table
        return c.cache

    def collect_densities(self) -> list[DensityTable]:
        """Density tables for all counting constraints, using caches."""
        return [
            self.density_table(c) for c in self.constraints if c.supports_counting
        ]
