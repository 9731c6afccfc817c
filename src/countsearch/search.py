"""Search drivers: binary DFS, geometric restarts, and LDS.

The search tree is binary: the left child asserts x = d, the right
child refutes it (x != d).  A backtrack is counted each time a wipeout
forces a subtree to be abandoned.

All three drivers run one iterative walker, ``_walk``, which keeps the
untried right branches on an explicit stack, so the depth of the tree
is not limited by Python's recursion limit.  ``dfs`` walks the whole
tree once, ``restart_search`` walks it repeatedly under growing
backtrack cutoffs, and ``lds`` walks it in waves of discrepancy windows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import CONSISTENT, WIPEOUT, Model
from .heuristics import Heuristic

SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"


@dataclass
class SearchStats:
    status: str = UNSAT
    backtracks: int = 0
    time_ms: float = 0.0
    restarts: int = 0
    max_discrepancy: int = 0
    solution: Optional[dict[str, int]] = None


class _Budget:
    def __init__(self, deadline: Optional[float], backtrack_limit: Optional[int]):
        self.deadline = deadline  # on the time.monotonic() clock
        self.backtrack_limit = backtrack_limit
        self.backtracks = 0
        self.timed_out = False
        self.cut_off = False

    def note_backtrack(self) -> None:
        """Count a failure as a backtrack; cut off at the limit.

        A failure that the limit leaves no backtrack for is not counted,
        so a limit of 0 stops the search at its first failure.
        """
        limit = self.backtrack_limit
        if limit is None or self.backtracks < limit:
            self.backtracks += 1
        if limit is not None and self.backtracks >= limit:
            self.cut_off = True

    def exhausted(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
        return self.timed_out or self.cut_off


def _check_backtrack_limit(backtrack_limit: Optional[int]) -> None:
    if backtrack_limit is not None and backtrack_limit < 0:
        raise ValueError(
            f"backtrack limit must be nonnegative, got {backtrack_limit}"
        )


def _observe(heuristic: Heuristic, model, var, value, before, status) -> None:
    if status == WIPEOUT:
        heuristic.observe(var, value, 1.0)
    else:
        after = model.log_search_space()
        heuristic.observe(var, value, 1.0 - math.exp(after - before))


def _walk(
    model: Model,
    heuristic: Heuristic,
    budget: _Budget,
    randomized: bool = False,
    low: int = 0,
    high: float = math.inf,
) -> Optional[str]:
    """Walk the tree below the current node, visiting the branches whose
    discrepancy count t (right branches taken) satisfies low <= t <= high.

    Returns SAT with the model at a solution, TIMEOUT when the budget
    runs out, or None when the window holds no solution; on TIMEOUT and
    None the model is left wherever the walk stopped.
    """
    # untried right branches, deepest last: (var, value, level, low, high)
    # with the level and window of the node that made the decision
    open_right: list = []
    learns = heuristic.uses_impact
    while True:
        # at a consistent node whose subtree has window [low, high]
        if budget.exhausted():
            return TIMEOUT
        pick = heuristic.choose(model, randomized)
        if pick is None:
            if low == 0:
                return SAT
        else:
            var, value = pick
            open_right.append((var, value, model.level, low, high))
            before = model.log_search_space() if learns else None
            status = model.push_decision("assign", var, value)
            if learns:
                _observe(heuristic, model, var, value, before, status)
            if status == CONSISTENT:
                continue
            budget.note_backtrack()
        # the subtree failed: refute the deepest untried decision
        while open_right:
            var, value, level, low, high = open_right.pop()
            model.backtrack_to(level)
            if budget.exhausted():
                return TIMEOUT
            if high == 0:
                continue
            status = model.push_decision("refute", var, value)
            if status == CONSISTENT:
                low, high = max(0, low - 1), high - 1
                break
            budget.note_backtrack()
        else:
            return None  # no untried decision left in the window


def _search(
    model: Model,
    timeout: Optional[float],
    walks: Callable[[SearchStats, Optional[float]], str],
) -> SearchStats:
    """Propagate the root, get the status from ``walks(stats, deadline)``,
    then keep the solution on SAT or restore the root otherwise."""
    stats = SearchStats()
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    root = model.level
    if model.propagate() != WIPEOUT:
        stats.status = walks(stats, deadline)
        if stats.status == SAT:
            stats.solution = model.solution()
        else:
            model.backtrack_to(root)
    stats.time_ms = (time.perf_counter() - start) * 1000.0
    return stats


def dfs(
    model: Model,
    heuristic: Heuristic,
    timeout: Optional[float] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Depth-first search; left branch x=d, right branch x!=d."""
    _check_backtrack_limit(backtrack_limit)

    def walks(stats: SearchStats, deadline: Optional[float]) -> str:
        budget = _Budget(deadline, backtrack_limit)
        outcome = _walk(model, heuristic, budget)
        stats.backtracks = budget.backtracks
        if outcome == SAT:
            return SAT
        return TIMEOUT if budget.timed_out or budget.cut_off else UNSAT

    return _search(model, timeout, walks)


def restart_search(
    model: Model,
    heuristic: Heuristic,
    scale: int = 100,
    timeout: Optional[float] = None,
    max_restarts: Optional[int] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Geometric restarts: run i is cut off after scale * 2^i backtracks,
    or after what is left of ``backtrack_limit``, the total over all runs.

    The heuristic randomizes between its two best choices; learned
    state persists across runs.  A run that completes without hitting
    its cutoff proves unsat; otherwise only sat or timeout can be
    concluded.
    """
    if scale < 1:
        raise ValueError(f"restart scale must be at least 1, got {scale}")
    _check_backtrack_limit(backtrack_limit)

    def walks(stats: SearchStats, deadline: Optional[float]) -> str:
        root = model.level
        while True:
            cutoff = scale * (2 ** stats.restarts)
            if backtrack_limit is not None:
                cutoff = min(cutoff, backtrack_limit - stats.backtracks)
            budget = _Budget(deadline, cutoff)
            outcome = _walk(model, heuristic, budget, randomized=True)
            stats.backtracks += budget.backtracks
            if outcome == SAT:
                return SAT
            if budget.timed_out:
                return TIMEOUT
            if not budget.cut_off:
                return UNSAT  # exhausted under the cutoff: real proof
            if backtrack_limit is not None and stats.backtracks >= backtrack_limit:
                return TIMEOUT
            model.backtrack_to(root)
            heuristic.on_restart()
            stats.restarts += 1
            if max_restarts is not None and stats.restarts >= max_restarts:
                return TIMEOUT

    return _search(model, timeout, walks)


def lds(
    model: Model,
    heuristic: Heuristic,
    skip: int = 1,
    timeout: Optional[float] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Limited discrepancy search in waves of ``skip`` discrepancies.

    Wave w visits branches with discrepancy count in
    [w*skip, (w+1)*skip - 1]; waves continue until a solution, proof of
    exhaustion, or timeout.  ``backtrack_limit`` caps the total over all
    waves.
    """
    if skip < 1:
        raise ValueError(f"LDS skip must be at least 1, got {skip}")
    _check_backtrack_limit(backtrack_limit)

    def walks(stats: SearchStats, deadline: Optional[float]) -> str:
        root = model.level
        max_disc = sum(max(0, model.size(v) - 1) for v in model.variables)
        budget = _Budget(deadline, backtrack_limit)
        for low in range(0, max_disc + 1, skip):
            if deadline is not None and time.monotonic() >= deadline:
                return TIMEOUT
            high = low + skip - 1
            outcome = _walk(model, heuristic, budget, low=low, high=high)
            stats.backtracks = budget.backtracks
            stats.max_discrepancy = high
            if outcome == SAT:
                return SAT
            if budget.timed_out or budget.cut_off:
                return TIMEOUT
            model.backtrack_to(root)
        return UNSAT

    return _search(model, timeout, walks)
