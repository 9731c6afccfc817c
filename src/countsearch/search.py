"""Search drivers: binary DFS, geometric restarts, and LDS.

The search tree is binary: the left child asserts x = d, the right
child refutes it (x != d).  A backtrack is counted each time a wipeout
forces a subtree to be abandoned.

Each driver is a schedule of runs ``(randomized, cap, cutoff)``: whether
the heuristic randomizes its picks, the most right branches (the
discrepancies) a path may take, and the most backtracks the run may
make.  ``dfs`` makes one uncapped run, ``restart_search`` randomized
runs cut off after scale * 2^i backtracks, and ``lds`` waves capped at
skip - 1, 2 * skip - 1, ... (Harvey & Ginsberg, IJCAI 1995).  One loop,
in ``_search``, walks the runs from the root in turn, under one deadline
and one backtrack limit.  Every leaf a run reaches is a solution, and a
run that neither its cap nor its cutoff cut short proves unsat.  A run
is one call of ``_walk``, which keeps the untried right branches on an
explicit stack, so the depth of the tree is not limited by Python's
recursion limit.  At each node the walk takes the heuristic's pick
(``choose``) and its left branch through the heuristic (``branch``).

The search keeps its own record of its decisions in ``SearchStats``:
``nodes`` counts the ``choose`` calls of all runs, the last one at a
solution (which picks nothing) included, and ``digest`` is the first 16
hex digits of the SHA-256 of the repr of the list of (variable index,
value) picks.  The digest is fed one pick at a time, so no list is kept.

A search that ends on a solution leaves the model there, with the
density tables on its trail released (``Model.release_tables``): a
later backtrack restores every domain and recounts on demand.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Optional

from .engine import CONSISTENT, WIPEOUT, Model
from .heuristics import Heuristic

SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"

Run = tuple[bool, float, Optional[int]]  # (randomized, cap, cutoff)


@dataclass
class SearchStats:
    status: str = UNSAT
    backtracks: int = 0
    time_ms: float = 0.0
    restarts: int = 0  # runs begun because the last one hit its cutoff
    max_discrepancy: int = 0  # the cap of the last capped run
    solution: Optional[dict[str, int]] = None
    nodes: int = 0  # choose calls over all runs (see the module docstring)
    digest: str = ""  # of the (variable index, value) picks, set at the end


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


def _walk(
    model: Model,
    heuristic: Heuristic,
    budget: _Budget,
    randomized: bool,
    cap: float,
    stats: SearchStats,
    pick_hash,  # hashlib.sha256 of the picks' repr so far, "[" included
) -> Optional[str]:
    """Walk the tree below the current node, taking at most ``cap`` right
    branches on any path, and count each node in ``stats.nodes`` and its
    pick in ``pick_hash``.

    Returns SAT with the model at a solution, UNSAT when the walk covered
    the whole tree (the cap left out no right branch and the budget cut
    off no backtrack), or None otherwise, with the model left wherever
    the walk stopped.
    """
    # untried right branches, deepest last: (var, value, level, left)
    # with the level of the node that made the decision and the
    # discrepancies left below that node
    open_right: list = []
    capped = False
    left = cap
    while True:
        # at a consistent node with `left` discrepancies left below it
        if budget.exhausted():
            return None
        pick = heuristic.choose(model, randomized)
        stats.nodes += 1
        if pick is None:
            return SAT
        var, value = pick
        # a None pick ends the search, so every earlier node picked
        sep = ", " if stats.nodes > 1 else ""
        pick_hash.update(f"{sep}({var.index}, {value})".encode())
        open_right.append((var, value, model.level, left))
        if heuristic.branch(model, var, value) == CONSISTENT:
            continue
        budget.note_backtrack()
        # the subtree failed: refute the deepest untried decision
        while open_right:
            var, value, level, left = open_right.pop()
            model.backtrack_to(level)
            if budget.exhausted():
                return None
            if not left:
                capped = True
                continue
            status = model.push_decision("refute", var, value)
            if status == CONSISTENT:
                left -= 1
                break
            budget.note_backtrack()
        else:
            return None if capped or budget.cut_off else UNSAT


def _search(
    model: Model,
    heuristic: Heuristic,
    timeout: Optional[float],
    backtrack_limit: Optional[int],
    runs: Iterable[Run],
) -> SearchStats:
    """Propagate the root, then walk ``runs`` from it in turn until one
    finds a solution or proves unsat, the time runs out, the backtracks
    reach ``backtrack_limit`` (the total over all runs) or the runs do
    (TIMEOUT).  Keep the solution on SAT, releasing the trailed density
    tables, or restore the root otherwise."""
    if backtrack_limit is not None and backtrack_limit < 0:
        raise ValueError(
            f"backtrack limit must be nonnegative, got {backtrack_limit}"
        )
    if timeout is not None and not timeout >= 0:  # NaN included
        raise ValueError(f"timeout must be nonnegative, got {timeout}")
    stats = SearchStats()
    pick_hash = hashlib.sha256(b"[")
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    root = model.level
    if model.propagate() != WIPEOUT:
        stats.status = TIMEOUT
        restart = False  # whether the last run stopped at its own cutoff
        for randomized, cap, cutoff in runs:
            stats.restarts += restart
            model.backtrack_to(root)
            limit = cutoff
            if backtrack_limit is not None:
                remaining = backtrack_limit - stats.backtracks
                limit = remaining if cutoff is None else min(cutoff, remaining)
            budget = _Budget(deadline, limit)
            outcome = _walk(model, heuristic, budget, randomized, cap, stats, pick_hash)
            stats.backtracks += budget.backtracks
            if cap < math.inf:
                stats.max_discrepancy = cap
            if outcome is not None:
                stats.status = outcome
                break
            if budget.timed_out or (
                backtrack_limit is not None and stats.backtracks >= backtrack_limit
            ):
                break
            restart = budget.cut_off
        if stats.status == SAT:
            stats.solution = model.solution()
            model.release_tables()
        else:
            model.backtrack_to(root)
    pick_hash.update(b"]")
    stats.digest = pick_hash.hexdigest()[:16]
    stats.time_ms = (time.perf_counter() - start) * 1000.0
    return stats


def dfs(
    model: Model,
    heuristic: Heuristic,
    timeout: Optional[float] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Depth-first search; left branch x=d, right branch x!=d."""
    runs = [(False, math.inf, None)]
    return _search(model, heuristic, timeout, backtrack_limit, runs)


def restart_search(
    model: Model,
    heuristic: Heuristic,
    scale: int = 100,
    timeout: Optional[float] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Geometric restarts: run i is cut off after scale * 2^i backtracks,
    or after what is left of ``backtrack_limit``, the total over all runs.

    Each run asks for randomized picks, which the counting rules draw
    between their two best choices (a rule that reads no ``randomized``
    picks as in ``dfs``); learned state persists across runs.  A run
    that completes without hitting its cutoff proves unsat; otherwise
    only sat or timeout can be concluded.
    """
    if scale < 1:
        raise ValueError(f"restart scale must be at least 1, got {scale}")
    runs = ((True, math.inf, scale * 2**i) for i in count())
    return _search(model, heuristic, timeout, backtrack_limit, runs)


def lds(
    model: Model,
    heuristic: Heuristic,
    skip: int = 1,
    timeout: Optional[float] = None,
    backtrack_limit: Optional[int] = None,
) -> SearchStats:
    """Limited discrepancy search in waves of ``skip`` discrepancies.

    Wave w walks every path with at most (w + 1) * skip - 1 right
    branches and takes any solution it reaches; the first wave whose cap
    leaves out no right branch proves unsat.  ``backtrack_limit`` caps
    the total over all waves.
    """
    if skip < 1:
        raise ValueError(f"LDS skip must be at least 1, got {skip}")
    runs = ((False, w * skip - 1, None) for w in count(1))
    return _search(model, heuristic, timeout, backtrack_limit, runs)
