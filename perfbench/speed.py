"""How fast the machine runs right now, from a fixed pure-Python loop.

On a shared machine the speed of a core changes by 20-40% for minutes
at a time as other tenants' load comes and goes; CPU time slows with
wall time, so this is not scheduling.  A run of half a minute cannot
average that out, so the benchmark times this loop next to the program
and reports the program's times scaled to the loop's nominal speed.

The loop does the same kind of work as the solver (set and dict
lookups, recursion, small lists): it finds a maximum matching in a fixed
random bipartite graph by augmenting paths.  Its input never changes, so
it runs the same code whatever the program does, and any change in its
time is the machine's.
"""

from __future__ import annotations

import random
import time

_SIDE = 120
_rng = random.Random(7)
_EDGES = [frozenset(_rng.sample(range(_SIDE), 6)) for _ in range(_SIDE)]

#: fastest time of one ``loop()`` over a few passes on a quiet shared
#: 2-core x86-64 machine under CPython 3.11
NOMINAL_S = 0.0042

#: calls of ``loop()`` per sample
REPS = 3


def loop() -> int:
    """Size of a maximum matching of the fixed graph, found six times."""
    match: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in _EDGES[u]:
            if v not in seen:
                seen.add(v)
                if v not in match or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    for _ in range(6):
        match.clear()
        for u in range(_SIDE):
            augment(u, set())
    return len(match)


def sample() -> list[float]:
    """Times of ``REPS`` calls of ``loop()``, in seconds."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return times
