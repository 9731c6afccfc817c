"""Brute-force ground truth for the tests: exact permanents, perfect
matchings and sat/unsat verdicts.

Everything here favors exactness over speed: permanents use a bitmask
memo, and enumeration refuses instances above the tuple cap
(``countsearch.oracle.TUPLE_CAP``) instead of truncating.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from countsearch.engine import Model
from countsearch.oracle import TUPLE_CAP, OracleCapExceeded


def exact_permanent(matrix: Sequence[Sequence[int]]) -> int:
    """Permanent of a 0-1 matrix via first-row expansion, memoized on
    the set of available columns.  Rejects non-square or n > 12."""
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n > 12:
        raise ValueError("matrix too large for the exact permanent (n <= 12)")
    rows = []
    for row in matrix:
        bits = 0
        for j, entry in enumerate(row):
            if entry:
                bits |= 1 << j
        rows.append(bits)
    memo: dict[int, int] = {}

    def expand(mask: int) -> int:
        # row index = number of columns consumed so far
        i = n - bin(mask).count("1")
        if i == n:
            return 1
        if mask in memo:
            return memo[mask]
        total = 0
        avail = rows[i] & mask
        while avail:
            bit = avail & -avail
            avail ^= bit
            total += expand(mask ^ bit)
        memo[mask] = total
        return total

    return expand((1 << n) - 1)


def count_perfect_matchings(adj: Sequence[set[int]]) -> int:
    """Number of perfect matchings of an undirected graph given as
    neighbor sets (vertex indices)."""
    n = len(adj)
    if n % 2 == 1:
        return 0

    def rec(unmatched: frozenset[int]) -> int:
        if not unmatched:
            return 1
        v = min(unmatched)
        rest = unmatched - {v}
        total = 0
        for w in adj[v]:
            if w in rest:
                total += rec(rest - {w})
        return total

    return rec(frozenset(range(n)))


def exact_solve(
    model: Model,
    all_solutions: bool = False,
    cap: int = TUPLE_CAP,
) -> tuple[bool, list[dict[str, int]]]:
    """Exhaustive sat/unsat verdict (optionally all solutions)."""
    space = 1
    for var in model.variables:
        space *= model.size(var)
        if space > cap:
            raise OracleCapExceeded(f"{space} candidate tuples exceed cap {cap}")
    ordered = [model.domain_sorted(v) for v in model.variables]
    positions = {v.index: k for k, v in enumerate(model.variables)}
    solutions: list[dict[str, int]] = []
    for tup in itertools.product(*ordered):
        ok = True
        for c in model.constraints:
            values = [tup[positions[v.index]] for v in c.scope]
            if not c.check(values):
                ok = False
                break
        if ok:
            if not all_solutions:
                return True, [
                    {v.name: tup[k] for k, v in enumerate(model.variables)}
                ]
            solutions.append({v.name: tup[k] for k, v in enumerate(model.variables)})
    return bool(solutions), solutions
