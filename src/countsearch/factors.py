"""Precomputed log-space factor tables for permanent upper bounds.

Two classical upper bounds on the permanent of a 0-1 matrix are used
throughout: the Bregman-Minc bound, a product of per-row factors
(r!)^(1/r), and the Liang-Bai bound, whose per-row factors depend on
both the row sum and the row's position in a fixed ordering.  Both are
carried as sums of logarithms so that products over hundreds of rows
cannot overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


#: row sum up to which ``bm_log_factor`` reads one shared factor table
BM_TABLE_SIZE = 512


@lru_cache(maxsize=None)
def bm_table(n_max: int) -> tuple[float, ...]:
    """``bm_table(n)[r] == bm_log_factor(r)`` for 1 <= r <= n."""
    # log((r!)^(1/r)) = lgamma(r+1)/r ; entry 0 is unused but kept so the
    # table can be indexed directly by row sum.
    return tuple(
        0.0 if r == 0 else math.lgamma(r + 1) / r for r in range(n_max + 1)
    )


def bm_log_factor(r: int) -> float:
    """log of the Bregman-Minc per-row factor (r!)^(1/r)."""
    if r < 0:
        raise ValueError("row sum must be nonnegative")
    if r <= BM_TABLE_SIZE:
        return bm_table(BM_TABLE_SIZE)[r]
    return math.lgamma(r + 1) / r


def lb_q(r: int, i: int) -> int:
    """Liang-Bai q value for a row with sum ``r`` at 1-based position ``i``."""
    return min((r + 1) // 2 + (r + 1) % 2, (i + 1) // 2)


def lb_log_factor(r: int, i: int) -> float:
    """log of sqrt(q * (r - q + 1)) for row sum ``r`` at position ``i``."""
    q = lb_q(r, i)
    return 0.5 * math.log(q * (r - q + 1))


def bm_log_bound(row_sums) -> float:
    """Bregman-Minc log upper bound for given row sums.

    Returns ``-inf`` when some row is empty (no assignment exists).
    """
    total = 0.0
    for r in row_sums:
        if r == 0:
            return -math.inf
        total += bm_log_factor(r)
    return total


#: matrix size up to which ``lb_log_bound`` reads one shared factor table;
#: a table has (size + 1)^2 entries, so larger matrices compute factors
LB_TABLE_SIZE = 64


@lru_cache(maxsize=None)
def lb_table(n_max: int) -> tuple[tuple[float, ...], ...]:
    """``lb_table(n)[r][i] == lb_log_factor(r, i)`` for 1 <= r, i <= n.

    Row 0 and column 0 are unused but kept so the table can be indexed
    directly by row sum and 1-based position.
    """
    return tuple(
        tuple(
            0.0 if r == 0 or i == 0 else lb_log_factor(r, i)
            for i in range(n_max + 1)
        )
        for r in range(n_max + 1)
    )


def lb_log_bound(row_sums) -> float:
    """Liang-Bai log upper bound with rows sorted by ascending row sum.

    The bound is valid for any row ordering because the permanent is
    invariant under row permutations; ascending order empirically gives
    the tightest product.  The factors are added left to right in that
    order, as ``lb_log_bound_hist`` adds them.
    """
    rows = sorted(row_sums)
    if not rows:
        return 0.0
    if rows[0] < 0:
        raise ValueError("row sum must be nonnegative")
    if rows[0] == 0:
        return -math.inf
    total = 0.0
    if max(len(rows), rows[-1]) <= LB_TABLE_SIZE:
        table = lb_table(LB_TABLE_SIZE)
        for i, r in enumerate(rows, start=1):
            total += table[r][i]
    else:
        for i, r in enumerate(rows, start=1):
            total += lb_log_factor(r, i)
    return total


def lb_log_bound_hist(
    hist: Sequence[int], table: Sequence[Sequence[float]]
) -> float:
    """``lb_log_bound`` of the rows tallied in ``hist``, without sorting.

    ``hist[r]`` counts the rows of sum r (``len(hist) >= 2``); ``table``
    is ``lb_table(n)`` for an n at least the row count and the largest
    row sum.  Walking the buckets in ascending order visits the rows in
    sorted order, so the factors are added as ``lb_log_bound`` adds them
    and the result is the same float.
    """
    if hist[0]:
        return -math.inf
    total = 0.0
    # rows of sum 1 sort first, and their factors are exactly 0.0
    pos = hist[1] + 1
    for r in range(2, len(hist)):
        count = hist[r]
        if count:
            for factor in table[r][pos : pos + count]:
                total += factor
            pos += count
    return total

