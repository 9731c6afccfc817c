"""Precomputed log-space factor tables for permanent upper bounds.

Two classical upper bounds on the permanent of a 0-1 matrix are used:
the Bregman-Minc bound, a product of per-row factors (r!)^(1/r), and the
Liang-Bai bound, whose per-row factors depend on both the row sum and
the row's position in ascending row-sum order.  Both are carried as sums
of logarithms so that products over hundreds of rows cannot overflow;
each sum is a ``math.fsum``, so a bound depends on the multiset of its
row sums alone.
Bregman-Minc factors come from one shared list, ``bm_table``, grown to
the largest row sum asked for; Liang-Bai factors from a fixed table up
to ``LB_TABLE_SIZE`` rows, and from ``lb_log_factor`` above it.
On a square matrix with no row sum above its size Liang-Bai never comes
out below Bregman-Minc (certified up to ``LB_TABLE_SIZE`` rows by
``tests/test_factors.py``), so AllDifferent's density probes use
Bregman-Minc alone and take Liang-Bai only for the table's count.
"""

from __future__ import annotations

import math
from functools import lru_cache


#: entry r is log((r!)^(1/r)) = lgamma(r + 1) / r; entry 0 is unused but
#: kept so the table is indexed by row sum; grown on demand, never shrunk
_BM: list[float] = [0.0]


def bm_table(n: int) -> list[float]:
    """The shared Bregman-Minc factor table, grown to hold row sums up to
    ``n`` at least: ``bm_table(n)[r] == bm_log_factor(r)``."""
    if len(_BM) <= n:
        _BM.extend(math.lgamma(r + 1) / r for r in range(len(_BM), n + 1))
    return _BM


def bm_log_factor(r: int) -> float:
    """log of the Bregman-Minc per-row factor (r!)^(1/r)."""
    if r < 0:
        raise ValueError("row sum must be nonnegative")
    return bm_table(r)[r]


def lb_log_factor(r: int, i: int) -> float:
    """log of sqrt(q * (r - q + 1)) for row sum ``r`` at 1-based position
    ``i``, with Liang-Bai's q = min(ceil((r + 1) / 2), ceil(i / 2));
    ``lb_table`` holds it up to ``LB_TABLE_SIZE``, and above that
    ``lb_log_bound`` computes it once per row."""
    q = min(r // 2 + 1, (i + 1) // 2)
    return 0.5 * math.log(q * (r - q + 1))


def bm_log_bound(row_sums) -> float:
    """Bregman-Minc log upper bound for given row sums: 0.0 for no rows,
    ``-inf`` when some row is empty (no assignment exists)."""
    rows = list(row_sums)
    least = min(rows, default=1)
    if least < 0:
        raise ValueError("row sum must be nonnegative")
    if least == 0:
        return -math.inf
    return math.fsum(map(bm_table(max(rows, default=0)).__getitem__, rows))


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
    the tightest product.
    """
    rows = sorted(row_sums)
    if not rows:
        return 0.0
    if rows[0] < 0:
        raise ValueError("row sum must be nonnegative")
    if rows[0] == 0:
        return -math.inf
    if max(len(rows), rows[-1]) <= LB_TABLE_SIZE:
        table = lb_table(LB_TABLE_SIZE)
        return math.fsum([table[r][i] for i, r in enumerate(rows, start=1)])
    return math.fsum([lb_log_factor(r, i) for i, r in enumerate(rows, start=1)])
