"""Permanent upper-bound factor tables."""

import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countsearch.factors import (
    LB_TABLE_SIZE,
    bm_log_bound,
    bm_log_factor,
    bm_table,
    lb_log_bound,
    lb_log_factor,
)

from brute_force import exact_permanent


def test_bm_factor_small_values():
    assert bm_log_factor(1) == pytest.approx(0.0)
    assert bm_log_factor(2) == pytest.approx(math.log(2) / 2)
    assert bm_log_factor(3) == pytest.approx(math.log(6) / 3)


def test_bm_factor_rejects_negative():
    with pytest.raises(ValueError):
        bm_log_factor(-1)


def test_lb_bound_rejects_negative():
    with pytest.raises(ValueError):
        lb_log_bound([2, -1])


def test_lb_q_definition():
    # q = min(ceil((r+1)/2), ceil(i/2))
    for r in range(1, 10):
        for i in range(1, 10):
            q = min(-(-(r + 1) // 2), -(-i // 2))
            assert lb_log_factor(r, i) == 0.5 * math.log(q * (r - q + 1))


def test_bm_table_is_one_list_grown_to_every_row_sum_asked_for():
    tables = []
    for n in (1, 7, 512, 513, 1000, 2048):
        table = bm_table(n)
        assert all(table[r] == math.lgamma(r + 1) / r for r in range(1, n + 1))
        tables.append(table)
    assert all(table is tables[0] for table in tables)


def test_zero_row_is_minus_inf():
    assert bm_log_bound([2, 0, 1]) == -math.inf
    assert lb_log_bound([0]) == -math.inf


def test_all_ones_rows():
    # a permutation matrix has exactly one extension
    assert bm_log_bound([1, 1, 1]) == pytest.approx(0.0)
    assert lb_log_bound([1, 1, 1]) == pytest.approx(0.0)


def test_lb_exact_on_3x3_all_ones():
    # rows (3,3,3): product q(r-q+1) = 3*4*3 = 36, bound sqrt(36) = 6 = 3!
    assert math.exp(lb_log_bound([3, 3, 3])) == pytest.approx(6.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_bounds_dominate_exact_permanent(matrix):
    perm = exact_permanent(matrix)
    rows = [sum(r) for r in matrix]
    bound = math.exp(min(bm_log_bound(rows), lb_log_bound(rows))) if all(rows) else 0.0
    if perm == 0:
        return
    assert bound + 1e-9 >= perm


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
def test_min_bound_never_above_components(rows):
    m = min(bm_log_bound(rows), lb_log_bound(rows))
    assert m <= bm_log_bound(rows) + 1e-12
    assert m <= lb_log_bound(rows) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 80), max_size=12))
def test_lb_bound_equals_factor_loop(rows):
    # row sums may exceed the row count, as in GCC's value graphs, and
    # the shared table's size; the factors' fsum, to the last bit
    if 0 in rows:
        expected = -math.inf
    else:
        expected = math.fsum(
            lb_log_factor(r, i) for i, r in enumerate(sorted(rows), start=1)
        )
    assert lb_log_bound(rows) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1024), max_size=12))
@example([511, 512, 513, 1])
@example([3, 519, 0, 5])
def test_bm_bound_equals_factor_loop(rows):
    # row sums into the hundreds: the factors' fsum, to the last bit, in
    # any row order
    expected = -math.inf if 0 in rows else math.fsum(map(bm_log_factor, rows))
    assert bm_log_bound(rows) == bm_log_bound(rows[::-1]) == expected


def test_bm_bound_rejects_negative():
    # a table lookup at -1 would read the largest row sum's factor
    with pytest.raises(ValueError):
        bm_log_bound([2, -1])
    with pytest.raises(ValueError):
        bm_log_bound([0, -1])  # after an empty row too


def _least_lb_minus_bm(size):
    """Least ``lb_log_bound(rows) - bm_log_bound(rows)`` over every row-sum
    vector of a size x size 0-1 matrix with no empty row.

    ``lb_log_bound`` reads the rows in ascending order, so a dynamic
    program over (position, row sum) covers every nondecreasing vector:
    after position i, ``least[r]`` is the least sum of per-row gaps over
    the first i sorted rows, ending at a row sum of at most r.
    """
    least = [0.0] * (size + 1)
    for i in range(1, size + 1):
        running = math.inf
        for r in range(1, size + 1):
            gap = lb_log_factor(r, i) - bm_log_factor(r)
            running = min(running, least[r] + gap)
            least[r] = running
    return least[size]


def test_least_gap_program_matches_enumeration():
    for size in range(1, 7):
        gaps = [
            lb_log_bound(rows) - bm_log_bound(rows)
            for rows in combinations_with_replacement(range(1, size + 1), size)
        ]
        assert _least_lb_minus_bm(size) == pytest.approx(min(gaps), abs=1e-12)


def test_liang_bai_never_below_bregman_minc_on_square_rows():
    """AllDifferent's padded matrices (and GCC's lower and residual
    graphs) are square with no row sum above their size; there Liang-Bai
    is never tighter than Bregman-Minc, so density probes may skip it.
    Exact ties, such as all rows equal, differ only by float rounding."""
    for size in range(1, LB_TABLE_SIZE + 1):
        assert _least_lb_minus_bm(size) >= -1e-9, size
