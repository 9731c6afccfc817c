"""Permanent upper-bound factor tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countsearch.factors import (
    LB_TABLE_SIZE,
    bm_log_bound,
    bm_log_factor,
    lb_log_bound,
    lb_log_bound_hist,
    lb_log_factor,
    lb_table,
    lb_q,
    min_log_bound,
)
from countsearch.oracle import exact_permanent


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
            assert lb_q(r, i) == min(-(-(r + 1) // 2), -(-i // 2))


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
    bound = math.exp(min_log_bound(rows)) if all(rows) else 0.0
    if perm == 0:
        return
    assert bound + 1e-9 >= perm


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
def test_min_bound_never_above_components(rows):
    m = min_log_bound(rows)
    assert m <= bm_log_bound(rows) + 1e-12
    assert m <= lb_log_bound(rows) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 80), max_size=12))
def test_lb_bound_equals_factor_loop(rows):
    # row sums may exceed the row count, as in GCC's value graphs, and
    # the shared table's size
    expected = 0.0
    for i, r in enumerate(sorted(rows), start=1):
        if r == 0:
            expected = -math.inf
            break
        expected += lb_log_factor(r, i)
    assert lb_log_bound(rows) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, LB_TABLE_SIZE), max_size=LB_TABLE_SIZE))
def test_lb_bound_from_histogram_equals_sorted_bound(rows):
    hist = [0] * (max(rows, default=1) + 1)
    for r in rows:
        hist[r] += 1
    assert lb_log_bound_hist(hist, lb_table(LB_TABLE_SIZE)) == lb_log_bound(rows)
