"""Brute-force ground truth: exact counts and densities of one constraint.

Densities are exact rationals, and enumeration refuses instances above
the tuple cap instead of truncating.  ``densities --exact`` prints them
beside the solver's tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .engine import Constraint

TUPLE_CAP = 10**6


class OracleCapExceeded(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


def exact_count_densities(
    constraint: Constraint,
    domains: Sequence[set[int]],
    cap: int = TUPLE_CAP,
) -> tuple[int, dict[tuple[int, int], Fraction]]:
    """Exhaustive count and exact rational densities for one constraint.

    Keys of the density table are ``(variable_index, value)`` matching
    the solver-side tables.
    """
    space = 1
    for dom in domains:
        space *= len(dom)
        if space > cap:
            raise OracleCapExceeded(f"{space} candidate tuples exceed cap {cap}")
    scope = constraint.scope
    count = 0
    hits: dict[tuple[int, int], int] = {}
    ordered = [sorted(d) for d in domains]
    for tup in itertools.product(*ordered):
        if constraint.check(tup):
            count += 1
            for var, d in zip(scope, tup):
                key = (var.index, d)
                hits[key] = hits.get(key, 0) + 1
    densities = {
        key: Fraction(c, count) for key, c in hits.items()
    } if count else {}
    return count, densities
