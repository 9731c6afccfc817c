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
    the solver-side tables.  A variable the scope holds more than once is
    enumerated once, over the values all its positions allow, and every
    position takes its value.
    """
    scope = constraint.scope
    # the values every position of a variable allows, by its index
    allowed: dict[int, set[int]] = {}
    for var, dom in zip(scope, domains):
        allowed[var.index] = allowed.get(var.index, set(dom)) & set(dom)
    space = 1
    for values in allowed.values():
        space *= len(values)
        if space > cap:
            raise OracleCapExceeded(f"{space} candidate tuples exceed cap {cap}")
    place = {index: k for k, index in enumerate(allowed)}
    where = [place[var.index] for var in scope]
    count = 0
    hits: dict[tuple[int, int], int] = {}
    for tup in itertools.product(*(sorted(values) for values in allowed.values())):
        if constraint.check([tup[k] for k in where]):
            count += 1
            for key in zip(allowed, tup):
                hits[key] = hits.get(key, 0) + 1
    densities = {
        key: Fraction(c, count) for key, c in hits.items()
    } if count else {}
    return count, densities
