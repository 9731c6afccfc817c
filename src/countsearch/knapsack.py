"""Linear (knapsack) constraint: l <= c.x <= u.

Two counting modes are provided.  The exact mode builds the reduced
layered graph over reachable partial sums with the regular constraint's
builder, ``layered_graph``, for domain-consistent filtering and exact
path-count densities; it builds the graph once per model and then
deletes arcs as values leave the domains (Trick, CPAIOR 2003).  The
Gaussian mode counts without the graph: it treats the sum of the other
variables as approximately normal, computing the constraint-wide mean
and variance once per table so each (variable, value) density costs
O(1); the moments and each variable's total are ``math.fsum``s (see
``engine``).  Filtering follows the mode: an exact knapsack filters on
its graph at ``domain`` consistency and by bounds at ``fc``; a Gaussian
knapsack filters by bounds at both levels and never builds the graph.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import DOMAIN, DensityTable, Model, Variable
from .regular import GraphConstraint, LayeredGraph, layered_graph

EXACT = "exact"
GAUSSIAN = "gaussian"
MODES = (EXACT, GAUSSIAN)


def check_mode(mode: str) -> str:
    """``mode`` if it is one of ``MODES``; else ValueError."""
    if mode not in MODES:
        raise ValueError(f"unknown counting mode {mode!r}")
    return mode


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def interval_moments(values: Sequence[int]) -> tuple[float, float]:
    """Mean and variance of the discrete uniform on [min, max]."""
    lo, hi = min(values), max(values)
    mean = (lo + hi) / 2.0
    width = hi - lo + 1
    return mean, (width * width - 1) / 12.0


def build_sum_graph(
    coeffs: Sequence[int], domains: Sequence[set[int]], lower: int, upper: int
) -> LayeredGraph:
    """The pruned layered graph over the partial sums b_0 = 0,
    b_i = sum_{j<=i} c_j x_j (Trick's DP).  An arc is made only into a
    sum b_{i+1} from which the remaining terms can still reach
    [lower, upper], within lo[i + 1] <= b_{i+1} <= hi[i + 1]."""
    lo, hi = [lower], [upper]
    for c, dom in zip(reversed(coeffs), reversed(domains)):
        terms = [c * d for d in dom]
        lo.append(lo[-1] - max(terms, default=0))
        hi.append(hi[-1] - min(terms, default=0))
    lo.reverse()
    hi.reverse()

    def successors(i: int, b: int, dom: set[int]) -> list[tuple[int, int]]:
        c, low, high = coeffs[i], lo[i + 1], hi[i + 1]
        return [(d, s) for d in dom if low <= (s := b + c * d) <= high]

    return layered_graph(0, successors, lambda b: lower <= b <= upper, domains)


class Knapsack(GraphConstraint):
    """lower <= sum_i coeffs[i] * x_i <= upper."""

    def __init__(
        self,
        scope: Sequence[Variable],
        coeffs: Sequence[int],
        lower: int,
        upper: int,
        consistency: str = DOMAIN,
        mode: str = EXACT,
    ):
        super().__init__(scope, consistency)
        if len(coeffs) != len(scope):
            raise ValueError("one coefficient per scope variable")
        self.coeffs = tuple(int(c) for c in coeffs)
        self.lower = int(lower)
        self.upper = int(upper)
        self.mode = check_mode(mode)

    @property
    def idempotent(self) -> bool:
        # bounds filtering or a repeated variable may need a second call
        return self.mode == EXACT and self.consistency == DOMAIN and not self.repeats()

    def name(self) -> str:
        return "knapsack"

    def check(self, values: Sequence[int]) -> bool:
        total = sum(c * v for c, v in zip(self.coeffs, values))
        return self.lower <= total <= self.upper

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def build_graph(self, domains: Sequence[set[int]]) -> LayeredGraph:
        return build_sum_graph(self.coeffs, domains, self.lower, self.upper)

    def propagate(self, model: Model) -> bool:
        if self.mode == EXACT and self.consistency == DOMAIN:
            return self.graph_filter(model)
        return self._bounds_filter(model, self._domains(model))

    def _bounds_filter(self, model: Model, domains: Sequence[set[int]]) -> bool:
        terms_min = []
        terms_max = []
        for c, dom in zip(self.coeffs, domains):
            lo, hi = c * min(dom), c * max(dom)
            if lo > hi:
                lo, hi = hi, lo
            terms_min.append(lo)
            terms_max.append(hi)
        total_min = sum(terms_min)
        total_max = sum(terms_max)
        if total_min > self.upper or total_max < self.lower:
            return False
        for i, var in enumerate(self.scope):
            c = self.coeffs[i]
            rest_min = total_min - terms_min[i]
            rest_max = total_max - terms_max[i]
            for d in list(domains[i]):
                t = c * d
                if t + rest_min > self.upper or t + rest_max < self.lower:
                    if not model.remove_value(var, d, self):
                        return False
        return True

    # ------------------------------------------------------------------
    # Gaussian approximation
    # ------------------------------------------------------------------
    def gaussian_moments(self, domains: Sequence[set[int]]) -> tuple[float, float]:
        """Constraint-wide centered mean M and variance V.

        M = (l+u)/2 - sum_j c_j mu_j and V = ((u-l+1)^2 - 1)/12 +
        sum_j c_j^2 sigma_j^2; both depend only on the current domains.
        """
        width = self.upper - self.lower + 1
        m_terms = [(self.lower + self.upper) / 2.0]
        v_terms = [(width * width - 1) / 12.0]
        for c, dom in zip(self.coeffs, domains):
            mu, var = interval_moments(dom)
            m_terms.append(-c * mu)
            v_terms.append(c * c * var)
        return math.fsum(m_terms), math.fsum(v_terms)

    def gaussian_masses(
        self, domains: Sequence[set[int]], i: int, moments: tuple[float, float]
    ) -> dict[int, float]:
        """Normalized Gaussian density estimate for every value of x_i,
        given the constraint's ``gaussian_moments(domains)``."""
        dom = sorted(domains[i])
        if len(dom) == 1:
            return {dom[0]: 1.0}
        c = self.coeffs[i]
        if c == 0:
            # x_i does not move the sum: every value is equally likely
            return {d: 1.0 / len(dom) for d in dom}
        big_m, big_v = moments
        mu, var = interval_moments(domains[i])
        m = (big_m + c * mu) / c
        v = (big_v - c * c * var) / (c * c)
        if v <= 0:
            return self._residual_masses(domains, i)
        s = math.sqrt(v)
        raw = {}
        for d in dom:
            raw[d] = _phi((d + 0.5 - m) / s) - _phi((d - 0.5 - m) / s)
        total = math.fsum(raw.values())
        if total <= 0.0:
            # numeric underflow far in the tail: nearest value to m wins
            nearest = min(dom, key=lambda d: (abs(d - m), d))
            return {d: (1.0 if d == nearest else 0.0) for d in dom}
        return {d: w / total for d, w in raw.items()}

    def _residual_masses(
        self, domains: Sequence[set[int]], i: int
    ) -> dict[int, float]:
        """Exact fallback when every other variable is bound."""
        rest = sum(
            self.coeffs[j] * next(iter(domains[j]))
            for j in range(len(self.scope))
            if j != i
        )
        c = self.coeffs[i]
        feasible = [
            d for d in sorted(domains[i]) if self.lower <= rest + c * d <= self.upper
        ]
        if not feasible:
            return {d: 0.0 for d in domains[i]}
        w = 1.0 / len(feasible)
        return {
            d: (w if d in feasible else 0.0) for d in sorted(domains[i])
        }

    def _gaussian_table(self, domains: Sequence[set[int]]) -> DensityTable:
        densities: dict[tuple[int, int], float] = {}
        moments = self.gaussian_moments(domains)
        for i, var in enumerate(self.scope):
            for d, w in self.gaussian_masses(domains, i, moments).items():
                densities[(var.index, d)] = w
        # no count estimate is defined for the Gaussian approximation
        return DensityTable(self, -math.inf, densities)

    def count_densities(self, model: Model) -> DensityTable:
        if self.mode == GAUSSIAN:
            return self._gaussian_table(self._domains(model))
        return self.graph_densities(model)
