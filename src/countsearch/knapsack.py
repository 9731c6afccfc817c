"""Linear (knapsack) constraint: l <= c.x <= u.

Two counting modes are provided.  The exact mode builds the reduced
layered graph over reachable partial sums, the regular constraint's
``LayeredGraph``, for domain-consistent filtering and exact path-count
densities.  The Gaussian mode never builds the graph: it treats the sum
of the other variables as approximately normal, caching the
constraint-wide mean and variance so each (variable, value) density
costs O(1).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .engine import DOMAIN, Constraint, DensityTable, Model, Variable
from .regular import LayeredGraph

EXACT = "exact"
GAUSSIAN = "gaussian"


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def interval_moments(values: Sequence[int]) -> tuple[float, float]:
    """Mean and variance of the discrete uniform on [min, max]."""
    lo, hi = min(values), max(values)
    mean = (lo + hi) / 2.0
    width = hi - lo + 1
    return mean, (width * width - 1) / 12.0


def exact_moments(values: Sequence[int]) -> tuple[float, float]:
    """Mean and variance of the uniform distribution on the actual values."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var


def build_sum_graph(
    coeffs: Sequence[int], domains: Sequence[set[int]], lower: int, upper: int
) -> LayeredGraph:
    """Forward-reachable, backward-completable graph over the partial sums
    b_0 = 0, b_i = sum_{j<=i} c_j x_j (Trick's DP)."""
    k = len(domains)
    forward: list[set[int]] = [set() for _ in range(k + 1)]
    forward[0].add(0)
    for i in range(k):
        c = coeffs[i]
        nxt = forward[i + 1]
        for b in forward[i]:
            for d in domains[i]:
                nxt.add(b + c * d)
    layers: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(k + 1)]
    layers[k] = {b: [] for b in forward[k] if lower <= b <= upper}
    for i in range(k - 1, -1, -1):
        c = coeffs[i]
        keep = layers[i + 1]
        for b in forward[i]:
            arcs = []
            for d in domains[i]:
                b2 = b + c * d
                if b2 in keep:
                    arcs.append((d, b2))
            if arcs:
                layers[i][b] = arcs
    return LayeredGraph(layers, 0)


class Knapsack(Constraint):
    """lower <= sum_i coeffs[i] * x_i <= upper."""

    supports_counting = True

    def __init__(
        self,
        scope: Sequence[Variable],
        coeffs: Sequence[int],
        lower: int,
        upper: int,
        consistency: str = DOMAIN,
        mode: str = EXACT,
        use_exact_moments: bool = False,
    ):
        super().__init__(scope, consistency)
        if len(coeffs) != len(scope):
            raise ValueError("one coefficient per scope variable")
        self.coeffs = tuple(int(c) for c in coeffs)
        self.lower = int(lower)
        self.upper = int(upper)
        if mode not in (EXACT, GAUSSIAN):
            raise ValueError(f"unknown counting mode {mode!r}")
        self.mode = mode
        self.use_exact_moments = use_exact_moments
        self._gauss_cache: Optional[tuple[float, float]] = None
        self._gauss_stamp: Optional[tuple[int, ...]] = None

    def name(self) -> str:
        return "knapsack"

    def check(self, values: Sequence[int]) -> bool:
        total = sum(c * v for c, v in zip(self.coeffs, values))
        return self.lower <= total <= self.upper

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def propagate(self, model: Model) -> bool:
        domains = self._domains(model)
        if self.consistency == DOMAIN:
            graph = build_sum_graph(self.coeffs, domains, self.lower, self.upper)
            return graph.filter(self, model, domains)
        return self._bounds_filter(model, domains)

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
    def _moments(self, dom: set[int]) -> tuple[float, float]:
        if self.use_exact_moments:
            return exact_moments(sorted(dom))
        return interval_moments(dom)

    def gaussian_cache(self, domains: Sequence[set[int]]) -> tuple[float, float]:
        """Constraint-wide centered mean M and variance V.

        M = (l+u)/2 - sum_j c_j mu_j and V = ((u-l+1)^2 - 1)/12 +
        sum_j c_j^2 sigma_j^2; both depend only on the current domains.
        """
        stamp = tuple(len(d) for d in domains) + tuple(
            min(d) + max(d) for d in domains
        )
        if self._gauss_cache is not None and self._gauss_stamp == stamp:
            return self._gauss_cache
        m_total = (self.lower + self.upper) / 2.0
        width = self.upper - self.lower + 1
        v_total = (width * width - 1) / 12.0
        for c, dom in zip(self.coeffs, domains):
            mu, var = self._moments(dom)
            m_total -= c * mu
            v_total += c * c * var
        self._gauss_cache = (m_total, v_total)
        self._gauss_stamp = stamp
        return self._gauss_cache

    def gaussian_masses(
        self, domains: Sequence[set[int]], i: int
    ) -> dict[int, float]:
        """Normalized Gaussian density estimate for every value of x_i."""
        dom = sorted(domains[i])
        if len(dom) == 1:
            return {dom[0]: 1.0}
        c = self.coeffs[i]
        if c == 0:
            # x_i does not move the sum: every value is equally likely
            return {d: 1.0 / len(dom) for d in dom}
        big_m, big_v = self.gaussian_cache(domains)
        mu, var = self._moments(domains[i])
        m = (big_m + c * mu) / c
        v = (big_v - c * c * var) / (c * c)
        if v <= 0:
            return self._residual_masses(domains, i)
        s = math.sqrt(v)
        raw = {}
        for d in dom:
            raw[d] = _phi((d + 0.5 - m) / s) - _phi((d - 0.5 - m) / s)
        total = sum(raw.values())
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

    def gaussian_best(
        self, domains: Sequence[set[int]], i: int
    ) -> tuple[int, float]:
        """Highest-density (value, density) pair for x_i in Gaussian mode."""
        masses = self.gaussian_masses(domains, i)
        best = max(masses.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0], best[1]

    def _gaussian_table(self, domains: Sequence[set[int]]) -> DensityTable:
        densities: dict[tuple[int, int], float] = {}
        for i, var in enumerate(self.scope):
            for d, w in self.gaussian_masses(domains, i).items():
                densities[(var.index, d)] = w
        # no count estimate is defined for the Gaussian approximation
        return DensityTable(self, -math.inf, densities)

    def count_densities(self, model: Model) -> DensityTable:
        domains = self._domains(model)
        if self.mode == GAUSSIAN:
            return self._gaussian_table(domains)
        graph = build_sum_graph(self.coeffs, domains, self.lower, self.upper)
        return graph.density_table(self, domains)
