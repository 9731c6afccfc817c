"""Global cardinality constraint: flow-based filtering and counting.

Counting decomposes the constraint into a lower-bound graph (duplicated
value vertices for required occurrences) and a residual upper-bound
graph, bounds each side with the permanent upper bounds, and rescales by
the factorials of the duplicated and fake vertices.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .alldiff import _log_norm, _tarjan_scc as _scc
from .engine import DOMAIN, Constraint, DensityTable, Model, Variable
from .factors import bm_log_factor, lb_log_bound


# ----------------------------------------------------------------------
# minimal max-flow (Dinic) for the feasible-flow computation
# ----------------------------------------------------------------------
class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])
        return (u, len(self.graph[u]) - 1)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.graph[u]:
                    if e[1] > 0 and level[e[0]] == -1:
                        level[e[0]] = level[u] + 1
                        queue.append(e[0])
            if level[t] == -1:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.graph[u]):
                    e = self.graph[u][it[u]]
                    v = e[0]
                    if e[1] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, e[1]))
                        if got:
                            e[1] -= got
                            self.graph[v][e[2]][1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


class ResidualBounds:
    """Residual cardinality state after accounting for bound variables."""

    def __init__(
        self,
        unbound: list[int],
        values: list[int],
        low: dict[int, int],
        high: dict[int, int],
        feasible: bool,
    ):
        self.unbound = unbound  # indices into the scope
        self.values = values
        self.low = low  # residual l'
        self.high = high  # residual u'
        self.feasible = feasible

    @property
    def remaining(self) -> int:
        """Variables left over once all residual lower bounds are met."""
        return len(self.unbound) - sum(self.low.values())


class GlobalCardinality(Constraint):
    """Each value d must occur between lower[d] and upper[d] times."""

    supports_counting = True

    def __init__(
        self,
        scope: Sequence[Variable],
        lower: dict[int, int],
        upper: dict[int, int],
        consistency: str = DOMAIN,
    ):
        super().__init__(scope, consistency)
        self.lower = dict(lower)
        self.upper = dict(upper)

    def name(self) -> str:
        return "gcc"

    def low(self, d: int) -> int:
        return self.lower.get(d, 0)

    def high(self, d: int) -> int:
        return self.upper.get(d, len(self.scope))

    def check(self, values: Sequence[int]) -> bool:
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        concerned = set(counts) | {d for d, l in self.lower.items() if l > 0}
        return all(
            self.low(d) <= counts.get(d, 0) <= self.high(d) for d in concerned
        )

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def propagate(self, model: Model) -> bool:
        if not self._counting_checks(model):
            return False
        if self.consistency == DOMAIN:
            return self._flow_filter(model)
        return True

    def _counting_checks(self, model: Model) -> bool:
        # forward-checking level: saturate upper bounds from bound vars
        changed = True
        while changed:
            changed = False
            counts: dict[int, int] = {}
            for var in self.scope:
                if model.is_bound(var):
                    v = model.value_of(var)
                    counts[v] = counts.get(v, 0) + 1
            for d, c in counts.items():
                if c > self.high(d):
                    return False
                if c == self.high(d):
                    for var in self.scope:
                        if model.is_bound(var):
                            continue
                        if model.contains(var, d):
                            if not model.remove_value(var, d, self):
                                return False
                            if model.is_bound(var):
                                changed = True
        # unreachable lower bounds fail early
        for d, l in self.lower.items():
            if l <= 0:
                continue
            possible = sum(1 for var in self.scope if model.contains(var, d))
            if possible < l:
                return False
        return True

    def _flow_filter(self, model: Model) -> bool:
        scope = self.scope
        n = len(scope)
        doms = [model._domains[v.index] for v in scope]
        values = sorted(set().union(*doms))
        vid = {d: i for i, d in enumerate(values)}
        # nodes: S, values, variables, T, plus S*/T* for lower bounds
        S = 0
        val0 = 1
        var0 = 1 + len(values)
        T = var0 + n
        Sx = T + 1
        Tx = T + 2
        net = _Dinic(T + 3)
        excess = [0] * (T + 3)
        arc_refs: dict[tuple[int, int], tuple[int, int]] = {}
        for d in values:
            l, u = self.low(d), self.high(d)
            if l > u:
                return False
            # S -> value with bounds [l, u]
            net.add_edge(S, val0 + vid[d], u - l)
            excess[val0 + vid[d]] += l
            excess[S] -= l
        for i, dom in enumerate(doms):
            for d in dom:
                arc_refs[(i, d)] = net.add_edge(val0 + vid[d], var0 + i, 1)
            # var -> T with bounds [1, 1]
            excess[T] += 1
            excess[var0 + i] -= 1
        net.add_edge(T, S, 1 << 60)
        need = 0
        for node in range(T + 1):
            if excess[node] > 0:
                net.add_edge(Sx, node, excess[node])
                need += excess[node]
            elif excess[node] < 0:
                net.add_edge(node, Tx, -excess[node])
        if net.max_flow(Sx, Tx) < need:
            return False

        # residual SCCs decide which unused value-variable arcs survive
        n_nodes = T + 1
        out: list[list[int]] = [[] for _ in range(n_nodes)]
        for u in range(n_nodes):
            for e in net.graph[u]:
                if e[0] <= T and e[1] > 0:
                    out[u].append(e[0])
        comp = _scc(n_nodes, out)
        for i, var in enumerate(scope):
            for d in list(doms[i]):
                u, k = arc_refs[(i, d)]
                edge = net.graph[u][k]
                has_flow = edge[1] == 0  # unit arc fully used
                if has_flow:
                    continue
                if comp[val0 + vid[d]] != comp[var0 + i]:
                    if not model.remove_value(var, d, self):
                        return False
        return True

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def residual_state(self, domains: Sequence[set[int]]) -> ResidualBounds:
        values = sorted(set().union(*domains) | {d for d, l in self.lower.items() if l > 0})
        counts: dict[int, int] = {}
        unbound: list[int] = []
        for i, dom in enumerate(domains):
            if len(dom) == 1:
                v = next(iter(dom))
                counts[v] = counts.get(v, 0) + 1
            else:
                unbound.append(i)
        low: dict[int, int] = {}
        high: dict[int, int] = {}
        feasible = True
        for d in values:
            c = counts.get(d, 0)
            if c > self.high(d):
                feasible = False
            low[d] = max(0, self.low(d) - c)
            high[d] = self.high(d) - c
            if high[d] < low[d]:
                feasible = False
            high[d] = max(0, high[d])
        if sum(low.values()) > len(unbound):
            feasible = False
        return ResidualBounds(unbound, values, low, high, feasible)

    def bound_parts(
        self, domains: Sequence[set[int]], state: Optional[ResidualBounds] = None
    ) -> tuple[float, float, float]:
        """(log lower-graph bound, log residual bound, log denominator).

        The lower-graph term already includes its fake-column scaling;
        the residual term its fake-row scaling.  The denominator is the
        product of l'_d! over values: each partial assignment meeting
        the lower bounds corresponds to exactly that many maximum
        matchings of the lower graph.  The residual copies are *not*
        divided out: an extension need not use every copy of a value,
        so that division would break the upper-bound guarantee (the
        fake-row factorial inside the residual term is the exact
        multiplicity that is always present).
        """
        if state is None:
            state = self.residual_state(domains)
        if not state.feasible:
            return -math.inf, -math.inf, 0.0
        low, high = state.low, state.high
        unbound = state.unbound
        K = state.remaining
        if K < 0:
            return -math.inf, -math.inf, 0.0

        denom = sum(math.lgamma(low[d] + 1) for d in state.values)

        # lower graph: one column per required occurrence + K fake columns
        total_low = sum(low.values())
        if total_low == 0:
            lower_log = 0.0
        else:
            rows = []
            for i in unbound:
                r = sum(low[d] for d in domains[i] if d in low) + K
                rows.append(r)
            if any(r == 0 for r in rows):
                return -math.inf, -math.inf, denom
            correction = math.lgamma(K + 1)
            bm = sum(bm_log_factor(r) for r in rows) - correction
            lb = lb_log_bound(rows) - correction
            lower_log = min(bm, lb)

        # residual graph: u'-l' copies per value; K best variables kept
        caps = {d: high[d] - low[d] for d in state.values}
        n_cols = sum(caps.values())
        if K == 0:
            upper_log = 0.0
        elif n_cols < K:
            return lower_log, -math.inf, denom
        else:
            rho = []
            for i in unbound:
                rho.append((sum(caps.get(d, 0) for d in domains[i]), i))
            # K variables with the largest per-row factor, ties by index
            rho.sort(key=lambda t: (-t[0], t[1]))
            chosen = [r for r, _ in rho[:K]]
            if any(r == 0 for r in chosen):
                return lower_log, -math.inf, denom
            fakes = n_cols - K
            rows = chosen + [n_cols] * fakes
            correction = math.lgamma(fakes + 1)
            bm = sum(bm_log_factor(r) for r in rows) - correction
            lb = lb_log_bound(rows) - correction
            upper_log = min(bm, lb)
        return lower_log, upper_log, denom

    def log_count(self, domains: Sequence[set[int]]) -> float:
        lower_log, upper_log, denom = self.bound_parts(domains)
        if lower_log == -math.inf or upper_log == -math.inf:
            return -math.inf
        return lower_log + upper_log - denom

    def _probe_domains(
        self, domains: Sequence[set[int]], i: int, d: int
    ) -> list[set[int]]:
        """Forward-checking probe x_i = d on this constraint alone."""
        probed = [set(dom) for dom in domains]
        probed[i] = {d}
        bound_count = sum(
            1 for dom in probed if len(dom) == 1 and next(iter(dom)) == d
        )
        if bound_count >= self.high(d):
            for k, dom in enumerate(probed):
                if len(dom) > 1:
                    dom.discard(d)
        return probed

    def count_densities(self, model: Model) -> DensityTable:
        domains = self._domains(model)
        log_count = self.log_count(domains)
        densities: dict[tuple[int, int], float] = {}
        for i, var in enumerate(self.scope):
            dom = domains[i]
            if len(dom) == 1:
                densities[(var.index, next(iter(dom)))] = 1.0
                continue
            raw: dict[int, float] = {}
            for d in sorted(dom):
                raw[d] = self.log_count(self._probe_domains(domains, i, d))
            for d, sigma in _log_norm(raw).items():
                densities[(var.index, d)] = sigma
        return DensityTable(self, log_count, densities)
