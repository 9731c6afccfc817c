"""Alldifferent and symmetric pairing constraints: filtering and counting.

Counting uses permanent upper bounds (Bregman-Minc and Liang-Bai) on the
0-1 variable/value matrix; densities come from forward-checking local
probes per Algorithm 1's incremental factor updates.  The pairing
variant bounds the number of matchings of the contracted value graph.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Optional, Sequence

from .engine import (
    DOMAIN,
    Constraint,
    DensityTable,
    Model,
    Variable,
)
from .factors import (
    BM_TABLE_SIZE,
    LB_TABLE_SIZE,
    bm_table,
    lb_log_bound,
    lb_log_bound_hist,
    lb_table,
)


def _log_norm(raw: dict[int, float]) -> dict[int, float]:
    """Normalize log-space scores to densities summing to 1."""
    finite = [v for v in raw.values() if v > -math.inf]
    if not finite:
        return {d: 0.0 for d in raw}
    top = max(finite)
    total = sum(math.exp(v - top) for v in finite)
    return {
        d: (math.exp(v - top) / total if v > -math.inf else 0.0)
        for d, v in raw.items()
    }


# ----------------------------------------------------------------------
# permanent-bound arithmetic on a list of domains
# ----------------------------------------------------------------------
def padded_rows(domains: Sequence[set[int]]) -> tuple[list[int], int, int]:
    """Row sums, padding row count and union size for the 0-1 matrix.

    When the union of domains has p more values than there are
    variables, p all-ones rows of sum |union| are appended; the bound is
    later divided by p!.
    """
    union: set[int] = set()
    for d in domains:
        union |= d
    n = len(domains)
    u = len(union)
    p = max(0, u - n)
    rows = [len(d) for d in domains] + [u] * p
    return rows, p, u


def alldiff_density_table(
    constraint: Constraint, domains: Sequence[set[int]]
) -> DensityTable:
    """Bound-based densities via FC probes, normalized per variable.

    A probe (i, d) binds variable i to d and removes d from the other
    domains holding it.  Neither bound is rebuilt per probe; both start
    from the root rows.  The Bregman-Minc side adds the per-row factor
    changes of the rows the probe touches.  The Liang-Bai side copies a
    histogram of the root row sums, moves the touched rows between its
    buckets and reads the bound off it with ``lb_log_bound_hist``, which
    gives the same float as ``lb_log_bound`` on the probe's rows.
    """
    rows, p, u = padded_rows(domains)
    if any(r == 0 for r in rows):
        return DensityTable(constraint, -math.inf, {})
    pad_log = math.lgamma(p + 1)
    bm = bm_table(max(u, BM_TABLE_SIZE))
    lb = lb_table(max(len(rows), LB_TABLE_SIZE))
    bm_root = sum(bm[r] for r in rows) - pad_log
    log_count = min(bm_root, lb_log_bound(rows) - pad_log)
    root_hist = [0] * (max(rows, default=1) + 1)
    for r in rows:
        root_hist[r] += 1

    densities: dict[tuple[int, int], float] = {}
    scope = constraint.scope

    # index values to the rows containing them, for probe deltas
    holders: dict[int, list[int]] = {}
    for k, dom in enumerate(domains):
        for d in dom:
            holders.setdefault(d, []).append(k)

    for i, dom in enumerate(domains):
        size_i = rows[i]
        if size_i == 1:
            densities[(scope[i].index, next(iter(dom)))] = 1.0
            continue
        var_ub = bm_root + bm[1] - bm[size_i]
        raw: dict[int, float] = {}
        for d in sorted(dom):
            hist = root_hist.copy()
            hist[size_i] -= 1
            hist[1] += 1
            wipe = False
            delta = 0.0
            for k in holders[d]:
                if k == i:
                    continue
                size = rows[k]
                if size == 1:
                    wipe = True
                    break
                delta += bm[size - 1] - bm[size]
                hist[size] -= 1
                hist[size - 1] += 1
            if wipe:
                raw[d] = -math.inf
                continue
            raw[d] = min(var_ub + delta, lb_log_bound_hist(hist, lb) - pad_log)
        for d, sigma in _log_norm(raw).items():
            densities[(scope[i].index, d)] = sigma
    return DensityTable(constraint, log_count, densities)


# ----------------------------------------------------------------------
# matching machinery for domain-consistent filtering
# ----------------------------------------------------------------------
def _kuhn_matching(adj: list[list[int]], n_vals: int) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; returns (match_of_var, match_of_val)."""
    match_var = [-1] * len(adj)
    match_val = [-1] * n_vals

    def try_augment(x: int, seen: list[bool]) -> bool:
        for v in adj[x]:
            if not seen[v]:
                seen[v] = True
                if match_val[v] == -1 or try_augment(match_val[v], seen):
                    match_var[x] = v
                    match_val[v] = x
                    return True
        return False

    for x in range(len(adj)):
        # greedy seed speeds up the augmenting passes
        for v in adj[x]:
            if match_val[v] == -1:
                match_var[x] = v
                match_val[v] = x
                break
    for x in range(len(adj)):
        if match_var[x] == -1:
            try_augment(x, [False] * n_vals)
    return match_var, match_val


def _tarjan_scc(n_nodes: int, out_arcs: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component id per node."""
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            succ = out_arcs[node]
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (node, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == node:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


class AllDifferent(Constraint):
    """Pairwise-distinct values over the scope."""

    supports_counting = True
    # forward checking loops to its fixpoint, and Regin filtering after it
    # leaves every remaining value in some maximum matching
    idempotent = True

    def __init__(self, scope: Sequence[Variable], consistency: str = DOMAIN):
        super().__init__(scope, consistency)

    def name(self) -> str:
        return "alldifferent"

    def check(self, values: Sequence[int]) -> bool:
        return len(set(values)) == len(values)

    def propagate(self, model: Model) -> bool:
        counts = self._forward_check(model)
        if counts is None:
            return False
        if self.consistency == DOMAIN:
            return self._regin_filter(model, counts)
        return True

    def _forward_check(self, model: Model) -> Optional[Counter[int]]:
        """Remove each bound value from the other scoped domains, to
        fixpoint; None on wipeout.

        Each pass counts the values over the scope's domains first and
        skips a bound variable whose value no other domain holds: removals
        only lower the counts, so its loop would remove nothing.  Returns
        the counts taken at the start of the last pass, which may only
        over-count the domains it leaves.
        """
        doms = self._domains(model)
        changed = True
        while changed:
            changed = False
            counts = Counter(chain.from_iterable(doms))
            for var, dom in zip(self.scope, doms):
                if len(dom) != 1:
                    continue
                value = next(iter(dom))
                if counts[value] == 1:
                    continue
                for other in self.scope:
                    if other is var:
                        continue
                    odom = model._domains[other.index]
                    if value in odom:
                        was_unbound = len(odom) > 1
                        if not model.remove_value(other, value, self):
                            return None
                        if was_unbound and len(odom) == 1:
                            changed = True
        return counts

    def _regin_filter(self, model: Model, counts: Counter[int]) -> bool:
        """Remove every value that no maximum matching uses.

        A bound variable whose value no other domain holds (by ``counts``
        from ``_forward_check``) shares no edge with the rest of the value
        graph and cannot lose its value, so the graph leaves it out.
        """
        scope = []
        doms = []
        for var, dom in zip(self.scope, self._domains(model)):
            if len(dom) == 1 and counts[next(iter(dom))] == 1:
                continue
            scope.append(var)
            doms.append(dom)
        values = sorted(set().union(*doms))
        if len(values) < len(doms):
            return False
        val_idx = {v: i for i, v in enumerate(values)}
        adj = [[val_idx[d] for d in dom] for dom in doms]
        match_var, match_val = _kuhn_matching(adj, len(values))
        if any(m == -1 for m in match_var):
            return False

        # digraph: matched edge var->val, unmatched val->var
        n_vars = len(doms)
        n_nodes = n_vars + len(values)
        out: list[list[int]] = [[] for _ in range(n_nodes)]
        for x, vs in enumerate(adj):
            for v in vs:
                if match_var[x] == v:
                    out[x].append(n_vars + v)
                else:
                    out[n_vars + v].append(x)

        # nodes reachable from values left unmatched
        reached = [False] * n_nodes
        frontier = [n_vars + v for v in range(len(values)) if match_val[v] == -1]
        for node in frontier:
            reached[node] = True
        while frontier:
            node = frontier.pop()
            for w in out[node]:
                if not reached[w]:
                    reached[w] = True
                    frontier.append(w)

        comp = _tarjan_scc(n_nodes, out)
        for x, var in enumerate(scope):
            for v in list(adj[x]):
                if match_var[x] == v:
                    continue
                if reached[n_vars + v]:
                    continue
                if comp[x] == comp[n_vars + v]:
                    continue
                if not model.remove_value(var, values[v], self):
                    return False
        return True

    def count_densities(self, model: Model) -> DensityTable:
        return alldiff_density_table(self, self._domains(model))


class SymmetricAllDifferent(Constraint):
    """Perfect pairing: x_i = j iff x_j = i, with no self-pairs.

    Scope position i (0-based) corresponds to entity i+1; domains hold
    entity numbers.  Filtering enforces the channeling (edge mutuality)
    plus forward checking on bound pairs; counting bounds the number of
    matchings of the contracted value graph.
    """

    supports_counting = True

    def name(self) -> str:
        return "symmetric_alldifferent"

    def check(self, values: Sequence[int]) -> bool:
        n = len(values)
        for i, v in enumerate(values):
            if v == i + 1:
                return False
            if not (1 <= v <= n) or values[v - 1] != i + 1:
                return False
        return True

    def propagate(self, model: Model) -> bool:
        scope = self.scope
        n = len(scope)
        changed = True
        while changed:
            changed = False
            for i, var in enumerate(scope):
                dom = model._domains[var.index]
                if (i + 1) in dom:
                    if not model.remove_value(var, i + 1, self):
                        return False
                    changed = True
            # edge mutuality: j in D_i requires i+1 in D_{j-1}
            for i, var in enumerate(scope):
                for j in sorted(model._domains[var.index]):
                    if j < 1 or j > n:
                        if not model.remove_value(var, j, self):
                            return False
                        changed = True
                        continue
                    if (i + 1) not in model._domains[scope[j - 1].index]:
                        if not model.remove_value(var, j, self):
                            return False
                        changed = True
            # bound pairs exclude both entities elsewhere
            for i, var in enumerate(scope):
                dom = model._domains[var.index]
                if len(dom) != 1:
                    continue
                j = next(iter(dom))
                partner = scope[j - 1]
                if not model.is_bound(partner):
                    if not model.assign(partner, i + 1, self):
                        return False
                    changed = True
                for k, other in enumerate(scope):
                    if k == i or k == j - 1:
                        continue
                    odom = model._domains[other.index]
                    for used in (j, i + 1):
                        if used in odom:
                            if not model.remove_value(other, used, self):
                                return False
                            changed = True
        return True

    # -- counting ------------------------------------------------------
    def _adjacency(self, domains: Sequence[set[int]]) -> list[set[int]]:
        n = len(domains)
        adj: list[set[int]] = [set() for _ in range(n)]
        for i, dom in enumerate(domains):
            for j in dom:
                if 1 <= j <= n and j != i + 1 and (i + 1) in domains[j - 1]:
                    adj[i].add(j - 1)
        return adj

    def count_densities(self, model: Model) -> DensityTable:
        domains = self._domains(model)
        adj = self._adjacency(domains)
        log_count = sym_matching_log_bound(adj)
        densities: dict[tuple[int, int], float] = {}
        for i, var in enumerate(self.scope):
            dom = domains[i]
            if len(dom) == 1:
                densities[(var.index, next(iter(dom)))] = 1.0
                continue
            raw: dict[int, float] = {}
            for j in sorted(dom):
                raw[j] = sym_probe_log_bound(adj, i, j - 1)
            for j, sigma in _log_norm(raw).items():
                densities[(var.index, j)] = sigma
        return DensityTable(self, log_count, densities)


def sym_matching_log_bound(adj: Sequence[set[int]]) -> float:
    """log of prod_v (deg v)!^(1/(2 deg v)); -inf if no perfect matching
    can exist (odd vertex count or isolated vertex)."""
    n = len(adj)
    if n % 2 == 1:
        return -math.inf
    total = 0.0
    for neigh in adj:
        deg = len(neigh)
        if deg == 0:
            return -math.inf
        total += math.lgamma(deg + 1) / (2 * deg)
    return total


def sym_probe_log_bound(adj: Sequence[set[int]], i: int, j: int) -> float:
    """Bound after pairing vertices i and j and dropping their edges."""
    if j not in adj[i]:
        return -math.inf
    n = len(adj)
    if (n - 2) % 2 == 1:
        return -math.inf
    total = 0.0
    for k in range(n):
        if k in (i, j):
            continue
        deg = len(adj[k]) - (i in adj[k]) - (j in adj[k])
        if deg == 0:
            return -math.inf
        total += math.lgamma(deg + 1) / (2 * deg)
    return total
