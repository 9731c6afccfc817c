"""Alldifferent and symmetric pairing constraints: filtering and counting.

AllDifferent filters by forward checking and, at domain consistency,
by Regin's matching filter (``regin_dead_arcs``, shared with
``GlobalCardinality``), which works on the variables alone, each merged
with its matched value.

Counting uses permanent upper bounds on the 0-1 variable/value matrix:
the count takes the tighter of Bregman-Minc and Liang-Bai, and densities
come from forward-checking local probes bounded by Bregman-Minc alone,
per Algorithm 1's incremental factor updates.  The pairing
variant bounds the number of matchings of the contracted value graph.
``probe_table`` turns probe bounds into per-variable densities for this
module's constraints and for ``GlobalCardinality``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Callable, Optional, Sequence

from .engine import (
    DOMAIN,
    Constraint,
    DensityTable,
    Model,
    Variable,
)
from .factors import BM_TABLE_SIZE, bm_table, lb_log_bound


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


def probe_table(
    constraint: Constraint,
    domains: Sequence[set[int]],
    log_count: float,
    probe_for: Callable[[int], Callable[[int], float]],
) -> DensityTable:
    """Densities from forward-checking probes, normalized per variable.

    ``probe_for(i)(d)`` is the log count bound once scope position i
    takes value d; ``probe_for`` is called once per unbound position, so
    it can work out what the position's probes share.  A bound variable
    has density 1 on its value; every value of an unbound one is probed,
    in sorted order, and its probes are normalized with ``_log_norm``.
    The tables share their keys (``Constraint.density_keys``).
    """
    densities: dict[tuple[int, int], float] = {}
    keys = constraint.density_keys()
    for i, (key, dom) in enumerate(zip(keys, domains)):
        if len(dom) == 1:
            densities[key[next(iter(dom))]] = 1.0
            continue
        probe = probe_for(i)
        raw = {d: probe(d) for d in sorted(dom)}
        for d, sigma in _log_norm(raw).items():
            densities[key[d]] = sigma
    return DensityTable(constraint, log_count, densities)


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
    domains holding it.  Its score is the Bregman-Minc bound of its rows,
    updated from the root by the per-row factor changes of the rows it
    touches.  The table's count takes the tighter of Bregman-Minc and
    Liang-Bai on the root rows; probes skip Liang-Bai, which never comes
    out below Bregman-Minc on a square matrix with no row sum above its
    size (``tests/test_factors.py`` certifies this up to 64 rows).
    """
    rows, p, u = padded_rows(domains)
    if any(r == 0 for r in rows):
        return DensityTable(constraint, -math.inf, {})
    pad_log = math.lgamma(p + 1)
    bm = bm_table(max(u, BM_TABLE_SIZE))
    bm_root = sum(bm[r] for r in rows) - pad_log
    log_count = min(bm_root, lb_log_bound(rows) - pad_log)

    # index values to the rows containing them, for probe deltas
    holders: dict[int, list[int]] = {}
    for k, dom in enumerate(domains):
        for d in dom:
            holders.setdefault(d, []).append(k)

    def probe_for(i: int) -> Callable[[int], float]:
        # the root bound with row i's factor replaced by a bound row's
        base = bm_root + bm[1] - bm[rows[i]]

        def probe(d: int) -> float:
            delta = 0.0
            for k in holders[d]:
                if k == i:
                    continue
                size = rows[k]
                if size == 1:  # the probe empties row k
                    return -math.inf
                delta += bm[size - 1] - bm[size]
            return base + delta

        return probe

    return probe_table(constraint, domains, log_count, probe_for)


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


def regin_dead_arcs(
    adj: list[list[int]], n_vals: int
) -> Optional[list[tuple[int, int]]]:
    """Arcs (x, v) of the variable/value graph ``adj`` that no matching
    covering every variable uses (Regin, AAAI 1994), in scan order: by
    x, then in ``adj[x]`` order.  None when no such matching exists.

    Given one such matching, each variable is merged with its matched
    value (Gent, Miguel & Nightingale, AIJ 2008): one node per variable,
    and an arc x -> y when x can take y's value v.  x can switch to v iff
    y can then move on, along a path to a variable that can take a free
    value or around a cycle back to x.  So (x, v) is dead iff y reaches
    no free value (y is not *reached*) and y is not in x's strongly
    connected component.  Each node keeps its successors and
    predecessors as Python int bitmasks.  The reached set is one search
    from the free values along predecessors; the components come from
    one Kosaraju pass over the unreached variables, since a component of
    an unreached variable holds only unreached ones.  Each search pushes
    a variable once.
    """
    n_vars = len(adj)
    if n_vals < n_vars:
        return None
    match_var, match_val = _kuhn_matching(adj, n_vals)
    if -1 in match_var:
        return None

    # holders[v]: the variables that can take v; succ[x]: the variables
    # whose value x can take, x itself included (a free value adds no
    # bit); pred[y]: the variables that can take y's value
    owner = [0 if y == -1 else 1 << y for y in match_val]
    holders = [0] * n_vals
    succ = []
    bit = 1
    for vs in adj:
        mask = 0
        for v in vs:
            holders[v] |= bit
            mask |= owner[v]
        succ.append(mask)
        bit <<= 1
    pred = [holders[v] for v in match_var]

    # the variables that can reach a free value
    reached = 0
    for v, y in enumerate(match_val):
        if y == -1:
            reached |= holders[v]
    frontier = reached
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = pred[low.bit_length() - 1] & ~reached
        reached |= grown
        frontier |= grown
    rest = (1 << n_vars) - 1 & ~reached

    # Kosaraju over the unreached variables: finish order along succ,
    # then components along pred in reverse finish order
    finished = []
    unvisited = rest
    while unvisited:
        low = unvisited & -unvisited
        unvisited ^= low
        stack = [low.bit_length() - 1]
        while stack:
            nxt = succ[stack[-1]] & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())

    # comp[y]: y's component, or -1 for a reached y
    comp = [-1] * n_vars
    dying = 0  # the variables with an arc into another component
    unvisited = rest
    for root in reversed(finished):
        if comp[root] != -1:
            continue
        comp[root] = root
        members = 1 << root
        unvisited ^= members
        into = 0
        stack = [root]
        while stack:
            into |= pred[stack.pop()]
            grown = into & unvisited
            unvisited ^= grown
            members |= grown
            while grown:
                low = grown & -grown
                grown ^= low
                y = low.bit_length() - 1
                comp[y] = root
                stack.append(y)
        dying |= into ^ members  # into holds every member
    if not dying:
        return []

    # no arc leads from an unreached variable to a reached one, and only
    # reached variables can take a free value: (x, v) is dead iff x and
    # the owner of v lie in different classes of comp
    val_comp = [-1 if y == -1 else comp[y] for y in match_val]
    return [
        (x, v) for x, vs in enumerate(adj) for v in vs if val_comp[v] != comp[x]
    ]


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
        """Remove each bound value from the domains at the other scope
        positions, to fixpoint; None on wipeout.  A variable that fills
        two positions is bound to two equal values, so it wipes out.

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
            for i, dom in enumerate(doms):
                if len(dom) != 1:
                    continue
                value = next(iter(dom))
                if counts[value] == 1:
                    continue
                for k, odom in enumerate(doms):
                    if k != i and value in odom:
                        was_unbound = len(odom) > 1
                        if not model.remove_value(self.scope[k], value, self):
                            return None
                        if was_unbound and len(odom) == 1:
                            changed = True
        return counts

    def _regin_filter(self, model: Model, counts: Counter[int]) -> bool:
        """Remove every value that no maximum matching uses.

        A bound variable whose value no other domain holds (by ``counts``
        from ``_forward_check``) shares no edge with the rest of the value
        graph and cannot lose its value, so the graph leaves it out.

        The values are indexed as ``counts`` lists them.  A value that no
        domain left in the graph holds (its count fell to 0 in the last
        forward-checking pass, or only a left-out variable holds it) is a
        free value with no arc: no matching uses it and no variable can
        reach it, so the dead arcs, and the order they are removed in
        (``regin_dead_arcs``' scan order), stay the same.
        """
        scope = []
        doms = []
        for var, dom in zip(self.scope, self._domains(model)):
            if len(dom) == 1 and counts[next(iter(dom))] == 1:
                continue
            scope.append(var)
            doms.append(dom)
        values = list(counts)
        val_idx = {v: i for i, v in enumerate(values)}
        dead = regin_dead_arcs([[val_idx[d] for d in dom] for dom in doms], len(values))
        if dead is None:
            return False
        for x, v in dead:
            if not model.remove_value(scope[x], values[v], self):
                return False
        return True

    def count_densities(self, model: Model) -> DensityTable:
        return alldiff_density_table(self, self._domains(model))


class SymmetricAllDifferent(Constraint):
    """Perfect pairing: x_i = j iff x_j = i, with no self-pairs.

    Scope position i (0-based) corresponds to entity i+1; domains hold
    entity numbers.  Filtering enforces the channeling (edge mutuality)
    and binds the partner of each bound variable; counting bounds the
    number of matchings of the contracted value graph.
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
            # a bound pair binds its partner; the next mutuality pass then
            # removes both entities from every other domain
            for i, var in enumerate(scope):
                dom = model._domains[var.index]
                if len(dom) != 1:
                    continue
                partner = scope[next(iter(dom)) - 1]
                if not model.is_bound(partner):
                    if not model.assign(partner, i + 1, self):
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
        return probe_table(
            self, domains, sym_matching_log_bound(adj),
            lambda i: lambda j: sym_probe_log_bound(adj, i, j - 1),
        )


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
