"""Alldifferent and symmetric pairing constraints: filtering and counting.

AllDifferent filters by forward checking, which sweeps each newly bound
value from the other domains through a worklist, and, at domain
consistency, by Regin's matching filter, which works on the variables
alone, each merged with its matched value, and sees only the unbound
positions.  ``GlobalCardinality`` shares both: its forward checking is
the same sweep (``forward_check``) with each value's upper bound as the
quota of positions the value may fill, where AllDifferent's quota is 1,
and its matching filter calls ``regin_dead_arcs``.
Both look only at the scope positions still open: a position bound and
swept by an earlier call is closed until a backtrack reopens it.

Counting uses permanent upper bounds on the 0-1 variable/value matrix:
the count takes the tighter of Bregman-Minc and Liang-Bai, and densities
come from forward-checking local probes bounded by Bregman-Minc alone,
per Algorithm 1's incremental factor updates.  An AllDifferent probe
(i, d) scores a constant of row i plus one sum per value d, so
``alldiff_density_table`` takes one sum and one ``exp`` per value and
normalizes each row as a softmax of those sums.  The pairing variant
bounds the number of matchings of the contracted value graph.
``probe_table`` normalizes per-position lists of probe scores into
densities, for ``SymmetricAllDifferent`` and ``GlobalCardinality``.
Every sum and total is a ``math.fsum`` (see ``engine``), so a table
depends on the domains alone.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from .engine import DOMAIN, Constraint, DensityTable, Model
from .factors import bm_log_bound, bm_table, lb_log_bound


def probe_table(
    constraint: Constraint,
    domains: Sequence[set[int]],
    log_count: float,
    values: Sequence[Sequence[int]],
    scores: Sequence[Sequence[float]],
) -> DensityTable:
    """Densities from forward-checking probes, normalized per variable.

    For each unbound scope position i, ``values[i]`` lists the values of
    its domain in ascending order and ``scores[i]`` the score of each
    probe (i, d) in the same order: the log count bound once position i
    takes d.  The entries of bound positions are not read.  A bound
    variable has density 1 on its value.  An unbound one's scores are
    normalized over the two lists: each score's ``exp`` is taken once,
    relative to the largest, and the weights' ``math.fsum`` divides them.
    A ``-inf`` score's weight is exactly 0.0, so it adds nothing and gets
    density 0.0; when every score is ``-inf`` every density is 0.0.
    """
    densities: dict[tuple[int, int], float] = {}
    exp = math.exp
    for var, dom, vals, row in zip(constraint.scope, domains, values, scores):
        vi = var.index
        if len(dom) == 1:
            densities[vi, next(iter(dom))] = 1.0
            continue
        top = max(row)
        if top == -math.inf:
            for d in vals:
                densities[vi, d] = 0.0
            continue
        weights = [exp(s - top) for s in row]
        total = math.fsum(weights)
        for d, w in zip(vals, weights):
            densities[vi, d] = w / total
    return DensityTable(constraint, log_count, densities)


# ----------------------------------------------------------------------
# permanent-bound arithmetic on a list of domains
# ----------------------------------------------------------------------
#: a row whose weights on the table's shift add up to less than this is
#: normalized on its own shift, so no row's weights underflow to 0.0
_TINY_TOTAL = 1e-280


def alldiff_density_table(
    constraint: Constraint, domains: Sequence[set[int]]
) -> DensityTable:
    """Bound-based densities via FC probes, normalized per variable.

    The 0-1 variable/value matrix has one row per scope position; when
    the union of the domains has p more values than there are positions,
    p all-ones rows of sum |union| are appended and the bound is divided
    by p!.  The table's count takes the tighter of Bregman-Minc and
    Liang-Bai on these root rows.

    A probe (i, d) binds position i to d and removes d from the other
    domains holding it; its score is the Bregman-Minc bound of the rows
    that leaves.  With bm[r] the factor of a row of sum r and r_k the
    size of position k's domain, the probe turns row i's factor into
    bm[1] and each other holder k's into bm[r_k - 1], so its score is
    the root bound plus bm[1] - bm[r_i] plus the step bm[r_k - 1] -
    bm[r_k] of every other holder of d.  Position i holds every value of
    its own domain, so adding and taking away its own step gives

        score(i, d) = C_i + S_d,   C_i = root + bm[1] - bm[r_i - 1],

    where S_d sums the steps of *all* unbound holders of d.  C_i is the
    same for every value of row i, so row i's densities are the softmax
    of S_d over D_i: exp(S_d - M) over the row's total of them, for any
    shift M.  A probe onto a value a bound position takes empties that
    row, so its weight is 0.0.  Probes skip Liang-Bai, which never comes
    out below Bregman-Minc on a square matrix with no row sum above its
    size (``tests/test_factors.py`` certifies this up to 64 rows).

    One S_d and one ``exp`` are taken per value, on the largest S_d of
    the table as M, then one total per row and one division per entry.
    S_d, each total and both bounds of the count are ``math.fsum``s,
    which are exactly rounded, so the count and every density depend on
    the domains alone, not on the scope order or the order a domain set
    iterates in.  A row whose total on the table's shift is below
    ``_TINY_TOTAL`` (its weights underflowed) is normalized on its own
    largest S_d instead.
    """
    # the factor steps of each value's unbound holders, and the values
    # that bound positions take
    bm = bm_table(max(map(len, domains), default=0))
    holders: dict[int, list[float]] = {}
    taken: set[int] = set()
    for dom in domains:
        r = len(dom)
        if r < 2:
            taken |= dom
            continue
        step = bm[r - 1] - bm[r]
        for d in dom:
            holders.setdefault(d, []).append(step)
    u = len(taken.union(holders))
    p = max(0, u - len(domains))
    rows = list(map(len, domains)) + [u] * p
    if 0 in rows:
        return DensityTable(constraint, -math.inf, {})
    bm_root = math.fsum(map(bm_table(u).__getitem__, rows))
    log_count = min(bm_root, lb_log_bound(rows)) - math.lgamma(p + 1)

    fsum = math.fsum
    exp = math.exp
    sums = {d: fsum(steps) for d, steps in holders.items() if d not in taken}
    top = max(sums.values(), default=0.0)
    weights = {d: exp(sums[d] - top) if d in sums else 0.0 for d in holders}
    densities: dict[tuple[int, int], float] = {}
    for var, dom in zip(constraint.scope, domains):
        vi = var.index
        if len(dom) == 1:
            densities[vi, next(iter(dom))] = 1.0
            continue
        row = list(map(weights.__getitem__, dom))
        total = fsum(row)
        if total < _TINY_TOTAL:
            # the row's own shift; every weight stays 0.0 when bound
            # positions take all of its values
            held = [sums[d] for d in dom if d in sums]
            if held:
                own = max(held)
                row = [exp(sums[d] - own) if d in sums else 0.0 for d in dom]
                total = fsum(row)
            else:
                total = 1.0
        for d, w in zip(dom, row):
            densities[vi, d] = w / total
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


def _closure(arcs: list[int], start: int) -> int:
    """The nodes reached from the node set ``start`` (a bitmask), itself
    included, along ``arcs``, the bitmask of each node's neighbours.
    Each node is expanded once."""
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = arcs[low.bit_length() - 1] & ~seen
        seen |= grown
        frontier |= grown
    return seen


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
    from the free values along predecessors.  An unreached variable's
    arcs lead only to unreached ones, so nothing dies exactly when each
    component of the unreached variables is closed, with no arc leaving
    or entering it.  That is checked first, from one member per
    component, whose searches along successors and along predecessors
    must find the same variables; most calls end there.  Otherwise the
    components come from one Kosaraju pass over the unreached variables,
    since a component of an unreached variable holds only unreached
    ones.  Each search expands a variable once.
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

    # the variables that can reach a free value, searched back from
    # those that can take one
    takers = 0
    for v, y in enumerate(match_val):
        if y == -1:
            takers |= holders[v]
    reached = _closure(pred, takers)
    rest = (1 << n_vars) - 1 & ~reached

    # nothing dies when every unreached component is closed both ways
    unchecked = rest
    while unchecked:
        seed = unchecked & -unchecked
        ahead = _closure(succ, seed)
        if _closure(pred, seed) != ahead:
            break
        unchecked ^= ahead
    else:
        return []

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
    unvisited = rest
    for root in reversed(finished):
        if comp[root] != -1:
            continue
        comp[root] = root
        unvisited ^= 1 << root
        stack = [root]
        while stack:
            grown = pred[stack.pop()] & unvisited
            unvisited ^= grown
            while grown:
                low = grown & -grown
                grown ^= low
                y = low.bit_length() - 1
                comp[y] = root
                stack.append(y)

    # no arc leads from an unreached variable to a reached one, and only
    # reached variables can take a free value: (x, v) is dead iff x and
    # the owner of v lie in different classes of comp
    val_comp = [-1 if y == -1 else comp[y] for y in match_val]
    return [
        (x, v) for x, vs in enumerate(adj) for v in vs if val_comp[v] != comp[x]
    ]


def forward_check(
    constraint: Constraint,
    model: Model,
    doms: list[set[int]],
    live: Sequence[int],
    quota: Callable[[int], int],
) -> Optional[list[int]]:
    """Forward checking to fixpoint: once ``quota(v)`` scope positions
    are bound to a value v, v leaves every other domain of the scope.
    Returns the positions of ``live``, the only ones looked at, left
    unbound, or None on wipeout; no other domain may hold the value of a
    position left out.  A variable counts once per position it fills.  At
    quota 1, AllDifferent's, each bound value leaves the domains at the
    other positions, and two positions bound to one value wipe out.

    The removals and their order are those of passes over the scope in
    which each bound position whose value had reached its quota, at the
    start or when the position was bound, sweeps that value from the
    domains in scope order, until a pass binds nothing.  A sweep skips
    the sweeping position when the quota is at least 1, and the positions
    bound to the value while its count is within the quota: so a value
    over its quota wipes out at a bound position, and one with quota 0 at
    the sweeping position.  Sweeping a value again removes nothing, nor
    does sweeping one at its quota that no unbound position holds; so a
    worklist sweeps each position once: when it binds, or at the start if
    its value is over its quota, or at it and held.  A position bound
    ahead of the one being swept joins the current pass, one behind it
    the next.  A sweep finds its value's holders, and a new binding the
    positions its variable fills, by scanning ``live`` in scope order: a
    domain only loses values, so the scan meets the holders in the order
    an index built at the start would list them.
    """
    free: list[int] = []
    bound: list[int] = []
    for i in live:
        if len(doms[i]) > 1:
            free.append(i)
        else:
            bound.append(i)
    if not bound:
        return free
    values = [next(iter(doms[i])) for i in bound]
    count: dict[int, int] = {}  # the bound positions of each value
    for v in values:
        count[v] = count.get(v, 0) + 1
    held = set().union(*map(doms.__getitem__, free))
    todo = [
        i for i, v in zip(bound, values)
        if (over := count[v] - quota(v)) > 0 or over == 0 and v in held
    ]
    if not todo:
        return free
    scope = constraint.scope
    while todo:
        later: list[int] = []
        while todo:
            i = heappop(todo)
            value = next(iter(doms[i]))
            cap = quota(value)
            for k in live:
                dom = doms[k]
                if value not in dom or len(dom) == 1 and (
                    k == i and cap > 0 or count[value] <= cap
                ):
                    continue
                if not model.remove_value(scope[k], value, constraint):
                    return None
                if len(dom) > 1:
                    continue
                # the positions the variable fills share its domain
                bound_to = next(iter(dom))
                spots = [t for t in live if doms[t] is dom]
                n = count[bound_to] = count.get(bound_to, 0) + len(spots)
                if n >= quota(bound_to):
                    for t in spots:
                        if t > i:
                            heappush(todo, t)
                        else:
                            later.append(t)
        later.sort()
        todo = later
    return [k for k in free if len(doms[k]) > 1]


def _once(value: int) -> int:
    """AllDifferent's quota: each value at most once."""
    return 1


class AllDifferent(Constraint):
    """Pairwise-distinct values over the scope.

    ``propagate`` looks only at the open scope positions, those not yet
    bound and swept.  A successful call leaves no bound value in another
    domain of the scope, so it closes every position it leaves bound:
    until a backtrack undoes the call's domain changes, such a position
    stays bound and its value stays out of the other domains, so sweeping
    it again would remove nothing and Regin's filter would leave it out.
    The open positions are ``_open``, a list in scope order made at the
    first ``propagate``.  A call that closes positions replaces it with
    the positions it leaves unbound and puts the old list on the model's
    trail, so backtracking restores it and reopens what the level closed.
    Nothing done at level 0 is ever undone, so a call at level 0 trails
    nothing.  A constraint serves one model: ``Model.add`` posts it once.
    """

    supports_counting = True
    # forward checking loops to its fixpoint, and Regin filtering after it
    # leaves every remaining value in some maximum matching
    idempotent = True
    _open: Optional[list[int]] = None

    def name(self) -> str:
        return "alldifferent"

    def check(self, values: Sequence[int]) -> bool:
        return len(set(values)) == len(values)

    def propagate(self, model: Model) -> bool:
        doms = self._domains(model)
        live = self._open
        if live is None:
            live = self._open = list(range(len(doms)))
        free = forward_check(self, model, doms, live, _once)
        if free is None:
            return False
        if self.consistency == DOMAIN and not self._regin_filter(model, doms, free):
            return False
        # close the open positions now bound: each was swept
        keep = [k for k in free if len(doms[k]) > 1]
        if len(keep) < len(live):
            if model.level:
                model.trail_undo(self._reopen, live)
            self._open = keep
        return True

    def _reopen(self, live: list[int]) -> None:
        self._open = live

    def _regin_filter(
        self, model: Model, doms: list[set[int]], free: list[int]
    ) -> bool:
        """Remove every value that no maximum matching uses.

        The value graph holds the unbound positions ``free`` alone.  After
        forward checking no other domain holds a bound position's value,
        so such a position and its value form a component of their own,
        whose one arc every matching uses: leaving it out changes neither
        whether a matching covers every position nor which arcs are dead,
        nor the order ``regin_dead_arcs`` lists them in.  One pass over the
        free domains numbers the values as first seen and lists each row in
        its domain's order.  The numbering may change which matching is
        found, but not the dead arcs, which no maximum matching uses
        whichever one is found, nor their order: by position, then row.
        """
        if not free:
            return True
        val_idx: dict[int, int] = {}
        adj = []
        for k in free:
            row = []
            for d in doms[k]:
                v = val_idx.get(d)
                if v is None:
                    v = val_idx[d] = len(val_idx)
                row.append(v)
            adj.append(row)
        dead = regin_dead_arcs(adj, len(val_idx))
        if dead is None:
            return False
        values = list(val_idx)
        scope = self.scope
        for x, v in dead:
            if not model.remove_value(scope[free[x]], values[v], self):
                return False
        return True

    def count_densities(self, model: Model) -> DensityTable:
        return alldiff_density_table(self, self._domains(model))


class SymmetricAllDifferent(Constraint):
    """Perfect pairing: x_i = j iff x_j = i, with no self-pairs.

    Scope position i (0-based) corresponds to entity i+1; domains hold
    entity numbers.  Counting bounds the number of matchings of the
    contracted value graph, whose edges (``_adjacency``) are the mutual
    ones: j in D_i and i + 1 in D_{j-1}, with j != i + 1.  Filtering keeps
    only values on those edges and binds the partner of each bound
    position.
    """

    supports_counting = True
    # filtering loops to the pairing fixpoint
    idempotent = True

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
        """Both filtering rules to their fixpoint, in rounds that list
        what the rules change on the round's domains and then apply it;
        the rules are monotone, so that order leaves the fixpoint as is."""
        scope = self.scope
        while True:
            domains = self._domains(model)
            adj = self._adjacency(domains)
            removals = [
                (var, j)
                for var, dom, edges in zip(scope, domains, adj)
                for j in dom
                if j - 1 not in edges
            ]
            bindings = [
                (scope[j], i + 1)
                for i, dom in enumerate(domains)
                if len(dom) == 1
                for j in adj[i]
                if len(domains[j]) > 1
            ]
            if not removals and not bindings:
                return True
            for var, j in removals:
                if not model.remove_value(var, j, self):
                    return False
            for var, i in bindings:
                if not model.assign(var, i, self):
                    return False

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
        values = [sorted(dom) for dom in domains]
        scores = [
            [sym_matching_log_bound(adj, (i, j - 1)) for j in vals]
            if len(vals) > 1
            else []
            for i, vals in enumerate(values)
        ]
        return probe_table(self, domains, sym_matching_log_bound(adj), values, scores)


def sym_matching_log_bound(
    adj: Sequence[set[int]], pair: tuple[int, ...] = ()
) -> float:
    """log of prod_v (deg v)!^(1/(2 deg v)); -inf if no perfect matching
    can exist (odd vertex count or isolated vertex).

    With ``pair = (i, j)``, the bound after pairing vertices i and j: both
    are dropped, and every other vertex loses its edges to them; -inf
    unless j is a neighbour of i.
    """
    if pair and pair[1] not in adj[pair[0]]:
        return -math.inf
    if (len(adj) - len(pair)) % 2 == 1:
        return -math.inf
    # halving is exact, so halving Bregman-Minc's sum gives the same float
    # as adding the halved factors
    return bm_log_bound(
        len(neigh) - len(neigh.intersection(pair))
        for k, neigh in enumerate(adj)
        if k not in pair
    ) / 2
