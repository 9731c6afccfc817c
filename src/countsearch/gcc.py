"""Global cardinality constraint: matching-based filtering and counting.

Filtering runs forward checking on the upper bounds, then AllDifferent's
Regin filter (``regin_dead_arcs``) on a value graph with one vertex per
allowed occurrence of each value (Regin, AAAI 1996).

Counting decomposes the constraint into a lower-bound graph (duplicated
value vertices for required occurrences) and a residual upper-bound
graph, bounds each side with the permanent upper bounds, and rescales by
the factorials of the duplicated and fake vertices.  ``bound_parts`` is
the definition, on any list of domains.  Density probes (Zanarini &
Pesant, Constraints 14(3), 2009) do not rebuild the probed domains: one
pass over the root records the per-value residual bounds and the
per-variable row sums of both graphs, and each probe moves only the rows
its forward-checking step changes, giving the same rows, and so the same
floats, as ``bound_parts`` on the probed domains.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Optional, Sequence

from .alldiff import probe_table, regin_dead_arcs
from .engine import DOMAIN, Constraint, DensityTable, Model, Variable
from .factors import bm_log_bound, lb_log_bound


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
        # the scope positions of each position's variable, in scope order
        positions: dict[Variable, list[int]] = {}
        for k, var in enumerate(self.scope):
            positions.setdefault(var, []).append(k)
        self._spots = [positions[var] for var in self.scope]

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
            return self._matching_filter(model)
        return True

    def _counting_checks(self, model: Model) -> bool:
        """Forward checking: a value bound as often as its upper bound
        allows leaves every unbound domain, to fixpoint.  False when a
        value is bound more often, or fewer domains hold it than its lower
        bound.

        The removals, their order and the verdict are those of passes
        that each count the bound values at their start and take them in
        the order the count met them, by first bound position: a value
        counted above its upper bound fails, and one counted at it leaves
        the unbound domains in scope order, once; a pass that binds
        nothing ends them.  Once a value has left, no binding takes it, so
        only the values a pass binds can reach their bound in the next:
        the counts follow each binding, and each value's unbound holders
        come from an index built at the first removal.
        """
        doms = self._domains(model)
        high = self.high
        count: dict[int, int] = {}
        first: dict[int, int] = {}  # the first position bound to each value
        for k, dom in enumerate(doms):
            if len(dom) == 1:
                for d in dom:
                    if d in count:
                        count[d] += 1
                    else:
                        count[d] = 1
                        first[d] = k
        todo = [(d, c) for d, c in count.items() if c >= high(d)]
        holders: Optional[dict[int, list[int]]] = None
        saturated: set[int] = set()
        scope, spots = self.scope, self._spots
        while todo:
            grown: set[int] = set()
            for d, c in todo:
                if c > high(d):
                    return False
                saturated.add(d)
                if holders is None:
                    holders = {}
                    for k, dom in enumerate(doms):
                        if len(dom) > 1:
                            for e in dom:
                                holders.setdefault(e, []).append(k)
                for k in holders.get(d, ()):
                    dom = doms[k]
                    if len(dom) > 1 and d in dom:
                        if not model.remove_value(scope[k], d, self):
                            return False
                        if len(dom) == 1:
                            for v in dom:
                                pos = spots[k]
                                count[v] = count.get(v, 0) + len(pos)
                                first[v] = min(first.get(v, pos[0]), pos[0])
                                grown.add(v)
            ready = [v for v in grown if v not in saturated and count[v] >= high(v)]
            ready.sort(key=first.__getitem__)
            todo = [(v, count[v]) for v in ready]
        return all(
            sum(d in dom for dom in doms) >= low
            for d, low in self.lower.items()
            if low > 0
        )

    def _matching_filter(self, model: Model) -> bool:
        """Remove every value that no assignment meeting the bounds uses.

        Value d gets min(u_d, holders of d) copies, the first l_d of them
        required, and each variable an arc to every copy of each value in
        its domain.  When some copy is required, copies - n dummy
        variables, each joined to every optional copy, make the perfect
        matchings exactly the assignments meeting every bound: a solution
        puts each value's users on its required copies first, and the
        dummies take the optional copies left over.  Without required
        copies no dummies are needed: the copies a matching leaves free
        keep alive what the dummies would.  The dummies share one row, so
        ``regin_dead_arcs`` sees repeated rows; it merges each variable
        and dummy with its matched copy and finds the dead arcs from the
        strongly connected components of that graph.  (x, d) goes when
        every arc from x to a copy of d is dead, so a value without copies
        goes at once.
        """
        doms = self._domains(model)
        holders = Counter(chain.from_iterable(doms))
        copies: dict[int, range] = {}
        val_of: list[int] = []  # value of each copy
        optional: list[int] = []
        for d in sorted(holders):
            low = self.low(d)
            k = min(self.high(d), holders[d])
            if k < low:
                return False
            start = len(val_of)
            copies[d] = range(start, start + k)
            val_of.extend([d] * k)
            optional.extend(range(start + low, start + k))
        adj = [[c for d in dom for c in copies[d]] for dom in doms]
        if len(optional) < len(val_of):
            adj.extend([optional] * (len(val_of) - len(doms)))
        dead = regin_dead_arcs(adj, len(val_of))
        if dead is None:
            return False
        # the dead arcs of (x, d) are one run of the scan order, which
        # follows the scope and each domain's iteration order; removing
        # only after the walk keeps a repeated variable's domain intact
        dead.append((-1, -1))
        gone = []
        pos = 0
        for x, dom in enumerate(doms):
            for d in dom:
                run = pos
                while dead[pos][0] == x and val_of[dead[pos][1]] == d:
                    pos += 1
                if pos - run == len(copies[d]):
                    gone.append((self.scope[x], d))
        for var, d in gone:
            if not model.remove_value(var, d, self):
                return False
        return True

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def bound_parts(self, domains: Sequence[set[int]]) -> tuple[float, float, float]:
        """(log lower-graph bound, log residual bound, log denominator).

        Bound variables are taken out first: each uses up one occurrence
        of its value, leaving residual bounds l'_d and u'_d for the
        unbound ones.  The lower-graph term already includes its
        fake-column scaling; the residual term its fake-row scaling.
        The denominator is the product of l'_d! over values: each
        partial assignment meeting the lower bounds corresponds to
        exactly that many maximum matchings of the lower graph.  The
        residual copies are *not* divided out: an extension need not
        use every copy of a value, so that division would break the
        upper-bound guarantee (the fake-row factorial inside the
        residual term is the exact multiplicity that is always present).
        """
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
        caps: dict[int, int] = {}  # u'_d - l'_d
        for d in values:
            low[d], caps[d] = self._residual(d, counts.get(d, 0))
            if caps[d] < 0:
                return -math.inf, -math.inf, 0.0
        total_low = sum(low.values())
        # variables left over once all residual lower bounds are met
        K = len(unbound) - total_low
        if K < 0:
            return -math.inf, -math.inf, 0.0

        denom = sum(math.lgamma(low[d] + 1) for d in values)

        # lower graph: one column per required occurrence + K fake columns
        if total_low == 0:
            lower_log = 0.0
        else:
            rows = [sum(low[d] for d in domains[i] if d in low) + K for i in unbound]
            if any(r == 0 for r in rows):
                return -math.inf, -math.inf, denom
            lower_log = min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(K + 1)

        # residual graph: u'-l' copies per value; K best variables kept
        n_cols = sum(caps.values())
        if K == 0:
            upper_log = 0.0
        elif n_cols < K:
            return lower_log, -math.inf, denom
        else:
            rho = [(sum(caps.get(d, 0) for d in domains[i]), i) for i in unbound]
            # K variables with the largest per-row factor, ties by index
            rho.sort(key=lambda t: (-t[0], t[1]))
            chosen = [r for r, _ in rho[:K]]
            if any(r == 0 for r in chosen):
                return lower_log, -math.inf, denom
            pad = n_cols - K  # fake rows
            rows = chosen + [n_cols] * pad
            upper_log = min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(pad + 1)
        return lower_log, upper_log, denom

    def _residual(self, d: int, bound: int) -> tuple[int, int]:
        """(l'_d, u'_d - l'_d) once ``bound`` variables are bound to d."""
        low = max(0, self.low(d) - bound)
        return low, self.high(d) - bound - low

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
        """Densities from forward-checking probes, each bounded by
        ``log_count`` of ``_probe_domains`` without building it.

        One pass over the root records, per value, its bound count, its
        holders and its residual l'_d and u'_d - l'_d, and per unbound
        position its lower-graph row sum (sum of l') and residual row sum
        (sum of u' - l').  A probe (i, d) then applies only what the
        forward-checking step changes: position i leaves the rows and d's
        count rises by one; when d reaches its upper bound it leaves the
        other unbound domains, binding those with one other value; values
        only position i held drop out.  The rows holding a changed value
        move by its change in l' and u' - l'.  The probe builds the same
        integer rows in the same order as ``bound_parts`` and makes the
        same bound calls, so every float is the one ``log_count`` gives.
        """
        domains = self._domains(model)
        counts: Counter[int] = Counter()  # bound positions per value
        holders: Counter[int] = Counter()  # positions per value
        held_by: dict[int, list[int]] = {}  # row indices of the unbound holders
        unbound: list[int] = []
        for k, dom in enumerate(domains):
            holders.update(dom)
            if len(dom) == 1:
                counts.update(dom)
                continue
            for d in dom:
                held_by.setdefault(d, []).append(len(unbound))
            unbound.append(k)
        required = {d for d, l in self.lower.items() if l > 0}
        low: dict[int, int] = {}
        cap: dict[int, int] = {}  # u'_d - l'_d
        for d in set(holders) | required:
            low[d], cap[d] = self._residual(d, counts[d])
        bad = [d for d, c in cap.items() if c < 0]  # residual bounds cross
        total_low = sum(low.values())
        n_cols = sum(cap.values())
        # values whose term of the log denominator can be nonzero, sorted
        heavy = sorted(d for d, l in low.items() if l > 1)
        low_rows = [sum(low[d] for d in domains[k]) for k in unbound]
        cap_rows = [sum(cap[d] for d in domains[k]) for k in unbound]

        def scores_for(i: int) -> dict[int, float]:
            row_i = unbound.index(i)
            # values only position i holds and no lower bound keeps: they
            # drop out when i is bound to another value
            alone = {d for d in domains[i] if holders[d] == 1} - required
            alone_cols = sum(cap[d] for d in alone)

            def probe(d: int) -> float:
                if bad and any(e == d or e not in alone for e in bad):
                    return -math.inf
                c = counts[d] + 1
                changed = {d: self._residual(d, c)}
                if changed[d][1] < 0:
                    return -math.inf
                gone = [row_i]
                if c == self.high(d):
                    # d saturates and leaves the other unbound domains
                    binds: dict[int, int] = {}  # value -> positions bound to it
                    for r in held_by[d]:
                        dom = domains[unbound[r]]
                        if r != row_i and len(dom) == 2:
                            gone.append(r)
                            for e in dom:
                                if e != d:
                                    binds[e] = binds.get(e, 0) + 1
                    for e, n in binds.items():
                        changed[e] = self._residual(e, counts[e] + n)
                        if changed[e][1] < 0:
                            return -math.inf
                sum_low = total_low
                cols = n_cols - alone_cols + (cap[d] if d in alone else 0)
                lows = low_rows.copy()
                caps = cap_rows.copy()
                for e, (l, u) in changed.items():
                    dl, dc = l - low[e], u - cap[e]
                    sum_low += dl
                    cols += dc
                    if dl or dc:
                        for r in held_by[e]:
                            lows[r] += dl
                            caps[r] += dc
                for r in sorted(gone, reverse=True):
                    del lows[r], caps[r]
                K = len(lows) - sum_low
                if K < 0:
                    return -math.inf
                if sum_low == 0:
                    lower_log = 0.0
                else:
                    rows = [r + K for r in lows]
                    if 0 in rows:
                        return -math.inf
                    lower_log = min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(K + 1)
                if K == 0:
                    upper_log = 0.0
                elif cols < K:
                    return -math.inf
                else:
                    caps.sort(reverse=True)
                    del caps[K:]
                    if caps[-1] == 0:
                        return -math.inf
                    pad = cols - K
                    rows = caps + [cols] * pad
                    upper_log = min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(pad + 1)
                denom = sum(
                    math.lgamma(l + 1)
                    for l in (changed[e][0] if e in changed else low[e] for e in heavy)
                    if l > 1
                )
                return lower_log + upper_log - denom

            return {d: probe(d) for d in sorted(domains[i])}

        return probe_table(self, domains, self.log_count(domains), scores_for)
