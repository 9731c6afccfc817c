"""Global cardinality constraint: matching-based filtering and counting.

Filtering runs AllDifferent's forward checking (``forward_check``) with
each value's upper bound as its quota: an alldifferent is the GCC whose
every upper bound is 1, and both remove the same values in the same
order.  Then come a check of the lower bounds and AllDifferent's Regin
filter (``regin_dead_arcs``) on a value graph with one vertex per allowed
occurrence of each value (Regin, AAAI 1996).

Counting decomposes the constraint into a lower-bound graph (duplicated
value vertices for required occurrences) and a residual upper-bound
graph, bounds each side with the permanent upper bounds, and rescales by
the factorials of the duplicated and fake vertices.  One pass over the
domains (``_Root``) records the per-value residual bounds and the
per-variable row sums of both graphs, and one tail (``_Root.parts``)
bounds those rows.  The constraint's count, ``bound_parts`` and every
density probe (Zanarini & Pesant, Constraints 14(3), 2009) go through
the two: a probe does not rebuild the probed domains but moves only the
rows its forward-checking step changes, giving the same rows, and so
the same floats, as ``bound_parts`` on the probed domains.  Every bound
is a ``math.fsum`` (see ``engine``), so it depends on the multiset of
its rows alone, and unbound positions with equal domains share one
probe per value (``count_densities``).  The tail bounds each padded
matrix through one bounded memo keyed on its rows and its padding
(``padded_log_bound``): a roster's tables ask for a few hundred
distinct matrices tens of thousands of times.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .alldiff import forward_check, probe_table, regin_dead_arcs
from .engine import DOMAIN, Constraint, DensityTable, Model, Variable
from .factors import bm_log_bound, lb_log_bound


class GlobalCardinality(Constraint):
    """Each value d must occur between lower[d] and upper[d] times."""

    supports_counting = True
    # the counting checks loop to their fixpoint; the matching filter leaves
    # only values on some matching, alike at each position of one variable
    idempotent = True

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
            return self._matching_filter(model)
        return True

    def _counting_checks(self, model: Model) -> bool:
        """Forward checking on the upper bounds: AllDifferent's sweep
        (``forward_check``) with each value's upper bound as its quota, to
        fixpoint.  False when a value is bound more often than that, or
        fewer domains hold it than its lower bound."""
        doms = self._domains(model)
        if forward_check(self, model, doms, range(len(doms)), self.high) is None:
            return False
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
        keep alive what the dummies would.  The copies are numbered in
        ascending value order, each row lists them by its domain's
        iteration order, and the dummies share one row, so
        ``regin_dead_arcs`` sees repeated rows of copy numbers; it merges
        each variable and dummy with its matched copy and finds the dead
        arcs from the strongly connected components of that graph.  (x, d)
        goes when every arc from x to a copy of d is dead, so a value
        without copies goes at once.
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
        dead = regin_dead_arcs(adj)
        if dead is None:
            return False
        # removals follow the scope and each domain's iteration order;
        # removing only after the scan keeps a repeated variable's domain
        # intact
        dead_copies = Counter((x, val_of[c]) for x, c in dead)
        gone = [
            (self.scope[x], d)
            for x, dom in enumerate(doms)
            for d in dom
            if dead_copies[x, d] == len(copies[d])
        ]
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
        return _Root(self, domains).root_parts()

    def _residual(self, d: int, bound: int) -> tuple[int, int]:
        """(l'_d, u'_d - l'_d) once ``bound`` variables are bound to d."""
        low = max(0, self.low(d) - bound)
        return low, self.high(d) - bound - low

    def log_count(self, domains: Sequence[set[int]]) -> float:
        lower_log, upper_log, denom = self.bound_parts(domains)
        return lower_log + upper_log - denom  # -inf when either part is

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
        """Densities from forward-checking probes, each bounded as
        ``log_count`` of ``_probe_domains`` would bound it, from one
        ``_Root`` pass that also gives the table's count.

        Unbound positions with equal domains share one list of probe
        scores: the probes of two such positions leave the same multisets
        of rows, and each bound depends on its multiset alone."""
        domains = self._domains(model)
        root = _Root(self, domains)
        values = [sorted(dom) for dom in domains]
        probed: dict[tuple[int, ...], list[float]] = {}
        scores = []
        for i, vals in enumerate(values):
            if len(vals) == 1:
                scores.append([])
                continue
            key = tuple(vals)
            row = probed.get(key)
            if row is None:
                row = probed[key] = root.probes(i, vals)
            scores.append(row)
        lower_log, upper_log, denom = root.root_parts()
        return probe_table(self, domains, lower_log + upper_log - denom, values, scores)


@lru_cache(maxsize=4096)
def padded_log_bound(rows: tuple[int, ...], pad: int) -> float:
    """The tighter of Bregman-Minc and Liang-Bai on the row sums ``rows``,
    less log(pad!) for the ``pad`` fake rows or columns among them.

    Memoized: a roster's tables bound the same few matrices over and
    over.  Each miss calls both kernels through this module's globals.
    """
    return min(bm_log_bound(rows), lb_log_bound(rows)) - math.lgamma(pad + 1)


class _Root:
    """One pass over a GCC's domains, shared by its count and its probes.

    Per value it records the bound count, the holders, the unbound rows
    holding it and the residual l'_d and u'_d - l'_d; per unbound
    position, in scope order, the lower-graph row sum (sum of l') and
    the residual row sum (sum of u' - l').  ``parts`` bounds these rows
    once a probe has moved them; the probe that moves nothing gives
    ``bound_parts``.
    """

    def __init__(self, gcc: GlobalCardinality, domains: Sequence[set[int]]):
        self.gcc = gcc
        self.domains = domains
        self.counts = counts = Counter()  # bound positions per value
        self.holders = holders = Counter()  # positions per value
        self.held_by = held_by = {}  # rows of each value's unbound holders
        self.unbound = unbound = []  # the unbound positions, one per row
        for k, dom in enumerate(domains):
            holders.update(dom)
            if len(dom) == 1:
                counts.update(dom)
                continue
            for d in dom:
                held_by.setdefault(d, []).append(len(unbound))
            unbound.append(k)
        self.required = {d for d, l in gcc.lower.items() if l > 0}
        self.low = low = {}
        self.cap = cap = {}  # u'_d - l'_d
        for d in set(holders) | self.required:
            low[d], cap[d] = gcc._residual(d, counts[d])
        self.bad = [d for d, c in cap.items() if c < 0]  # residual bounds cross
        self.total_low = sum(low.values())
        self.n_cols = sum(cap.values())
        # values whose term of the log denominator can be nonzero:
        # lgamma(1) and lgamma(2) are 0.0
        self.heavy = [d for d, l in low.items() if l > 1]
        self.low_rows = [sum(low[d] for d in domains[k]) for k in unbound]
        self.cap_rows = [sum(cap[d] for d in domains[k]) for k in unbound]

    def root_parts(self) -> tuple[float, float, float]:
        if self.bad:
            return -math.inf, -math.inf, 0.0
        return self.parts({}, [], 0)

    def parts(
        self, changed: dict[int, tuple[int, int]], gone: list[int], dropped: int
    ) -> tuple[float, float, float]:
        """``bound_parts`` of the rows once each value e in ``changed`` has
        the residual bounds ``changed[e]``, the rows ``gone`` have left,
        and values holding ``dropped`` residual columns have dropped out.

        With K the rows left over once every l' is met, the lower graph
        gets K fake columns, and the residual graph keeps the K largest
        rows plus one fake row per column beyond K."""
        low, cap, held_by = self.low, self.cap, self.held_by
        sum_low = self.total_low
        cols = self.n_cols - dropped
        lows = self.low_rows.copy()
        caps = self.cap_rows.copy()
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
        K = len(lows) - sum_low  # rows left over once every l' is met
        if K < 0:
            return -math.inf, -math.inf, 0.0
        denom = math.fsum(
            math.lgamma(l + 1)
            for l in (changed[e][0] if e in changed else low[e] for e in self.heavy)
            if l > 1
        )
        # lower graph: one column per required occurrence + K fake columns
        if sum_low == 0:
            lower_log = 0.0
        else:
            # sorted, as the bound depends on the multiset of rows alone,
            # so probes that leave the same rows share one memo entry
            rows = tuple(sorted([r + K for r in lows]))
            if 0 in rows:
                return -math.inf, -math.inf, denom
            lower_log = padded_log_bound(rows, K)
        # residual graph: u'-l' copies per value; the K largest rows kept
        if K == 0:
            return lower_log, 0.0, denom
        caps.sort(reverse=True)
        if cols < K or caps[K - 1] == 0:
            return lower_log, -math.inf, denom
        pad = cols - K  # fake rows
        upper_log = padded_log_bound(tuple(caps[:K] + [cols] * pad), pad)
        return lower_log, upper_log, denom

    def probes(self, i: int, values: list[int]) -> list[float]:
        """The score of each probe x_i = d, d in ``values``: the log bound
        once forward checking has applied it.  Position i leaves the rows
        and d's count rises by one; when d reaches its upper bound it
        leaves the other unbound domains, binding those with one other
        value; values only position i held drop out.  The rows holding a
        changed value move by its change in l' and u' - l'.  These are
        the rows, in order, that ``bound_parts`` builds on
        ``_probe_domains``, so every float is the same (Zanarini &
        Pesant, Constraints 14(3), 2009)."""
        domains, unbound, held_by = self.domains, self.unbound, self.held_by
        counts, cap, bad = self.counts, self.cap, self.bad
        residual, high = self.gcc._residual, self.gcc.high
        row_i = unbound.index(i)
        # values only position i holds and no lower bound keeps: they
        # drop out when i is bound to another value
        alone = {d for d in domains[i] if self.holders[d] == 1} - self.required
        alone_cols = sum(cap[d] for d in alone)

        def probe(d: int) -> float:
            if bad and any(e == d or e not in alone for e in bad):
                return -math.inf
            c = counts[d] + 1
            changed = {d: residual(d, c)}
            if changed[d][1] < 0:
                return -math.inf
            gone = [row_i]
            if c == high(d):
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
                    changed[e] = residual(e, counts[e] + n)
                    if changed[e][1] < 0:
                        return -math.inf
            dropped = alone_cols - (cap[d] if d in alone else 0)
            lower_log, upper_log, denom = self.parts(changed, gone, dropped)
            return lower_log + upper_log - denom

        return list(map(probe, values))

