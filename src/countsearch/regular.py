"""Regular-language membership constraint over a fixed-length sequence.

Filtering and counting both work on a layered acyclic graph: layer i
holds the automaton states reachable after reading i symbols, and arcs
carry (variable, value) labels.  Every layer-0-to-layer-k path through
the pruned graph corresponds to exactly one accepted tuple, so exact
solution counts and per-pair solution densities come from incoming and
outgoing path counts at each arc.  The graph is built once per model and
then follows the domains by trailed arc deletion (Pesant, CP 2004).

``layered_graph`` is the one builder, a forward reach and a backward
prune over any successor function; ``build_layered_graph`` steps the
automaton, and exact ``Knapsack``'s ``build_sum_graph`` adds a
coefficient times the value to a partial sum.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .engine import DOMAIN, Constraint, DensityTable, Model, Variable


class Automaton:
    """Deterministic finite automaton with a partial transition function.

    ``transitions`` maps ``(state, symbol)`` to the successor state.
    States may be any hashable objects; symbols are the integer values
    the constrained variables range over.  ``arcs`` lists each state's
    out-arcs ``(symbol, next_state)`` in the order of ``transitions``; a
    state without out-arcs has no entry.
    """

    def __init__(
        self,
        transitions: dict[tuple[object, int], object],
        initial: object,
        accepting: Sequence[object],
    ):
        self.transitions = dict(transitions)
        self.arcs: dict[object, list[tuple[int, object]]] = {}
        for (state, symbol), nxt in self.transitions.items():
            self.arcs.setdefault(state, []).append((symbol, nxt))
        self.initial = initial
        self.accepting = frozenset(accepting)

    def accepts(self, word: Sequence[int]) -> bool:
        state = self.initial
        for symbol in word:
            state = self.transitions.get((state, symbol))
            if state is None:
                return False
        return state in self.accepting


#: entry i is the int object i: every int a graph's vertex, slot and arc
#: lists hold is one of these, so the graphs own no int objects of their
#: own; grown on demand, never shrunk
_INTS: list[int] = []


def shared_ints(n: int) -> list[int]:
    """The shared int objects, grown to hold 0 .. n - 1 at least."""
    if len(_INTS) < n:
        _INTS.extend(range(len(_INTS), n))
    return _INTS


class LayeredGraph:
    """Trailed layered graph shared by ``Regular`` and exact ``Knapsack``.

    Built once from ``layers``, where ``layers[i]`` maps each vertex at
    depth i to its outgoing arcs ``(value, next_vertex)``;
    ``layered_graph`` keeps only vertices on at least one
    start-to-last-layer path.  The graph then follows shrinking domains
    by deleting arcs (``sync``, which lists them for the caller's trail)
    and is restored by reviving them (``undo``).

    Storage is flat.  Vertices are numbered layer by layer, the last
    layer's from ``final`` on.  Arcs are sorted by (layer, value), so
    slot s, the arcs of one value at one layer, is the arc range
    ``slot_start[s]:slot_start[s + 1]``; ``slot_index[i]`` maps each
    value at layer i to its slot, in ascending order of both.  Each
    slot's arcs also form a sparse set (Briggs & Torczon, 1993): ``order``
    lists them in that range with the live ones first, ``where`` gives
    each arc's position in ``order``, and ``support[s]`` counts the live
    arcs of slot s, so they are ``order[slot_start[s]:slot_start[s] +
    support[s]]``, and an arc is live exactly when ``where`` puts it
    there.  ``outdeg``/``indeg`` count the live arcs of each vertex.
    ``out_arcs``/``in_arcs`` are the arcs of each vertex, vertex v's in
    ``out_ptr[v]:out_ptr[v + 1]`` (resp. ``in_ptr``).  The vertex, slot
    and arc ids and the positions these lists hold are ``shared_ints``
    objects, and ``sync`` stores only objects already in them, so
    reading an id allocates nothing and no graph owns ints of its own.
    """

    def __init__(
        self, layers: list[dict[object, list[tuple[int, object]]]], start: object
    ):
        k = len(layers) - 1
        self.k = k
        n = sum(map(len, layers))
        n_arcs = sum(len(out) for layer in layers[:k] for out in layer.values())
        ints = shared_ints(max(n, n_arcs + 1))
        ids: list[dict[object, int]] = []
        first = 0
        for layer in layers:
            ids.append(dict(zip(layer, ints[first : first + len(layer)])))
            first += len(layer)
        self.start = ids[0].get(start, -1)
        self.final = n - len(layers[k])
        src: list[int] = []
        dst: list[int] = []
        slot: list[int] = []
        self.slot_index: list[dict[int, int]] = []
        self.slot_start = [ints[0]]
        for i in range(k):
            here, there = ids[i], ids[i + 1]
            by_value: dict[int, list[tuple[int, int]]] = {}
            for v, arcs in layers[i].items():
                for d, nxt in arcs:
                    by_value.setdefault(d, []).append((here[v], there[nxt]))
            index = {}
            for d in sorted(by_value):
                s = index[d] = ints[len(self.slot_start) - 1]
                for u, w in by_value[d]:
                    src.append(u)
                    dst.append(w)
                    slot.append(s)
                self.slot_start.append(ints[len(src)])
            self.slot_index.append(index)
        self.src, self.dst, self.slot = src, dst, slot
        self.out_ptr, self.out_arcs, self.outdeg = _csr(src, n)
        self.in_ptr, self.in_arcs, self.indeg = _csr(dst, n)
        starts = self.slot_start
        self.support = [b - a for a, b in zip(starts, starts[1:])]
        self.order = ints[:n_arcs]
        self.where = ints[:n_arcs]

    # ------------------------------------------------------------------
    # arc deletion and revival
    # ------------------------------------------------------------------
    def sync(self, domains: Sequence[set[int]]) -> list[int]:
        """Delete the arcs whose value left its layer's domain, then every
        arc no longer on a start-to-last-layer path; returns the arcs
        deleted, in order.

        The first step walks only the live prefix of each such slot.  The
        second is a cascade over an explicit worklist: a vertex whose
        out-degree (in-degree) drops to 0 loses its live in-arcs
        (out-arcs).  Each arc dies by a swap with the last live arc of its
        slot, and the slot's live prefix then ends before it.
        """
        support, slot_start, order = self.support, self.slot_start, self.order
        pending: list[list[int]] = []
        for index, dom in zip(self.slot_index, domains):
            for d, s in index.items():
                if support[s] and d not in dom:
                    lo = slot_start[s]
                    pending.append(order[lo : lo + support[s]])
        deleted: list[int] = []
        if not pending:
            return deleted
        slot, where = self.slot, self.where
        src, dst, outdeg, indeg = self.src, self.dst, self.outdeg, self.indeg
        out_ptr, out_arcs, in_ptr, in_arcs = (
            self.out_ptr, self.out_arcs, self.in_ptr, self.in_arcs
        )
        while pending:
            for a in pending.pop():
                s = slot[a]
                p = where[a]
                last = slot_start[s] + support[s] - 1
                if p <= last:  # else it died earlier in this sync
                    deleted.append(a)
                    support[s] -= 1
                    b = order[last]
                    order[p] = b
                    order[last] = a
                    where[a] = where[b]  # last, as the shared int
                    where[b] = p
                    u = src[a]
                    outdeg[u] -= 1
                    if not outdeg[u] and indeg[u]:
                        pending.append(in_arcs[in_ptr[u] : in_ptr[u + 1]])
                    w = dst[a]
                    indeg[w] -= 1
                    if not indeg[w] and outdeg[w]:
                        pending.append(out_arcs[out_ptr[w] : out_ptr[w + 1]])
        return deleted

    def undo(self, deleted: list[int]) -> None:
        """Revive the arcs ``sync`` returned as ``deleted``, last deleted
        first.  Each one sits just past its slot's live prefix, where its
        deletion left it, so growing the prefix revives it."""
        support, slot = self.support, self.slot
        src, dst, outdeg, indeg = self.src, self.dst, self.outdeg, self.indeg
        for a in reversed(deleted):
            support[slot[a]] += 1
            outdeg[src[a]] += 1
            indeg[dst[a]] += 1

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def empty(self) -> bool:
        """No start-to-last-layer path is left."""
        return self.start < 0 or (self.k > 0 and not self.outdeg[self.start])

    def path_counts(self) -> tuple[int, list[int]]:
        """The number of start-to-last-layer paths over the live arcs, each
        one an accepted tuple, and per slot the number of those paths
        through its arcs, as exact integers from the incoming (``ip``) and
        outgoing (``op``) path counts of each vertex.  Slots are numbered
        layer by layer, so ``ip`` follows them forward and ``op`` backward,
        each over the slot's live prefix alone."""
        support = self.support
        weights = [0] * len(support)
        if self.start < 0:
            return 0, weights
        src, dst, order, slot_start = self.src, self.dst, self.order, self.slot_start
        n = len(self.outdeg)
        ip = [0] * n
        ip[self.start] = 1
        for lo, m in zip(slot_start, support):
            if m:
                for a in order[lo : lo + m]:
                    ip[dst[a]] += ip[src[a]]
        op = [0] * self.final + [1] * (n - self.final)
        for s in range(len(support) - 1, -1, -1):
            m = support[s]
            if m:
                lo = slot_start[s]
                total = 0
                for a in order[lo : lo + m]:
                    u = src[a]
                    x = op[dst[a]]
                    op[u] += x
                    total += ip[u] * x
                weights[s] = total
        return op[self.start], weights


def _csr(ends: list[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """Compressed adjacency of the arcs by one endpoint: the pointers, the
    arcs grouped by endpoint, and each vertex's arc count."""
    deg = [0] * n
    for v in ends:
        deg[v] += 1
    ints = shared_ints(len(ends) + 1)
    ptr = [ints[p] for p in accumulate(deg, initial=0)]
    arcs = sorted(ints[: len(ends)], key=ends.__getitem__)
    return ptr, arcs, deg


class GraphConstraint(Constraint):
    """A constraint that filters and counts on one ``LayeredGraph``.

    The graph is built by ``build_graph`` from the live domains at the
    first ``synced_graph`` call, then synced to the domains by arc
    deletion at every later call.  The build and each sync that deletes
    arcs go on the model's trail, so backtracking revives the arcs, and
    backtracking past the build's level drops the graph.  A constraint
    serves one model: ``Model.add`` posts it once.
    """

    supports_counting = True

    def __init__(self, scope: Sequence[Variable], consistency: str = DOMAIN):
        super().__init__(scope, consistency)
        self._graph: Optional[LayeredGraph] = None

    def build_graph(self, domains: Sequence[set[int]]) -> LayeredGraph:
        raise NotImplementedError

    def synced_graph(self, model: Model) -> tuple[LayeredGraph, list[set[int]]]:
        """The graph in step with the live domains, and those domains."""
        domains = self._domains(model)
        graph = self._graph
        if graph is None:
            graph = self._graph = self.build_graph(domains)
            model.trail_undo(self._drop_graph, graph)
        else:
            deleted = graph.sync(domains)
            if deleted:
                model.trail_undo(graph.undo, deleted)
        return graph, domains

    def _drop_graph(self, graph: LayeredGraph) -> None:
        self._graph = None

    def graph_filter(self, model: Model) -> bool:
        """Remove every scope value no live arc carries (domain
        consistency), in scope order, then domain iteration order; False
        on wipeout."""
        graph, domains = self.synced_graph(model)
        if graph.empty():
            return False
        support = graph.support
        for var, index, dom in zip(self.scope, graph.slot_index, domains):
            for d in list(dom):
                s = index.get(d)
                if s is None or not support[s]:
                    if not model.remove_value(var, d, self):
                        return False
        return True

    def graph_densities(self, model: Model) -> DensityTable:
        """Exact count and per-pair densities from the synced graph.  Every
        path crosses each layer once, so each layer's slot weights sum to
        the count."""
        graph, domains = self.synced_graph(model)
        count, weights = graph.path_counts()
        if count == 0:
            zeros = {
                (var.index, d): 0.0 for var, dom in zip(self.scope, domains) for d in dom
            }
            return DensityTable(self, -math.inf, zeros)
        densities: dict[tuple[int, int], float] = {}
        for index, var, dom in zip(graph.slot_index, self.scope, domains):
            vi = var.index
            for d in dom:
                s = index.get(d)
                densities[vi, d] = (0 if s is None else weights[s]) / count
        return DensityTable(self, math.log(count), densities)


def layered_graph(
    start: object,
    successors: Callable[[int, object, set[int]], list[tuple[int, object]]],
    accept: Callable[[object], bool],
    domains: Sequence[set[int]],
) -> LayeredGraph:
    """The layered graph of the paths from ``start`` through one layer per
    domain to a vertex ``accept`` takes, pruned to the vertices on such a
    path (Pesant, CP 2004; Trick, CPAIOR 2003).

    ``successors(i, v, dom)`` lists the arcs ``(value, next_vertex)`` out
    of vertex v at depth i over the values of ``dom``.  The forward pass
    calls it once per reachable vertex; the backward pass keeps the arcs
    into kept vertices and each vertex with one left.
    """
    reached: list[dict[object, list[tuple[int, object]]]] = []
    frontier = {start}
    for i, dom in enumerate(domains):
        arcs = {v: successors(i, v, dom) for v in frontier}
        reached.append(arcs)
        frontier = {w for out in arcs.values() for _, w in out}
    layers = [{v: [] for v in frontier if accept(v)}]
    for arcs in reversed(reached):
        keep = layers[-1]
        layer = {}
        for v, out in arcs.items():
            live = [a for a in out if a[1] in keep]
            if live:
                layer[v] = live
        layers.append(layer)
    layers.reverse()
    return LayeredGraph(layers, start)


def build_layered_graph(
    automaton: Automaton, domains: Sequence[set[int]]
) -> LayeredGraph:
    """The pruned layered graph over the automaton's states.

    A state's successors are its ``Automaton.arcs`` whose symbol the
    layer's domain holds.  They come in the automaton's order, not the
    domain's, which renumbers only the graph's insides: counts and
    weights are exact integers, and filtering removes values in scope
    order.
    """
    arcs = automaton.arcs

    def successors(i: int, state: object, dom: set[int]) -> list[tuple[int, object]]:
        return [a for a in arcs.get(state, ()) if a[0] in dom]

    accept = automaton.accepting.__contains__
    return layered_graph(automaton.initial, successors, accept, domains)


class Regular(GraphConstraint):
    """The word (x_1 ... x_k) must be accepted by the automaton."""

    def __init__(
        self,
        scope: Sequence[Variable],
        automaton: Automaton,
        consistency: str = DOMAIN,
    ):
        super().__init__(scope, consistency)
        self.automaton = automaton
        # filtering is idempotent only when no variable fills two layers:
        # removing its value at one layer changes the other layer
        self.idempotent = not self.repeats()

    def name(self) -> str:
        return "regular"

    def check(self, values: Sequence[int]) -> bool:
        return self.automaton.accepts(values)

    def build_graph(self, domains: Sequence[set[int]]) -> LayeredGraph:
        return build_layered_graph(self.automaton, domains)

    def propagate(self, model: Model) -> bool:
        return self.graph_filter(model)

    def count_densities(self, model: Model) -> DensityTable:
        return self.graph_densities(model)
