"""Regular-language membership constraint over a fixed-length sequence.

Filtering and counting both work on a layered acyclic graph: layer i
holds the automaton states reachable after reading i symbols, and arcs
carry (variable, value) labels.  Every layer-0-to-layer-k path through
the pruned graph corresponds to exactly one accepted tuple, so exact
solution counts and per-pair solution densities come from incoming and
outgoing path counts at each arc.  The graph is built once per model and
then follows the domains by trailed arc deletion (Pesant, CP 2004).
"""

from __future__ import annotations

import math
from array import array
from itertools import compress
from typing import Iterable, Optional, Sequence

from .engine import DOMAIN, Constraint, DensityTable, Model, Variable


class Automaton:
    """Deterministic finite automaton with a partial transition function.

    ``transitions`` maps ``(state, symbol)`` to the successor state.
    States may be any hashable objects; symbols are the integer values
    the constrained variables range over.
    """

    def __init__(
        self,
        transitions: dict[tuple[object, int], object],
        initial: object,
        accepting: Sequence[object],
    ):
        self.transitions = dict(transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)

    def step(self, state: object, symbol: int) -> Optional[object]:
        return self.transitions.get((state, symbol))

    def accepts(self, word: Sequence[int]) -> bool:
        state = self.initial
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return False
        return state in self.accepting


class LayeredGraph:
    """Trailed layered graph shared by ``Regular`` and exact ``Knapsack``.

    Built once from ``layers``, where ``layers[i]`` maps each vertex at
    depth i to its outgoing arcs ``(value, next_vertex)``; the builders
    keep only vertices on at least one start-to-last-layer path.  The
    graph is then kept in step with shrinking domains by deleting arcs
    (``sync``) and restored by reviving them (``undo``).

    Storage is flat.  Vertices are numbered layer by layer, the last
    layer's from ``final`` on.  Arcs are sorted by (layer, value), so
    slot s, the arcs of value ``values[s]`` at one layer, is the arc
    range ``slot_start[s]:slot_start[s + 1]``, and layer i's slots are
    ``layer_slot[i]:layer_slot[i + 1]``.  ``support[s]`` counts the live
    arcs of slot s, ``outdeg``/``indeg`` the live arcs of each vertex;
    ``alive`` flags each arc and ``log`` lists the deleted arcs in
    order.  ``out_arcs``/``in_arcs`` are the arcs of each vertex,
    vertex v's in ``out_ptr[v]:out_ptr[v + 1]`` (resp. ``in_ptr``).
    """

    def __init__(
        self, layers: list[dict[object, list[tuple[int, object]]]], start: object
    ):
        k = len(layers) - 1
        self.k = k
        if start not in layers[0]:
            layers = [{} for _ in layers]  # no path survives
        ids: list[dict[object, int]] = []
        n = 0
        for layer in layers:
            ids.append({v: n + j for j, v in enumerate(layer)})
            n += len(layer)
        self.start = ids[0].get(start, -1)
        self.final = n - len(layers[k])
        src, dst, slot = array("i"), array("i"), array("i")
        self.values: list[int] = []
        self.slot_index: list[dict[int, int]] = []
        self.slot_start = array("i", [0])
        self.layer_slot = array("i", [0])
        for i in range(k):
            here, there = ids[i], ids[i + 1]
            by_value: dict[int, list[tuple[int, int]]] = {}
            for v, arcs in layers[i].items():
                for d, nxt in arcs:
                    by_value.setdefault(d, []).append((here[v], there[nxt]))
            index = {}
            for d in sorted(by_value):
                s = index[d] = len(self.values)
                self.values.append(d)
                for u, w in by_value[d]:
                    src.append(u)
                    dst.append(w)
                    slot.append(s)
                self.slot_start.append(len(src))
            self.slot_index.append(index)
            self.layer_slot.append(len(self.values))
        self.src, self.dst, self.slot = src, dst, slot
        self.out_ptr, self.out_arcs, self.outdeg = _csr(src, n)
        self.in_ptr, self.in_arcs, self.indeg = _csr(dst, n)
        starts = self.slot_start
        self.support = array("i", [b - a for a, b in zip(starts, starts[1:])])
        self.alive = bytearray(b"\x01") * len(src)
        self.log = array("i")

    # ------------------------------------------------------------------
    # arc deletion and revival
    # ------------------------------------------------------------------
    def sync(self, domains: Sequence[set[int]]) -> bool:
        """Delete the arcs whose value left its layer's domain, then every
        arc no longer on a start-to-last-layer path; True if any arc died.

        The second step is a cascade over an explicit worklist: a vertex
        whose out-degree (in-degree) drops to 0 loses its live in-arcs
        (out-arcs).
        """
        support, values, slot_start = self.support, self.values, self.slot_start
        pending: list[Iterable[int]] = []
        for i, dom in enumerate(domains):
            for s in range(self.layer_slot[i], self.layer_slot[i + 1]):
                if support[s] and values[s] not in dom:
                    pending.append(range(slot_start[s], slot_start[s + 1]))
        if not pending:
            return False
        alive, log, slot = self.alive, self.log, self.slot
        src, dst, outdeg, indeg = self.src, self.dst, self.outdeg, self.indeg
        out_ptr, out_arcs, in_ptr, in_arcs = (
            self.out_ptr, self.out_arcs, self.in_ptr, self.in_arcs
        )
        while pending:
            for a in pending.pop():
                if alive[a]:
                    alive[a] = 0
                    log.append(a)
                    support[slot[a]] -= 1
                    u = src[a]
                    outdeg[u] -= 1
                    if not outdeg[u] and indeg[u]:
                        pending.append(in_arcs[in_ptr[u] : in_ptr[u + 1]])
                    w = dst[a]
                    indeg[w] -= 1
                    if not indeg[w] and outdeg[w]:
                        pending.append(out_arcs[out_ptr[w] : out_ptr[w + 1]])
        return True

    def undo(self, mark: int) -> None:
        """Revive the arcs deleted since ``len(log)`` was ``mark``, last
        deleted first."""
        alive, log, support, slot = self.alive, self.log, self.support, self.slot
        src, dst, outdeg, indeg = self.src, self.dst, self.outdeg, self.indeg
        for a in reversed(log[mark:]):
            alive[a] = 1
            support[slot[a]] += 1
            outdeg[src[a]] += 1
            indeg[dst[a]] += 1
        del log[mark:]

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
        outgoing (``op``) path counts of each vertex."""
        weights = [0] * len(self.values)
        if self.start < 0:
            return 0, weights
        src, dst, slot, alive = self.src, self.dst, self.slot, self.alive
        slot_start, layer_slot = self.slot_start, self.layer_slot
        n = len(self.outdeg)
        ip = [0] * n
        ip[self.start] = 1
        for i in range(self.k):
            lo, hi = slot_start[layer_slot[i]], slot_start[layer_slot[i + 1]]
            for u, w in compress(zip(src[lo:hi], dst[lo:hi]), alive[lo:hi]):
                ip[w] += ip[u]
        op = [0] * self.final + [1] * (n - self.final)
        for i in range(self.k - 1, -1, -1):
            lo, hi = slot_start[layer_slot[i]], slot_start[layer_slot[i + 1]]
            arcs = zip(slot[lo:hi], src[lo:hi], dst[lo:hi])
            for s, u, w in compress(arcs, alive[lo:hi]):
                x = op[w]
                op[u] += x
                weights[s] += ip[u] * x
        return op[self.start], weights

    @property
    def count(self) -> int:
        """Number of accepted tuples; 0 signals wipeout."""
        return self.path_counts()[0]


def _csr(ends: array, n: int) -> tuple[array, array, array]:
    """Compressed adjacency of the arcs by one endpoint: the pointer
    array, the arcs grouped by endpoint, and each vertex's arc count."""
    deg = array("i", [0]) * n
    for v in ends:
        deg[v] += 1
    ptr = array("i", [0]) * (n + 1)
    for v in range(n):
        ptr[v + 1] = ptr[v] + deg[v]
    arcs = array("i", sorted(range(len(ends)), key=ends.__getitem__))
    return ptr, arcs, deg


class GraphConstraint(Constraint):
    """A constraint that filters and counts on one ``LayeredGraph``.

    The graph is built by ``build_graph`` from the live domains at the
    first ``synced_graph`` call, then synced to the domains by arc
    deletion at every later call.  The build and each sync that deletes
    arcs go on the model's trail, so backtracking revives the arcs, and
    backtracking past the build's level drops the graph.  A constraint
    serves one model.
    """

    supports_counting = True

    def __init__(self, scope: Sequence[Variable], consistency: str = DOMAIN):
        super().__init__(scope, consistency)
        self._graph: Optional[LayeredGraph] = None
        # filtering is idempotent only when no variable fills two layers:
        # removing its value at one layer changes the other layer
        self._distinct = len(set(self.scope)) == len(self.scope)

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
            mark = len(graph.log)
            if graph.sync(domains):
                model.trail_undo(graph.undo, mark)
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
        keys = self.density_keys()
        if count == 0:
            zeros = {key[d]: 0.0 for key, dom in zip(keys, domains) for d in dom}
            return DensityTable(self, -math.inf, zeros)
        densities: dict[tuple[int, int], float] = {}
        for index, key, dom in zip(graph.slot_index, keys, domains):
            for d in dom:
                s = index.get(d)
                densities[key[d]] = (0 if s is None else weights[s]) / count
        return DensityTable(self, math.log(count), densities)


def build_layered_graph(
    automaton: Automaton, domains: Sequence[set[int]]
) -> LayeredGraph:
    """Forward/backward construction of the pruned layered graph.

    Keeps only vertices on at least one accepting path.
    """
    k = len(domains)
    step = automaton.step

    # forward pass: reachable states per layer
    reachable: list[set[object]] = [set() for _ in range(k + 1)]
    reachable[0].add(automaton.initial)
    for i, dom in enumerate(domains):
        for state in reachable[i]:
            for d in dom:
                nxt = step(state, d)
                if nxt is not None:
                    reachable[i + 1].add(nxt)

    # backward pass: keep vertices that reach an accepting final state
    layers: list[dict[object, list[tuple[int, object]]]] = [
        {} for _ in range(k + 1)
    ]
    layers[k] = {state: [] for state in reachable[k] & automaton.accepting}
    for i in range(k - 1, -1, -1):
        dom = domains[i]
        alive = layers[i + 1]
        for state in reachable[i]:
            arcs = []
            for d in dom:
                nxt = step(state, d)
                if nxt is not None and nxt in alive:
                    arcs.append((d, nxt))
            if arcs:
                layers[i][state] = arcs
    return LayeredGraph(layers, automaton.initial)


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
        self.idempotent = self._distinct

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
