"""Regular-language membership constraint over a fixed-length sequence.

Filtering and counting both work on a layered acyclic graph: layer i
holds the automaton states reachable after reading i symbols, and arcs
carry (variable, value) labels.  Every layer-0-to-layer-k path through
the pruned graph corresponds to exactly one accepted tuple, so exact
solution counts and per-pair solution densities come from incoming and
outgoing path counts at each arc.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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
        states = {initial} | self.accepting
        for (q, _), q2 in self.transitions.items():
            states.add(q)
            states.add(q2)
        self.states = frozenset(states)

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
    """Pruned layered graph shared by ``Regular`` and exact ``Knapsack``.

    ``layers[i]`` maps each surviving vertex at depth i to the list of
    outgoing arcs ``(value, next_vertex)``.  The builders keep only
    vertices that reach the last layer, and every vertex is reached from
    ``start`` unless ``start`` itself was pruned.  ``ip``/``op`` hold the
    number of layer-0 to layer-i (resp. layer-i to layer-k) paths per
    vertex, as exact integers; ``count`` is the number of paths, each one
    an accepted tuple.  ``count == 0`` signals wipeout.
    """

    def __init__(
        self, layers: list[dict[object, list[tuple[int, object]]]], start: object
    ):
        k = len(layers) - 1
        self.layers = layers
        self.ip: list[dict[object, int]] = [{} for _ in range(k + 1)]
        self.op: list[dict[object, int]] = [{} for _ in range(k + 1)]
        self.count = 0
        if start not in layers[0]:
            return
        self.ip[0] = {start: 1}
        for i in range(k):
            acc: dict[object, int] = {}
            for v, arcs in layers[i].items():
                inc = self.ip[i][v]
                for _, nxt in arcs:
                    acc[nxt] = acc.get(nxt, 0) + inc
            self.ip[i + 1] = acc
        self.op[k] = {v: 1 for v in layers[k]}
        for i in range(k - 1, -1, -1):
            nxt_op = self.op[i + 1]
            self.op[i] = {
                v: sum(nxt_op[nxt] for _, nxt in arcs)
                for v, arcs in layers[i].items()
            }
        self.count = self.op[0][start]

    def supported_values(self, i: int) -> set[int]:
        """Values carried by at least one surviving arc at layer i."""
        return {d for arcs in self.layers[i].values() for (d, _) in arcs}

    def arc_weights(self, i: int) -> dict[int, int]:
        """For each value at layer i, the number of paths through its arcs."""
        weights: dict[int, int] = {}
        for v, arcs in self.layers[i].items():
            inc = self.ip[i][v]
            for d, nxt in arcs:
                weights[d] = weights.get(d, 0) + inc * self.op[i + 1][nxt]
        return weights

    def filter(
        self, constraint: Constraint, model: Model, domains: Sequence[set[int]]
    ) -> bool:
        """Remove every scope value no surviving arc carries (domain
        consistency); False on wipeout."""
        if self.count == 0:
            return False
        for i, var in enumerate(constraint.scope):
            supported = self.supported_values(i)
            for d in list(domains[i]):
                if d not in supported:
                    if not model.remove_value(var, d, constraint):
                        return False
        return True

    def density_table(
        self, constraint: Constraint, domains: Sequence[set[int]]
    ) -> DensityTable:
        """Exact count and per-pair densities.  Every path crosses each
        layer once, so each layer's arc weights sum to ``count``."""
        if self.count == 0:
            zeros = {
                (var.index, d): 0.0
                for var, dom in zip(constraint.scope, domains)
                for d in dom
            }
            return DensityTable(constraint, -math.inf, zeros)
        densities: dict[tuple[int, int], float] = {}
        for i, var in enumerate(constraint.scope):
            weights = self.arc_weights(i)
            for d in domains[i]:
                densities[(var.index, d)] = weights.get(d, 0) / self.count
        return DensityTable(constraint, math.log(self.count), densities)


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


class Regular(Constraint):
    """The word (x_1 ... x_k) must be accepted by the automaton."""

    supports_counting = True

    def __init__(
        self,
        scope: Sequence[Variable],
        automaton: Automaton,
        consistency: str = DOMAIN,
    ):
        super().__init__(scope, consistency)
        self.automaton = automaton

    def name(self) -> str:
        return "regular"

    def check(self, values: Sequence[int]) -> bool:
        return self.automaton.accepts(values)

    def propagate(self, model: Model) -> bool:
        domains = self._domains(model)
        graph = build_layered_graph(self.automaton, domains)
        return graph.filter(self, model, domains)

    def count_densities(self, model: Model) -> DensityTable:
        domains = self._domains(model)
        graph = build_layered_graph(self.automaton, domains)
        return graph.density_table(self, domains)
