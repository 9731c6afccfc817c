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
    """Pruned layered graph for one regular constraint.

    ``layers[i]`` maps each surviving state at depth i to the list of
    outgoing arcs ``(value, next_state)``.  ``ip``/``op`` hold the
    number of layer-0 to layer-i (resp. layer-i to layer-k) paths per
    vertex, as exact integers.
    """

    def __init__(self, k: int):
        self.k = k
        self.layers: list[dict[object, list[tuple[int, object]]]] = [
            {} for _ in range(k + 1)
        ]
        self.ip: list[dict[object, int]] = [{} for _ in range(k + 1)]
        self.op: list[dict[object, int]] = [{} for _ in range(k + 1)]
        self.count = 0

    def supported_values(self, i: int) -> set[int]:
        """Values carried by at least one surviving arc at layer i."""
        return {d for arcs in self.layers[i].values() for (d, _) in arcs}

    def arc_weights(self, i: int) -> dict[int, int]:
        """For each value at layer i, the number of paths through its arcs."""
        weights: dict[int, int] = {}
        for state, arcs in self.layers[i].items():
            inc = self.ip[i][state]
            for d, nxt in arcs:
                weights[d] = weights.get(d, 0) + inc * self.op[i + 1][nxt]
        return weights


def build_layered_graph(
    automaton: Automaton, domains: Sequence[set[int]]
) -> LayeredGraph:
    """Forward/backward construction of the pruned layered graph.

    Keeps only vertices on at least one accepting path; computes exact
    path counts.  ``graph.count == 0`` signals wipeout.
    """
    k = len(domains)
    graph = LayeredGraph(k)

    # forward pass: reachable states per layer
    reachable: list[set[object]] = [set() for _ in range(k + 1)]
    reachable[0].add(automaton.initial)
    for i, dom in enumerate(domains):
        for state in reachable[i]:
            for d in dom:
                nxt = automaton.step(state, d)
                if nxt is not None:
                    reachable[i + 1].add(nxt)

    # backward pass: keep vertices that reach an accepting final state
    alive: list[set[object]] = [set() for _ in range(k + 1)]
    alive[k] = reachable[k] & automaton.accepting
    for i in range(k - 1, -1, -1):
        dom = domains[i]
        for state in reachable[i]:
            arcs = []
            for d in dom:
                nxt = automaton.step(state, d)
                if nxt is not None and nxt in alive[i + 1]:
                    arcs.append((d, nxt))
            if arcs:
                alive[i].add(state)
                graph.layers[i][state] = arcs
    for state in alive[k]:
        graph.layers[k][state] = []
    if automaton.initial not in alive[0]:
        graph.count = 0
        return graph

    # path counts
    graph.ip[0] = {automaton.initial: 1}
    for i in range(k):
        nxt_ip: dict[object, int] = {}
        for state, arcs in graph.layers[i].items():
            inc = graph.ip[i].get(state, 0)
            if inc == 0:
                continue
            for _, nxt in arcs:
                nxt_ip[nxt] = nxt_ip.get(nxt, 0) + inc
        graph.ip[i + 1] = nxt_ip
    graph.op[k] = {state: 1 for state in graph.layers[k]}
    for i in range(k - 1, -1, -1):
        cur_op: dict[object, int] = {}
        for state, arcs in graph.layers[i].items():
            total = 0
            for _, nxt in arcs:
                total += graph.op[i + 1].get(nxt, 0)
            cur_op[state] = total
        graph.op[i] = cur_op
    graph.count = graph.op[0].get(automaton.initial, 0)
    return graph


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

    def _domains(self, model: Model) -> list[set[int]]:
        return [model._domains[v.index] for v in self.scope]

    def propagate(self, model: Model) -> bool:
        domains = self._domains(model)
        graph = build_layered_graph(self.automaton, domains)
        if graph.count == 0:
            return False
        for i, var in enumerate(self.scope):
            supported = graph.supported_values(i)
            for d in list(domains[i]):
                if d not in supported:
                    if not model.remove_value(var, d, self):
                        return False
        return True

    def count_densities(self, model: Model) -> DensityTable:
        domains = self._domains(model)
        graph = build_layered_graph(self.automaton, domains)
        densities: dict[tuple[int, int], float] = {}
        if graph.count == 0:
            for i, var in enumerate(self.scope):
                for d in domains[i]:
                    densities[(var.index, d)] = 0.0
            return DensityTable(self, -math.inf, densities)
        total = graph.count
        for i, var in enumerate(self.scope):
            weights = graph.arc_weights(i)
            layer_total = sum(weights.values())
            for d in domains[i]:
                w = weights.get(d, 0)
                densities[(var.index, d)] = w / layer_total if layer_total else 0.0
        return DensityTable(self, math.log(total), densities)
