"""Constraint solver kernel with solution-counting branching heuristics."""

from .alldiff import AllDifferent, SymmetricAllDifferent
from .engine import (
    CONSISTENT,
    DOMAIN,
    FORWARD_CHECKING,
    WIPEOUT,
    Constraint,
    DensityTable,
    Model,
    Variable,
)
from .gcc import GlobalCardinality
from .heuristics import HEURISTIC_NAMES, Heuristic, make_heuristic
from .knapsack import EXACT, GAUSSIAN, Knapsack
from .regular import Automaton, Regular
from .search import SAT, TIMEOUT, UNSAT, SearchStats, dfs, lds, restart_search

__all__ = [
    "AllDifferent",
    "Automaton",
    "CONSISTENT",
    "Constraint",
    "DensityTable",
    "DOMAIN",
    "EXACT",
    "FORWARD_CHECKING",
    "GAUSSIAN",
    "GlobalCardinality",
    "Heuristic",
    "HEURISTIC_NAMES",
    "Knapsack",
    "Model",
    "Regular",
    "SAT",
    "SearchStats",
    "SymmetricAllDifferent",
    "TIMEOUT",
    "UNSAT",
    "Variable",
    "WIPEOUT",
    "dfs",
    "lds",
    "make_heuristic",
    "restart_search",
]

__version__ = "0.1.0"
