"""The benchmark's search jobs, built from a seed through the public API.

A workload is a fixed list of jobs.  Each job generates one instance,
builds its model, makes a heuristic and runs ``dfs`` under a backtrack
cap, so the work a job does is deterministic.  ``jobs_for(workload,
seed)`` maps the benchmark seed to disjoint ranges of instance seeds.

Instance hardness varies a lot from one instance seed to the next near
the quasigroup phase transition: at order 30 one job solves in 160
nodes and the next runs 460 nodes into a cap of 300, and nodes deep in
a failing subtree cost more than nodes on the first dive.  So the qwh
workloads run many order-25 instances under a cap of 5 backtracks: each
job is a dive plus a few failures, and a run's figures average over
enough instances to be comparable across benchmark seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from countsearch import SAT, GlobalCardinality, Model, Regular, make_heuristic
from countsearch.bench import (
    BREAK,
    build_model,
    generate_marketsplit,
    generate_qwh,
    generate_rostering,
    rostering_dfa,
)

#: backtracks after which a job stops; reaching it is a normal outcome
QWH_CAP = 5
GRAPH_CAP = 300

QWH_ORDER = 25
QWH_HOLES = 0.42
ROSTER_EMPLOYEES = 10
ROSTER_PERIODS = 24
MARKETSPLIT_ROWS = 3


@dataclass(frozen=True)
class Job:
    family: str  # "qwh", "roster" or "marketsplit"
    instance_seed: int
    heuristic: str
    cap: int

    @property
    def name(self) -> str:
        return f"{self.family}-s{self.instance_seed}/{self.heuristic}"

    def build(self) -> "Built":
        """Generate the instance, build the model and make the heuristic."""
        if self.family == "qwh":
            instance = generate_qwh(QWH_ORDER, QWH_HOLES, self.instance_seed)
            model = build_model(instance)
        elif self.family == "roster":
            instance = generate_rostering(
                ROSTER_EMPLOYEES, ROSTER_PERIODS, seed=self.instance_seed
            )
            model = roster_gcc_model(instance.payload)
        elif self.family == "marketsplit":
            instance = generate_marketsplit(MARKETSPLIT_ROWS, self.instance_seed)
            model = build_model(instance)
        else:
            raise ValueError(f"unknown job family {self.family!r}")
        heuristic = make_heuristic(self.heuristic, model)
        return Built(self, instance.payload, model, heuristic, instance.status == SAT)


@dataclass
class Built:
    job: Job
    payload: dict
    model: Model
    heuristic: object
    sat_by_construction: bool


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload; disjoint instance seeds for each seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload == "qwh-maxSD":
        return [Job("qwh", s, "maxSD", QWH_CAP) for s in _block(seed, 14)]
    if workload == "qwh-domWDeg":
        return [Job("qwh", s, "domWDeg", QWH_CAP) for s in _block(seed, 32)]
    if workload == "graph-maxSD":
        return [Job("roster", s, "maxSD", GRAPH_CAP) for s in _block(seed, 2)] + [
            Job("marketsplit", s, "maxSD", GRAPH_CAP) for s in _block(seed, 2)
        ]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


WORKLOADS = ("qwh-maxSD", "qwh-domWDeg", "graph-maxSD")

#: seconds one pass over a workload's jobs typically takes on a shared
#: 2-core x86-64 machine under CPython 3.11
PASS_SECONDS = {"qwh-maxSD": 15.4, "qwh-domWDeg": 9.6, "graph-maxSD": 10.5}


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run makes: as many as typically fill ``seconds``, at least 2.

    The count depends on ``seconds`` only, not on how fast the machine
    happens to be, so every run takes each minimum over as many samples.
    """
    return max(2, round(seconds / PASS_SECONDS[workload]))


def _block(seed: int, n: int) -> range:
    return range(n * seed, n * seed + n)


def roster_gcc_model(payload: dict) -> Model:
    """Rostering with a cardinality constraint on each period.

    Rows are ``Regular(rostering_dfa(t))`` as in ``bench.build_model``;
    each column is a ``GlobalCardinality`` that lets every task appear at
    most once and the break value any number of times.  The generator's
    constant-task schedule satisfies both, so the instance stays sat.
    """
    e, p, t = payload["employees"], payload["periods"], payload["tasks"]
    grid = payload["grid"]
    m = Model()
    values = set(range(0, t + 1))
    cells = [
        [
            m.new_variable({grid[i][j]} if grid[i][j] >= 0 else values, f"e{i}_p{j}")
            for j in range(p)
        ]
        for i in range(e)
    ]
    dfa = rostering_dfa(t)
    for i in range(e):
        m.add(Regular(cells[i], dfa))
    upper = {d: 1 for d in range(1, t + 1)}
    upper[BREAK] = e
    for j in range(p):
        m.add(GlobalCardinality([cells[i][j] for i in range(e)], {}, upper))
    return m


def marketsplit_has_solution(payload: dict) -> bool:
    """Exact feasibility of a 0/1 market split, by meet in the middle.

    Independent of the solver: enumerates each half of the columns and
    looks up the complementary row sums.
    """
    n, rows = payload["n"], payload["rows"]
    half = n // 2

    def sums(columns: range) -> set[tuple[int, ...]]:
        out = set()
        for bits in itertools.product((0, 1), repeat=len(columns)):
            out.add(
                tuple(
                    sum(c[j] for j, b in zip(columns, bits) if b) for c, _ in rows
                )
            )
        return out

    right = sums(range(half, n))
    for left in sums(range(half)):
        if tuple(rhs - s for (_, rhs), s in zip(rows, left)) in right:
            return True
    return False


def expected_sat(built: Built) -> Optional[bool]:
    """True/False when satisfiability is known independently of search."""
    if built.sat_by_construction:
        return True
    if built.job.family == "marketsplit":
        return marketsplit_has_solution(built.payload)
    return None
