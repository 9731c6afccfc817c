"""Golden maxSD and domWDeg decisions: the exact picks dfs makes on fixed
instances.

maxSD breaks exact score ties by (variable index, value), so a change in
the last bit of a density can change the search.  These sequences pin
every (variable index, value) decision, and the backtrack count, that
``dfs`` with ``maxSD`` makes on three quasigroup completions (AllDifferent
counting) and two rosters whose columns are ``GlobalCardinality``
constraints (GCC and Regular counting; the second requires four tasks in
every column, so its GCC densities go through the lower-bound graph), and
every decision up to a cap
of 60 backtracks on two market splits, whose searches backtrack through
exact ``Knapsack`` graphs.  The four jobs of perfbench's ``graph-maxSD``
workload at seed 0 (two 10x24 rosters with GCC columns and two market
splits, cap 300) are pinned by status, backtracks, nodes and a digest of
their decisions, and so are the first four jobs of its ``qwh-maxSD``
and ``qwh-domWDeg`` workloads.  A speed-up of the counting kernels or of
filtering must reproduce them unchanged.

domWDeg learns its weights from the constraint each wipeout is blamed on,
so which propagator runs first, and which one empties a domain, steers it.
Its pins add the ``cid`` of every wipeout's cause, on the same quasigroup
completions and on one propagated by forward checking only.  A change to
the propagation queue or to AllDifferent filtering must reproduce them,
and one search's removals: every (variable, value, cause) in order, root
propagation included.
Its weights and kept degrees carry over from one run of a search to the
next, so digest pins of ``restart_search`` and ``lds`` under domWDeg, on a
quasigroup completion and a magic square, fix what it learns across runs.

The other counting rules (maxRelSD, maxRelRatio, aAvgSD, wSCAvg,
minSCMaxSD) and the domWDeg+maxSD and domDeg+maxSD hybrids read the
same density tables and score them differently.  Their pins hold a
digest of the decisions, on a quasigroup completion, the GCC roster and
a magic square whose sums are exact ``Knapsack`` constraints.

``restart_search`` asks for randomized picks, which draw uniformly
between a score heuristic's two best pairs, and ``lds`` branches off the
best pair in discrepancy waves.  Digest pins of both under maxSD,
maxRelSD and minSCMaxSD fix that draw and the order of the pairs.

IBS (``ibs``, and ``ibs+maxSD``, which takes its values from the density
tables) probes every pair at the root and re-probes its best variables
at each pick, and averages each pair's impacts over its probes and the
search's own left branches.  Digest pins under ``dfs``, ``restart_search``
and ``lds``, on a quasigroup completion, both magic squares and a market
split, fix those averages and the picks they steer.

Leaving level 0 replaces the domain sets it shrank with fresh copies,
which may iterate in another order.  So decisions must not depend on the
order a domain set iterates in: models of every constraint kind whose
values collide in small set tables, built once with values inserted in
ascending order and once in descending order, must get the same
decisions and the same wipeout causes under domWDeg and maxSD.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

from countsearch import bench
from countsearch.bench import (
    BREAK,
    apply_overrides,
    build_model,
    generate_magic,
    generate_marketsplit,
    generate_qwh,
    generate_rostering,
    rostering_dfa,
)
from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.engine import Model
from countsearch.gcc import GlobalCardinality
from countsearch.engine import DOMAIN, FORWARD_CHECKING
from countsearch.heuristics import DomWdeg, MaxSD, make_heuristic
from countsearch.knapsack import Knapsack
from countsearch.regular import Automaton, Regular
from countsearch.search import SAT, TIMEOUT, UNSAT, dfs, lds, restart_search

from test_alldiff import _CauseModel


def _qwh(order, seed, consistency=None):
    model = build_model(generate_qwh(order, 0.42, seed))
    if consistency is not None:
        apply_overrides(model, consistency, "exact")
    return model


def _roster_gcc(
    employees, periods, seed, required=0, scale=1, descending=False, consistency=DOMAIN
):
    """Regular rows; each column lets a task appear at most once, and
    tasks 1..required at least once (the planted schedule gives employee
    e task e + 1 in every period).  Every task number is multiplied by
    ``scale``, and the values go into each domain in ascending order, or
    in descending order with ``descending``."""
    payload = generate_rostering(employees, periods, seed=seed).payload
    tasks, grid = payload["tasks"], payload["grid"]
    dfa = rostering_dfa(tasks)
    automaton = Automaton(
        {(q, scale * s): nxt for (q, s), nxt in dfa.transitions.items()},
        dfa.initial,
        dfa.accepting,
    )
    m = Model()
    values = sorted((scale * v for v in range(tasks + 1)), reverse=descending)
    cells = [
        [
            m.new_variable([scale * grid[i][j]] if grid[i][j] >= 0 else values)
            for j in range(periods)
        ]
        for i in range(employees)
    ]
    for row in cells:
        m.add(Regular(row, automaton))
    upper = {scale * d: 1 for d in range(1, tasks + 1)}
    upper[scale * BREAK] = employees
    lower = {scale * d: 1 for d in range(1, required + 1)}
    for j in range(periods):
        m.add(
            GlobalCardinality([row[j] for row in cells], lower, upper, consistency)
        )
    return m


BUILDERS = {
    "qwh-17-s2": lambda: _qwh(17, 2),
    "qwh-18-s2": lambda: _qwh(18, 2),
    "qwh-20-s0": lambda: _qwh(20, 0),
    "roster-6x10-s2": lambda: _roster_gcc(6, 10, 2),
    "roster-6x10-s2-low4": lambda: _roster_gcc(6, 10, 2, required=4),
    "qwh-20-s0-fc": lambda: _qwh(20, 0, FORWARD_CHECKING),
    "magic-4-s1": lambda: build_model(generate_magic(4, seed=1)),
    "qwh-15-s0": lambda: _qwh(15, 0),
    "magic-4-s0": lambda: build_model(generate_magic(4, seed=0)),
    "marketsplit-3-s0": lambda: build_model(generate_marketsplit(3, 0)),
}

#: instance -> (backtracks, decisions), all found sat under a cap of 30
GOLDEN = {
    "qwh-17-s2": (
        5,
        [
            (75, 8), (94, 8), (129, 2), (16, 2), (216, 7), (223, 14),
            (227, 13), (120, 6),
        ],
    ),
    "qwh-18-s2": (
        2,
        [
            (197, 10), (27, 3), (52, 18), (17, 9), (173, 6), (74, 7), (75, 8),
            (178, 9), (145, 13), (49, 13), (15, 13), (264, 7), (260, 8),
            (221, 17), (45, 11), (37, 3), (51, 8), (318, 2), (311, 3),
            (135, 17), (161, 12), (156, 10), (229, 2), (152, 2), (211, 2),
            (91, 16), (76, 2), (90, 9), (122, 11),
        ],
    ),
    "qwh-20-s0": (
        2,
        [
            (304, 6), (306, 15), (393, 12), (157, 5), (255, 3), (281, 1),
            (56, 7), (263, 3), (196, 3), (150, 4), (17, 6), (137, 16),
            (146, 16), (186, 18), (26, 6), (266, 12), (318, 8), (98, 13),
            (121, 18), (298, 15), (1, 4), (201, 16), (219, 4), (202, 7),
            (210, 1), (116, 11), (213, 15), (122, 20), (132, 12), (258, 9),
            (88, 20), (84, 1), (69, 16), (75, 15), (68, 6), (108, 8),
            (270, 14), (274, 14), (284, 11), (14, 1),
        ],
    ),
    "roster-6x10-s2": (
        0,
        [
            (1, 0), (11, 0), (21, 0), (51, 0), (38, 0), (3, 0), (5, 0),
            (13, 0), (15, 0), (23, 0), (25, 0), (53, 0), (55, 0), (36, 0),
            (7, 0), (17, 0), (27, 0), (57, 0), (34, 0), (32, 0), (42, 0),
            (44, 0), (46, 0), (48, 0), (9, 0), (19, 0), (29, 0), (59, 0),
            (30, 3), (40, 0), (33, 1), (43, 7), (0, 0), (10, 0), (20, 0),
            (50, 0), (39, 0), (45, 0), (47, 0), (2, 0), (12, 0), (22, 0),
            (52, 0), (4, 0), (14, 0), (24, 0), (54, 0), (6, 0), (16, 0),
            (26, 0), (35, 0), (56, 0), (8, 0), (18, 0), (28, 0), (37, 0),
            (58, 0),
        ],
    ),
    "roster-6x10-s2-low4": (
        0,
        [
            (40, 4), (30, 3), (42, 4), (32, 3), (48, 4), (47, 3), (43, 3),
            (33, 2), (3, 0), (13, 0), (22, 0), (23, 4), (54, 0), (24, 4),
            (44, 2), (34, 0), (4, 3), (12, 1), (52, 2), (15, 1), (45, 2),
            (16, 1), (11, 1), (51, 0), (1, 2), (20, 2), (0, 0), (10, 1),
            (17, 0), (5, 3), (25, 4), (46, 2), (6, 0), (26, 3), (36, 4),
            (37, 4), (27, 2), (38, 3), (7, 1), (8, 0), (35, 0), (28, 1),
            (18, 2), (29, 1), (19, 2), (39, 3), (9, 4), (59, 0), (56, 6),
            (57, 6), (50, 0), (55, 0), (58, 0),
        ],
    ),
}


class _Recording(MaxSD):
    def __init__(self, model):
        super().__init__(model)
        self.picks = []

    def choose(self, model, randomized=False):
        pick = super().choose(model, randomized)
        if pick is not None:
            self.picks.append((pick[0].index, pick[1]))
        return pick


@pytest.mark.parametrize("name", GOLDEN)
def test_maxsd_dfs_decisions_are_pinned(name):
    backtracks, decisions = GOLDEN[name]
    model = BUILDERS[name]()
    heuristic = _Recording(model)
    stats = dfs(model, heuristic, backtrack_limit=30)
    assert stats.status == SAT
    assert stats.backtracks == backtracks
    assert heuristic.picks == decisions


#: market split instance -> (backtracks, decisions) under a cap of 60;
#: each search stops at the cap, after many backtracks through the rows'
#: exact ``Knapsack`` graphs
GOLDEN_MARKETSPLIT = {
    "marketsplit-3-s0": (
        60,
        [
            (16, 0), (19, 1), (15, 1), (1, 0), (0, 1), (3, 0), (2, 0), (4, 0),
            (14, 1), (5, 0), (2, 0), (8, 1), (5, 0), (5, 0), (11, 0), (2, 1),
            (9, 0), (4, 0), (17, 0), (0, 0), (9, 0), (11, 1), (13, 0), (6, 1),
            (4, 0), (7, 0), (3, 1), (7, 0), (3, 0), (2, 1), (7, 0), (11, 0),
            (13, 0), (2, 0), (6, 0), (5, 0), (9, 0), (4, 1), (0, 0), (2, 1),
            (1, 0), (9, 1), (13, 0), (11, 1), (4, 0), (17, 1), (5, 1), (11, 0),
            (3, 1), (9, 1), (17, 1), (1, 0), (3, 1), (5, 0), (1, 1), (8, 0),
            (4, 1), (1, 0), (4, 0), (8, 0), (9, 1), (15, 0), (0, 1), (3, 0),
            (6, 1), (7, 0), (18, 1), (10, 0), (1, 0),
        ],
    ),
    "marketsplit-3-s1": (
        60,
        [
            (0, 0), (17, 1), (14, 1), (6, 0), (15, 0), (4, 0), (2, 1), (18, 0),
            (11, 1), (18, 1), (1, 0), (13, 1), (10, 0), (2, 1), (3, 0), (5, 1),
            (1, 1), (2, 0), (5, 0), (13, 1), (3, 1), (8, 0), (11, 1), (9, 1),
            (9, 1), (5, 0), (19, 0), (11, 0), (2, 0), (18, 1), (8, 0), (9, 0),
            (15, 1), (11, 0), (19, 1), (3, 0), (5, 0), (1, 0), (8, 0), (13, 0),
            (1, 1), (19, 0), (4, 1), (2, 0), (15, 0), (1, 1), (13, 0), (7, 0),
            (1, 0), (4, 0), (5, 0), (2, 1), (4, 0), (13, 1), (1, 0), (6, 1),
            (18, 0), (11, 1), (3, 1), (6, 0), (6, 1), (1, 0), (6, 1), (18, 1),
            (13, 0),
        ],
    ),
}


@pytest.mark.parametrize("name", GOLDEN_MARKETSPLIT)
def test_maxsd_dfs_decisions_on_market_split_are_pinned(name):
    backtracks, decisions = GOLDEN_MARKETSPLIT[name]
    model = build_model(generate_marketsplit(3, int(name.rsplit("-s", 1)[1])))
    heuristic = _Recording(model)
    stats = dfs(model, heuristic, backtrack_limit=60)
    assert stats.status == TIMEOUT
    assert stats.backtracks == backtracks
    assert heuristic.picks == decisions


WORKLOADS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "workloads.py",
)

#: perfbench ``graph-maxSD`` job at seed 0 -> (status, backtracks, nodes,
#: first 16 hex digits of the SHA-256 of the repr of the (variable index,
#: value) decision list), as ``perfbench/run.py`` records them: nodes
#: counts every ``choose`` call, the decisions the picks it returns
GOLDEN_GRAPH_JOBS = {
    "roster-s0/maxSD": (SAT, 0, 229, "613d54a5ce08d5ef"),
    "roster-s1/maxSD": (SAT, 0, 229, "16b5936b1fee994a"),
    "marketsplit-s0/maxSD": (UNSAT, 274, 273, "ae7b8b868a992878"),
    "marketsplit-s1/maxSD": (UNSAT, 290, 289, "91d3089b4c3077aa"),
}

#: the first 4 jobs of perfbench's ``qwh-maxSD`` and ``qwh-domWDeg``
#: workloads at seed 0 (order-25 quasigroup completions, cap 5), recorded
#: as ``GOLDEN_GRAPH_JOBS`` are
GOLDEN_QWH_JOBS = {
    "qwh-s0/maxSD": (SAT, 0, 86, "b8ffd496fe4921a5"),
    "qwh-s1/maxSD": (TIMEOUT, 5, 87, "3199b2efd7e1fcef"),
    "qwh-s2/maxSD": (SAT, 1, 94, "4389ef84b0223541"),
    "qwh-s3/maxSD": (SAT, 1, 110, "1156ec10c662148b"),
    "qwh-s0/domWDeg": (TIMEOUT, 5, 44, "cd9a0b728ee95399"),
    "qwh-s1/domWDeg": (TIMEOUT, 5, 57, "802d498202de90f7"),
    "qwh-s2/domWDeg": (SAT, 2, 49, "c57a20cdc90cc5ec"),
    "qwh-s3/domWDeg": (TIMEOUT, 5, 60, "9c9b62714718169a"),
}


def _perfbench_jobs(workload):
    """perfbench's jobs of ``workload`` at seed 0, by name, from its
    workload module loaded from the file (registered under its own name,
    as its dataclasses look their module up)."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {job.name: job for job in module.jobs_for(workload, 0)}


def _job_record(job):
    """(status, backtracks, nodes, digest) of one perfbench job's ``dfs``."""
    built = job.build()
    heuristic = built.heuristic
    choose, picks = heuristic.choose, []
    nodes = 0

    def recorded(model, randomized=False):
        nonlocal nodes
        nodes += 1
        pick = choose(model, randomized)
        if pick is not None:
            picks.append((pick[0].index, pick[1]))
        return pick

    heuristic.choose = recorded
    stats = dfs(built.model, heuristic, backtrack_limit=job.cap)
    digest = hashlib.sha256(repr(picks).encode()).hexdigest()[:16]
    return stats.status, stats.backtracks, nodes, digest


@pytest.mark.parametrize("name", GOLDEN_GRAPH_JOBS)
def test_perfbench_graph_jobs_are_pinned(name):
    job = _perfbench_jobs("graph-maxSD")[name]
    assert job.cap == 300
    assert _job_record(job) == GOLDEN_GRAPH_JOBS[name]


@pytest.mark.parametrize("name", GOLDEN_QWH_JOBS)
def test_perfbench_qwh_jobs_are_pinned(name):
    job = _perfbench_jobs("qwh-" + name.rsplit("/", 1)[1])[name]
    assert job.cap == 5
    assert _job_record(job) == GOLDEN_QWH_JOBS[name]


#: instance -> (status, backtracks, decisions, wipeout cause cids) under a
#: cap of 30
GOLDEN_DOMWDEG = {
    "qwh-17-s2": (
        SAT,
        0,
        [
            (13, 2), (42, 6),
        ],
        [
        ],
    ),
    "qwh-18-s2": (
        SAT,
        0,
        [
            (13, 13), (3, 9), (19, 3), (37, 8), (45, 3), (51, 13), (48, 12),
            (50, 7), (56, 6),
        ],
        [
        ],
    ),
    "qwh-20-s0": (
        SAT,
        14,
        [
            (17, 6), (137, 12), (142, 4), (146, 8), (93, 8), (88, 13), (58, 3),
            (56, 7), (53, 5), (54, 1), (14, 9), (43, 16), (47, 8), (44, 12),
            (103, 1), (72, 3), (68, 6), (115, 6), (132, 8), (32, 4), (160, 2),
            (130, 2), (10, 4), (155, 3), (335, 8), (10, 4), (4, 17), (324, 6),
            (324, 6), (348, 3), (335, 8), (173, 2), (320, 18), (168, 5),
            (348, 3), (333, 17), (324, 6), (359, 2), (24, 17), (22, 2),
        ],
        [
            8, 30, 35, 16, 9, 24, 28, 17, 28, 17, 16, 33, 39, 1,
        ],
    ),
    "qwh-20-s0-fc": (
        TIMEOUT,
        30,
        [
            (17, 6), (137, 12), (146, 8), (93, 8), (84, 1), (88, 13), (58, 3),
            (56, 7), (142, 4), (144, 3), (186, 16), (26, 6), (100, 2),
            (109, 9), (111, 1), (103, 16), (43, 1), (50, 8), (47, 16),
            (44, 12), (101, 10), (115, 6), (75, 3), (221, 13), (222, 8),
            (225, 11), (15, 1), (115, 6), (115, 6), (115, 6), (235, 8),
            (221, 10), (221, 10), (235, 8), (115, 6), (221, 10), (221, 10),
            (235, 8), (222, 2), (225, 11), (101, 10), (105, 8), (108, 11),
            (75, 3), (75, 3), (75, 3), (101, 10), (116, 11), (105, 8), (75, 3),
            (75, 3),
        ],
        [
            11, 11, 11, 11, 35, 5, 5, 35, 5, 5, 11, 5, 11, 5, 11, 11, 5, 11, 5,
            11, 35, 35, 35, 35, 35, 35, 5, 35, 35, 35,
        ],
    ),
}


class _RecordingDomWdeg(DomWdeg):
    def __init__(self, model):
        super().__init__(model)
        self.picks = []
        self.causes = []
        model.on_wipeout(
            lambda c: self.causes.append(None if c is None else c.cid)
        )

    def choose(self, model, randomized=False):
        pick = super().choose(model, randomized)
        if pick is not None:
            self.picks.append((pick[0].index, pick[1]))
        return pick


@pytest.mark.parametrize("name", GOLDEN_DOMWDEG)
def test_domwdeg_dfs_decisions_are_pinned(name):
    status, backtracks, decisions, causes = GOLDEN_DOMWDEG[name]
    model = BUILDERS[name]()
    heuristic = _RecordingDomWdeg(model)
    stats = dfs(model, heuristic, backtrack_limit=30)
    assert stats.status == status
    assert stats.backtracks == backtracks
    assert heuristic.picks == decisions
    assert heuristic.causes == causes


#: (status, backtracks, removal count, SHA-256 of the repr of the
#: (variable index, value, cause cid) list, with None for a decision's
#: removals) of ``dfs`` under domWDeg on qwh-15-s0, cap 30
GOLDEN_QWH15_REMOVALS = (
    SAT,
    1,
    1380,
    "6d49ae81b29c09682f7ee60ef002df5748cfca3476fa431c6f5d01a09e73f02a",
)


def test_domwdeg_removals_are_pinned(monkeypatch):
    """Every removal of a search, root propagation included, in order and
    with its cause: the qwh builder runs on a model that lists them."""
    monkeypatch.setattr(bench, "Model", _CauseModel)
    model = _qwh(15, 0)
    stats = dfs(model, DomWdeg(model), backtrack_limit=30)
    removed = [
        (x, value, None if cause is None else cause.cid)
        for x, value, cause in model.removed
    ]
    digest = hashlib.sha256(repr(removed).encode()).hexdigest()
    assert (stats.status, stats.backtracks, len(removed), digest) == GOLDEN_QWH15_REMOVALS


#: (instance, heuristic) -> (status, backtracks, decision count, first 16
#: hex digits of the SHA-256 of the repr of the (variable index, value)
#: decision list) under a cap of 30
GOLDEN_SCORED = {
    ("qwh-20-s0", "maxRelSD"): (SAT, 0, 32, "ab884bc3b9a85e51"),
    ("qwh-20-s0", "maxRelRatio"): (SAT, 1, 25, "3fc03f931c7a2659"),
    ("qwh-20-s0", "aAvgSD"): (SAT, 9, 40, "4198f5b00dfe6e9a"),
    ("qwh-20-s0", "wSCAvg"): (SAT, 0, 34, "3fe6b5213861c899"),
    ("qwh-20-s0", "minSCMaxSD"): (SAT, 1, 28, "8eb6e04e62b1c7cd"),
    ("qwh-20-s0", "domWDeg+maxSD"): (SAT, 0, 36, "47b6ee311cc8539e"),
    ("qwh-20-s0", "domDeg+maxSD"): (SAT, 0, 36, "47b6ee311cc8539e"),
    ("roster-6x10-s2", "maxRelSD"): (SAT, 0, 57, "bf1c27b333c1ee40"),
    ("roster-6x10-s2", "maxRelRatio"): (SAT, 0, 57, "8ce047c45d5cb368"),
    ("roster-6x10-s2", "aAvgSD"): (SAT, 0, 57, "a56690a867c95c7d"),
    ("roster-6x10-s2", "wSCAvg"): (SAT, 0, 57, "591d93d584def6dd"),
    ("roster-6x10-s2", "minSCMaxSD"): (SAT, 0, 57, "c23e9e6d09435e62"),
    ("roster-6x10-s2", "domWDeg+maxSD"): (SAT, 0, 57, "3b596583c388c1e0"),
    ("roster-6x10-s2", "domDeg+maxSD"): (SAT, 0, 57, "3478a885d82e7293"),
    ("magic-4-s1", "maxRelSD"): (SAT, 19, 23, "86976669ed2273cc"),
    ("magic-4-s1", "maxRelRatio"): (SAT, 19, 23, "caa12362e3dfba6a"),
    ("magic-4-s1", "aAvgSD"): (TIMEOUT, 30, 33, "7d9f6ee5b0662f00"),
    ("magic-4-s1", "wSCAvg"): (SAT, 4, 9, "bea8ac0185d10884"),
    ("magic-4-s1", "minSCMaxSD"): (SAT, 5, 9, "4a1430a629b7b5ca"),
    ("magic-4-s1", "domWDeg+maxSD"): (SAT, 15, 19, "1e27c9adab30dd6e"),
    ("magic-4-s1", "domDeg+maxSD"): (SAT, 5, 10, "fc947154e9f21dbb"),
}


def _search_recorded(instance, name, search):
    """(status, backtracks, decision count, digest) of ``search`` with
    heuristic ``name`` on a fresh ``instance``."""
    model = BUILDERS[instance]()
    heuristic = make_heuristic(name, model)
    choose, picks = heuristic.choose, []

    def recorded(model, randomized=False):
        pick = choose(model, randomized)
        if pick is not None:
            picks.append((pick[0].index, pick[1]))
        return pick

    heuristic.choose = recorded
    stats = search(model, heuristic)
    digest = hashlib.sha256(repr(picks).encode()).hexdigest()[:16]
    return stats.status, stats.backtracks, len(picks), digest


@pytest.mark.parametrize("instance,name", GOLDEN_SCORED)
def test_scored_dfs_decisions_are_pinned(instance, name):
    assert _search_recorded(
        instance, name, lambda m, h: dfs(m, h, backtrack_limit=30)
    ) == GOLDEN_SCORED[instance, name]


SEARCHES = {
    "restart": lambda m, h: restart_search(m, h, scale=3, backtrack_limit=40),
    "lds": lambda m, h: lds(m, h, backtrack_limit=40),
}

#: (instance, search, heuristic) -> (status, backtracks, decision count,
#: digest as above) under a cap of 40; the restart searches start over
#: after 3, 6, 12, ... backtracks
GOLDEN_RANDOMIZED = {
    ("qwh-15-s0", "restart", "maxSD"): (SAT, 0, 10, "dbb403ece3e3be70"),
    ("qwh-15-s0", "restart", "maxRelSD"): (SAT, 0, 10, "f6543e3bdd87eb74"),
    ("qwh-15-s0", "restart", "minSCMaxSD"): (SAT, 1, 4, "71809a5c5e701e6b"),
    ("qwh-15-s0", "lds", "maxSD"): (SAT, 0, 10, "1849f23e28bfa3a6"),
    ("qwh-15-s0", "lds", "maxRelSD"): (SAT, 0, 8, "34420e91acb0f4ec"),
    ("qwh-15-s0", "lds", "minSCMaxSD"): (SAT, 0, 5, "8f8c9972d210ffb2"),
    ("magic-4-s0", "restart", "maxSD"): (SAT, 6, 14, "0446b1eb10ec1337"),
    ("magic-4-s0", "restart", "maxRelSD"): (TIMEOUT, 40, 54, "71448aff26a44fd9"),
    ("magic-4-s0", "restart", "minSCMaxSD"): (SAT, 1, 5, "e26f4fa36f1cd111"),
    ("magic-4-s0", "lds", "maxSD"): (TIMEOUT, 40, 92, "958047272815ee09"),
    ("magic-4-s0", "lds", "maxRelSD"): (TIMEOUT, 40, 92, "ba1481f55478906b"),
    ("magic-4-s0", "lds", "minSCMaxSD"): (SAT, 2, 7, "3b0264f65cd3b568"),
    ("magic-4-s1", "restart", "maxSD"): (TIMEOUT, 40, 59, "741e7ed32a94d842"),
    ("magic-4-s1", "restart", "maxRelSD"): (SAT, 10, 24, "29365e791b31769b"),
    ("magic-4-s1", "restart", "minSCMaxSD"): (SAT, 0, 6, "dec99e495fbd4625"),
    ("magic-4-s1", "lds", "maxSD"): (SAT, 3, 12, "6c7dd853ae4df216"),
    ("magic-4-s1", "lds", "maxRelSD"): (SAT, 6, 21, "63f2b57cc34a7625"),
    ("magic-4-s1", "lds", "minSCMaxSD"): (TIMEOUT, 40, 85, "088a58768d43d5f4"),
}


@pytest.mark.parametrize("instance,search,name", GOLDEN_RANDOMIZED)
def test_randomized_decisions_are_pinned(instance, search, name):
    assert _search_recorded(
        instance, name, SEARCHES[search]
    ) == GOLDEN_RANDOMIZED[instance, search, name]


#: (instance, search) -> (status, backtracks, decision count, digest as
#: above) of domWDeg under a cap of 30; its weights and kept degrees carry
#: over from each run to the next, and the restart searches start over
#: after 3, 6, 12, ... backtracks
GOLDEN_DOMWDEG_RUNS = {
    ("qwh-20-s0", "restart"): (SAT, 24, 101, "5e338b371ebacacb"),
    ("qwh-20-s0", "lds"): (SAT, 17, 143, "c4bf953f71c1e055"),
    ("magic-4-s1", "restart"): (SAT, 6, 12, "473e7e55f6ea22b8"),
    ("magic-4-s1", "lds"): (SAT, 7, 18, "681ee6933294fd58"),
}

DOMWDEG_SEARCHES = {
    "restart": lambda m, h: restart_search(m, h, scale=3, backtrack_limit=30),
    "lds": lambda m, h: lds(m, h, backtrack_limit=30),
}


@pytest.mark.parametrize("instance,search", GOLDEN_DOMWDEG_RUNS)
def test_domwdeg_restart_and_lds_decisions_are_pinned(instance, search):
    assert _search_recorded(
        instance, "domWDeg", DOMWDEG_SEARCHES[search]
    ) == GOLDEN_DOMWDEG_RUNS[instance, search]


IBS_SEARCHES = {
    "dfs": lambda m, h: dfs(m, h, backtrack_limit=60),
    "restart": lambda m, h: restart_search(m, h, scale=5, backtrack_limit=60),
    "lds": lambda m, h: lds(m, h, backtrack_limit=60),
}

#: (instance, search, heuristic) -> (status, backtracks, decision count,
#: digest as above) of IBS under a cap of 60; its impacts carry over from
#: each run to the next, and the restart searches start over after 5, 10,
#: 20, ... backtracks
GOLDEN_IBS = {
    ("qwh-15-s0", "dfs", "ibs"): (SAT, 1, 6, "dba4162d19dddb6a"),
    ("qwh-15-s0", "restart", "ibs+maxSD"): (SAT, 0, 6, "67f2030cda72c81b"),
    ("qwh-15-s0", "lds", "ibs"): (SAT, 2, 9, "12ce292702c3c761"),
    ("magic-4-s0", "dfs", "ibs"): (SAT, 13, 19, "25c8435d765a7c15"),
    ("magic-4-s1", "dfs", "ibs+maxSD"): (SAT, 0, 3, "a6b64a22484396e6"),
    ("marketsplit-3-s0", "dfs", "ibs+maxSD"): (TIMEOUT, 60, 64, "93390ee9b43b575c"),
    ("marketsplit-3-s0", "restart", "ibs"): (TIMEOUT, 60, 84, "56dcee040cba3cd9"),
    ("marketsplit-3-s0", "lds", "ibs+maxSD"): (TIMEOUT, 60, 175, "6db82a37b28c4c62"),
}


@pytest.mark.parametrize("instance,search,name", GOLDEN_IBS)
def test_ibs_decisions_are_pinned(instance, search, name):
    assert _search_recorded(
        instance, name, IBS_SEARCHES[search]
    ) == GOLDEN_IBS[instance, search, name]


# ----------------------------------------------------------------------
# decisions do not depend on the order a domain set iterates in
# ----------------------------------------------------------------------
# Leaving level 0 replaces each domain it shrank with a fresh copy
# (``Model.push_level``), which can iterate in another order.  Values
# that are multiples of 8 collide in a small set table, so a domain built
# from them in ascending order iterates differently from one built in
# descending order.  Each model below is built both ways; ``dfs`` must
# make the same decisions on both, and domWDeg must blame the same
# constraints for the same wipeouts.


def _set_order_qwh(descending, order, seed, consistency):
    grid = generate_qwh(order, 0.42, seed).payload["grid"]
    full = sorted((8 * v for v in range(1, order + 1)), reverse=descending)
    m = Model()
    cells = [[m.new_variable([8 * v] if v else full) for v in row] for row in grid]
    for line in cells + [list(col) for col in zip(*cells)]:
        m.add(AllDifferent(line, consistency))
    return m


def _set_order_magic(descending):
    """Magic square of order 4 over 8, 16, ..., 128: exact Knapsack sums."""
    n = 4
    grid = generate_magic(n, seed=1).payload["grid"]
    target = 8 * n * (n * n + 1) // 2
    full = sorted((8 * v for v in range(1, n * n + 1)), reverse=descending)
    m = Model()
    cells = [[m.new_variable([8 * v] if v else full) for v in row] for row in grid]
    m.add(AllDifferent([x for row in cells for x in row]))
    diagonals = [
        [row[i] for i, row in enumerate(cells)],
        [row[n - 1 - i] for i, row in enumerate(cells)],
    ]
    for line in cells + [list(col) for col in zip(*cells)] + diagonals:
        m.add(Knapsack(line, [1] * n, target, target))
    return m


def _set_order_pairing(descending):
    """Entities 1..24, i and j paired only when 8 divides i + j, so each
    domain holds values of one residue mod 8.  Entities 8, 16, 24 and 4,
    12, 20 form triangles, which no pairing covers: unsat, found by
    search."""
    n = 24
    m = Model()
    partners = [
        [j for j in range(1, n + 1) if j != i and (i + j) % 8 == 0]
        for i in range(1, n + 1)
    ]
    xs = [m.new_variable(sorted(js, reverse=descending)) for js in partners]
    m.add(SymmetricAllDifferent(xs))
    m.add(AllDifferent(xs))
    return m


#: domWDeg on qwh-17, and both heuristics on the roster with
#: domain-consistent GCC columns, solve without a wipeout; every other
#: search here wipes out and backtracks
SET_ORDER_BUILDERS = {
    "alldifferent-qwh-17": lambda d: _set_order_qwh(d, 17, 2, DOMAIN),
    "alldifferent-fc-qwh-15": lambda d: _set_order_qwh(d, 15, 0, FORWARD_CHECKING),
    "knapsack-magic-4": _set_order_magic,
    "gcc-regular-roster-6x10-low4": lambda d: _roster_gcc(
        6, 10, 2, required=4, scale=8, descending=d
    ),
    "gcc-fc-regular-roster-4x8-low4": lambda d: _roster_gcc(
        4, 8, 1, required=4, scale=8, descending=d, consistency=FORWARD_CHECKING
    ),
    "symmetric-pairing-24": _set_order_pairing,
}


def _dfs_recorded(model, name):
    """(status, backtracks, decisions, wipeout cause cids) of ``dfs`` with
    heuristic ``name`` under a cap of 30."""
    heuristic = make_heuristic(name, model)
    choose, picks, causes = heuristic.choose, [], []
    model.on_wipeout(lambda c: causes.append(None if c is None else c.cid))

    def recorded(model, randomized=False):
        pick = choose(model, randomized)
        if pick is not None:
            picks.append((pick[0].index, pick[1]))
        return pick

    heuristic.choose = recorded
    stats = dfs(model, heuristic, backtrack_limit=30)
    return stats.status, stats.backtracks, picks, causes


@pytest.mark.parametrize("name", ["domWDeg", "maxSD"])
@pytest.mark.parametrize("instance", SET_ORDER_BUILDERS)
def test_decisions_do_not_depend_on_set_order(instance, name):
    ascending = SET_ORDER_BUILDERS[instance](False)
    descending = SET_ORDER_BUILDERS[instance](True)
    assert [list(d) for d in ascending._domains] != [
        list(d) for d in descending._domains
    ]
    assert _dfs_recorded(ascending, name) == _dfs_recorded(descending, name)
