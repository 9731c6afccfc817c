"""Golden maxSD and domWDeg decisions: the exact picks dfs makes on fixed
instances.

maxSD breaks exact score ties by (variable index, value), so a change in
the last bit of a density can change the search.  These sequences pin
every (variable index, value) decision, and the backtrack count, that
``dfs`` with ``maxSD`` makes on three quasigroup completions (AllDifferent
counting) and one roster whose columns are ``GlobalCardinality``
constraints (GCC and Regular counting).  A speed-up of the counting
kernels must reproduce them unchanged.

domWDeg learns its weights from the constraint each wipeout is blamed on,
so which propagator runs first, and which one empties a domain, steers it.
Its pins add the ``cid`` of every wipeout's cause, on the same quasigroup
completions and on one propagated by forward checking only.  A change to
the propagation queue or to AllDifferent filtering must reproduce them.

The other counting rules (maxRelSD, maxRelRatio, aAvgSD, wSCAvg,
minSCMaxSD) and the domWDeg+maxSD hybrid read the same density tables
and score them differently.  Their pins hold a digest of the decisions,
on a quasigroup completion, the GCC roster and a magic square whose sums
are exact ``Knapsack`` constraints.
"""

import hashlib

import pytest

from countsearch.bench import (
    BREAK,
    apply_overrides,
    build_model,
    generate_magic,
    generate_qwh,
    generate_rostering,
    rostering_dfa,
)
from countsearch.engine import Model
from countsearch.gcc import GlobalCardinality
from countsearch.engine import FORWARD_CHECKING
from countsearch.heuristics import DomWdeg, MaxSD, make_heuristic
from countsearch.regular import Regular
from countsearch.search import SAT, TIMEOUT, dfs


def _qwh(order, seed, consistency=None):
    model = build_model(generate_qwh(order, 0.42, seed))
    if consistency is not None:
        apply_overrides(model, consistency, "exact")
    return model


def _roster_gcc(employees, periods, seed):
    """Regular rows; each column lets a task appear at most once."""
    payload = generate_rostering(employees, periods, seed=seed).payload
    tasks, grid = payload["tasks"], payload["grid"]
    m = Model()
    values = set(range(tasks + 1))
    cells = [
        [
            m.new_variable({grid[i][j]} if grid[i][j] >= 0 else values)
            for j in range(periods)
        ]
        for i in range(employees)
    ]
    for row in cells:
        m.add(Regular(row, rostering_dfa(tasks)))
    upper = {d: 1 for d in range(1, tasks + 1)}
    upper[BREAK] = employees
    for j in range(periods):
        m.add(GlobalCardinality([row[j] for row in cells], {}, upper))
    return m


BUILDERS = {
    "qwh-17-s2": lambda: _qwh(17, 2),
    "qwh-18-s2": lambda: _qwh(18, 2),
    "qwh-20-s0": lambda: _qwh(20, 0),
    "roster-6x10-s2": lambda: _roster_gcc(6, 10, 2),
    "qwh-20-s0-fc": lambda: _qwh(20, 0, FORWARD_CHECKING),
    "magic-4-s1": lambda: build_model(generate_magic(4, seed=1)),
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
    ("roster-6x10-s2", "maxRelSD"): (SAT, 0, 57, "bf1c27b333c1ee40"),
    ("roster-6x10-s2", "maxRelRatio"): (SAT, 0, 57, "8ce047c45d5cb368"),
    ("roster-6x10-s2", "aAvgSD"): (SAT, 0, 57, "a56690a867c95c7d"),
    ("roster-6x10-s2", "wSCAvg"): (SAT, 0, 57, "591d93d584def6dd"),
    ("roster-6x10-s2", "minSCMaxSD"): (SAT, 0, 57, "c23e9e6d09435e62"),
    ("roster-6x10-s2", "domWDeg+maxSD"): (SAT, 0, 57, "3b596583c388c1e0"),
    ("magic-4-s1", "maxRelSD"): (SAT, 19, 23, "86976669ed2273cc"),
    ("magic-4-s1", "maxRelRatio"): (SAT, 19, 23, "caa12362e3dfba6a"),
    ("magic-4-s1", "aAvgSD"): (TIMEOUT, 30, 33, "7d9f6ee5b0662f00"),
    ("magic-4-s1", "wSCAvg"): (SAT, 4, 9, "bea8ac0185d10884"),
    ("magic-4-s1", "minSCMaxSD"): (SAT, 5, 9, "4a1430a629b7b5ca"),
    ("magic-4-s1", "domWDeg+maxSD"): (SAT, 15, 19, "1e27c9adab30dd6e"),
}


@pytest.mark.parametrize("instance,name", GOLDEN_SCORED)
def test_scored_dfs_decisions_are_pinned(instance, name):
    status, backtracks, count, digest = GOLDEN_SCORED[instance, name]
    model = BUILDERS[instance]()
    heuristic = make_heuristic(name, model)
    choose, picks = heuristic.choose, []

    def recorded(model, randomized=False):
        pick = choose(model, randomized)
        if pick is not None:
            picks.append((pick[0].index, pick[1]))
        return pick

    heuristic.choose = recorded
    stats = dfs(model, heuristic, backtrack_limit=30)
    assert stats.status == status
    assert stats.backtracks == backtracks
    assert len(picks) == count
    assert hashlib.sha256(repr(picks).encode()).hexdigest()[:16] == digest
