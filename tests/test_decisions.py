"""Golden maxSD decisions: the exact picks dfs makes on fixed instances.

maxSD breaks exact score ties by (variable index, value), so a change in
the last bit of a density can change the search.  These sequences pin
every (variable index, value) decision, and the backtrack count, that
``dfs`` with ``maxSD`` makes on three quasigroup completions (AllDifferent
counting) and one roster whose columns are ``GlobalCardinality``
constraints (GCC and Regular counting).  A speed-up of the counting
kernels must reproduce them unchanged.
"""

import pytest

from countsearch.bench import (
    BREAK,
    build_model,
    generate_qwh,
    generate_rostering,
    rostering_dfa,
)
from countsearch.engine import Model
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import MaxSD
from countsearch.regular import Regular
from countsearch.search import SAT, dfs


def _qwh(order, seed):
    return build_model(generate_qwh(order, 0.42, seed))


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
