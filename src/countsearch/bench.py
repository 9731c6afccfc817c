"""Benchmark problems: instances, file formats, generators, models.

Eight problem families are supported: quasigroup-with-holes (qwh), magic
square completion (magic), nonograms, multi-dimensional knapsack
(multiknap), market split (marketsplit), shift rostering (rostering),
cost-constrained rostering (kprostering) and the travelling tournament
problem with predefined venues (ttppv).  Each is one ``Family`` record in
``FAMILIES``.

All file formats are line-oriented text; ``#`` starts a comment.  Each
family's format is one layout (``Family.layout``), which one reader and
one writer follow.  The first five kinds are recognized by file
extension, the last three by a self-describing kind tag on the first
line.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .alldiff import AllDifferent, SymmetricAllDifferent
from .engine import FORWARD_CHECKING, Model, check_level
from .heuristics import make_heuristic
from .knapsack import GAUSSIAN, Knapsack, check_mode
from .regular import Automaton, Regular
from .search import SearchStats, dfs, lds, restart_search


@dataclass
class Instance:
    kind: str
    name: str
    payload: dict
    status: Optional[str] = None  # "sat" when satisfiable by construction

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        FAMILIES[self.kind].validate(self.payload)


class ParseError(ValueError):
    """Malformed instance file."""


# a block's line count, besides a header field: one line, whose ints
# are the block's payload, or every line left
ONE, REST = 1, None
# a block's row shape: (a line's ints -> a payload row, and back)
ROW = (list, list)
PAIR = (lambda ints: (ints[:-1], ints[-1]), lambda row: [*row[0], row[1]])
TUPLE = (tuple, list)


@dataclass(frozen=True)
class Family:
    """One problem family.  ``layout`` is its files' data lines, ``(header,
    *blocks)``: the payload fields the first line's ints give, in order,
    then per block ``(field, count, shape)``, with the payload field whose
    rows the block's lines are, their count (a header field, ONE or REST)
    and their shape.  A ``tagged`` family's files start with its kind,
    which the layout leaves out; other files are recognized by ``ext``,
    which ``generate`` gives every file."""

    kind: str
    ext: str
    tagged: bool
    layout: tuple
    validate: Callable[[dict], None]
    build: Callable[[dict], Model]
    generate: Callable[..., Instance]


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _ints(line: str) -> list[int]:
    return [int(tok) for tok in line.split()]


def _row(values) -> str:
    return " ".join(map(str, values))


def _parse(layout: tuple, lines: list[str]) -> dict:
    header, *blocks = layout
    head = _ints(lines[0])
    if len(head) != len(header):
        raise ParseError(f"the first line needs {len(header)} ints, got {len(head)}")
    payload = dict(zip(header, head))
    at = 1
    for field, count, (read, _) in blocks:
        if count is REST:
            n = len(lines) - at
        else:
            n = 1 if count == ONE else payload[count]
            if n < 0:
                raise ParseError(f"{count} must be at least 0, got {n}")
        rows = [read(_ints(line)) for line in lines[at : at + n]]
        payload[field] = rows[0] if count == ONE else rows
        at += n
    if at < len(lines):
        raise ParseError(f"{len(lines) - at} lines after the last block")
    return payload


def _write(layout: tuple, payload: dict) -> list[str]:
    header, *blocks = layout
    lines = [_row(payload[name] for name in header)]
    for field, count, (_, ints) in blocks:
        rows = [payload[field]] if count == ONE else payload[field]
        lines += [_row(ints(row)) for row in rows]
    return lines


def _check_grid(grid, rows, cols, low, high, what):
    if len(grid) != rows:
        raise ParseError(f"{what}: expected {rows} rows, got {len(grid)}")
    for r, row in enumerate(grid):
        if len(row) != cols:
            raise ParseError(f"{what} row {r}: expected {cols} entries")
        for v in row:
            if not (low <= v <= high):
                raise ParseError(f"{what} row {r}: value {v} out of range")


def infer_kind(path: str, text: str) -> str:
    for family in FAMILIES.values():
        if not family.tagged and path.endswith(family.ext):
            return family.kind
    first = _data_lines(text)
    if first:
        family = FAMILIES.get(first[0].split()[0])
        if family is not None and family.tagged:
            return family.kind
    raise ParseError(
        f"cannot infer instance kind for {path!r}; use a known extension "
        "or a tagged first line"
    )


def parse_instance(text: str, kind: str, name: str = "") -> Instance:
    """Read an instance of ``kind``; any malformed text raises ParseError."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty instance")
    family = FAMILIES.get(kind)
    if family is None:
        raise ParseError(f"unknown kind {kind!r}")
    if family.tagged:
        tag, *rest = lines[0].split(None, 1)
        if tag != kind:
            raise ParseError(f"first line must start with {kind!r}")
        lines[0] = rest[0] if rest else ""
    try:
        return Instance(kind, name or kind, _parse(family.layout, lines))
    except ParseError:
        raise
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed {kind} instance: {exc}") from None


def load_instance(path: str, kind: Optional[str] = None) -> Instance:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a text file: {exc}") from None
    kind = kind or infer_kind(path, text)
    return parse_instance(text, kind, os.path.basename(path))


def write_instance(instance: Instance) -> str:
    family = FAMILIES[instance.kind]
    lines = _write(family.layout, instance.payload)
    if family.tagged:
        lines[0] = f"{family.kind} {lines[0]}"
    return "\n".join(lines) + "\n"


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(write_instance(instance))


# ----------------------------------------------------------------------
# models and jobs
# ----------------------------------------------------------------------
def build_model(instance: Instance) -> Model:
    return FAMILIES[instance.kind].build(instance.payload)


def apply_overrides(model: Model, consistency: str, knapsack_mode: str) -> None:
    """Set every constraint's consistency, and every Knapsack's mode (the
    Gaussian mode runs the bounds filter of forward checking); both are
    checked even when no constraint takes them."""
    check_level(consistency)
    check_mode(knapsack_mode)
    for c in model.constraints:
        c.consistency = consistency
        if isinstance(c, Knapsack):
            c.mode = knapsack_mode
            if knapsack_mode == GAUSSIAN:
                c.consistency = FORWARD_CHECKING


def run_job(
    instance: Instance, heuristic_name: str, seed: int, *, traversal: str,
    restart_scale: int, lds_skip: int, timeout: float,
    backtracks: Optional[int], consistency: str, knapsack_mode: str,
) -> SearchStats:
    """Model ``instance`` under the given consistency settings and search
    it with ``heuristic_name`` (randomized by ``seed``) under
    ``traversal``: "dfs", "restart" or "lds"."""
    model = build_model(instance)
    apply_overrides(model, consistency, knapsack_mode)
    heuristic = make_heuristic(heuristic_name, model, random.Random(seed))
    budget = {"timeout": timeout, "backtrack_limit": backtracks}
    if traversal == "dfs":
        return dfs(model, heuristic, **budget)
    if traversal == "restart":
        return restart_search(model, heuristic, scale=restart_scale, **budget)
    if traversal == "lds":
        return lds(model, heuristic, skip=lds_skip, **budget)
    raise ValueError(f"unknown traversal {traversal!r}")


# ----------------------------------------------------------------------
# qwh and magic: an order line, then the grid (0 = empty)
# ----------------------------------------------------------------------
def _validate_square(payload):
    n = payload["n"]
    _check_grid(payload["grid"], n, n, 0, n, "grid")


def _validate_magic(payload):
    n = payload["n"]
    _check_grid(payload["grid"], n, n, 0, n * n, "grid")
    filled = [v for row in payload["grid"] for v in row if v]
    if len(filled) != len(set(filled)):
        raise ParseError("magic square presets repeat a value")


def _cells(m: Model, grid, values) -> list[list]:
    """One variable per grid cell: its preset value, or else ``values``."""
    return [
        [m.new_variable({v} if v else values, f"x{r}_{c}")
         for c, v in enumerate(row)]
        for r, row in enumerate(grid)
    ]


def _build_qwh(payload: dict) -> Model:
    n = payload["n"]
    m = Model()
    cells = _cells(m, payload["grid"], range(1, n + 1))
    for line in cells + list(zip(*cells)):
        m.add(AllDifferent(line))
    return m


def _build_magic(payload: dict) -> Model:
    n = payload["n"]
    target = n * (n * n + 1) // 2
    m = Model()
    cells = _cells(m, payload["grid"], range(1, n * n + 1))
    flat = [v for row in cells for v in row]
    m.add(AllDifferent(flat))
    diagonals = [[row[i] for i, row in enumerate(cells)],
                 [row[n - 1 - i] for i, row in enumerate(cells)]]
    for line in cells + list(zip(*cells)) + diagonals:
        m.add(Knapsack(line, [1] * n, target, target))
    return m


def _random_latin_square(n: int, rng: random.Random) -> list[list[int]]:
    base = [[(r + c) % n + 1 for c in range(n)] for r in range(n)]
    rows = list(range(n))
    cols = list(range(n))
    symbols = list(range(1, n + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(symbols)
    return [
        [symbols[base[r][c] - 1] for c in cols] for r in rows
    ]


def generate_qwh(order: int, holes: float = 0.42, seed: int = 0) -> Instance:
    rng = random.Random(seed)
    grid = _random_latin_square(order, rng)
    n_holes = int(holes * order * order)
    positions = [(r, c) for r in range(order) for c in range(order)]
    rng.shuffle(positions)
    for r, c in positions[:n_holes]:
        grid[r][c] = 0
    return Instance(
        "qwh",
        f"qwh-{order}-s{seed}",
        {"n": order, "grid": grid},
        status="sat",
    )


def _magic_square(n: int) -> list[list[int]]:
    if n % 2 == 1:
        # Siamese method
        grid = [[0] * n for _ in range(n)]
        r, c = 0, n // 2
        for k in range(1, n * n + 1):
            grid[r][c] = k
            r2, c2 = (r - 1) % n, (c + 1) % n
            if grid[r2][c2]:
                r2, c2 = (r + 1) % n, c
            r, c = r2, c2
        return grid
    if n % 4 == 0:
        grid = [[r * n + c + 1 for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                if (r % 4 in (0, 3)) == (c % 4 in (0, 3)):
                    grid[r][c] = n * n + 1 - grid[r][c]
        return grid
    raise ValueError("singly even magic square orders are not supported")


def generate_magic(
    order: int, filled: float = 0.10, seed: int = 0
) -> Instance:
    rng = random.Random(seed)
    full = _magic_square(order)
    grid = [[0] * order for _ in range(order)]
    positions = [(r, c) for r in range(order) for c in range(order)]
    rng.shuffle(positions)
    keep = int(filled * order * order)
    for r, c in positions[:keep]:
        grid[r][c] = full[r][c]
    return Instance(
        "magic",
        f"magic-{order}-s{seed}",
        {"n": order, "grid": grid},
        status="sat",
    )


# ----------------------------------------------------------------------
# nonogram: "rows cols", then one clue line per row and per column
# ----------------------------------------------------------------------
def _validate_nonogram(payload):
    rows, cols = payload["rows"], payload["cols"]
    if len(payload["row_clues"]) != rows or len(payload["col_clues"]) != cols:
        raise ParseError("clue count does not match dimensions")
    for clue, limit in [(c, cols) for c in payload["row_clues"]] + [
        (c, rows) for c in payload["col_clues"]
    ]:
        if clue == [0]:
            continue
        if any(b < 1 for b in clue):
            raise ParseError(f"clue {clue} has an entry below 1")
        if sum(clue) + len(clue) - 1 > limit:
            raise ParseError(f"clue {clue} cannot fit in {limit} cells")


def nonogram_clue_dfa(clue: Sequence[int]) -> Automaton:
    """DFA over {0,1} accepting exactly the placements of the clue's
    blocks (run lengths in order, separated by at least one blank).

    State (j, i): the blocks before block j are placed and i cells of
    block j are filled.  With n blocks, a word is accepted in (n, 0) or
    on the last block's full state; the clue [0] has n = 0.
    """
    blocks = [b for b in clue if b > 0]
    n = len(blocks)
    trans: dict[tuple[object, int], object] = {((n, 0), 0): (n, 0)}
    for j, length in enumerate(blocks):
        trans[((j, 0), 0)] = (j, 0)
        for i in range(length):
            trans[((j, i), 1)] = (j, i + 1)
        trans[((j, length), 0)] = (j + 1, 0)
    return Automaton(trans, (0, 0), [(n, 0)] + [(n - 1, b) for b in blocks[-1:]])


def _build_nonogram(payload: dict) -> Model:
    rows, cols = payload["rows"], payload["cols"]
    m = Model()
    cells = _cells(m, [[0] * cols] * rows, {0, 1})
    for r, clue in enumerate(payload["row_clues"]):
        m.add(Regular(cells[r], nonogram_clue_dfa(clue)))
    for c, clue in enumerate(payload["col_clues"]):
        m.add(Regular([cells[r][c] for r in range(rows)], nonogram_clue_dfa(clue)))
    return m


def _clues_of(cells: Sequence[int]) -> list[int]:
    clue = []
    run = 0
    for v in cells:
        if v:
            run += 1
        elif run:
            clue.append(run)
            run = 0
    if run:
        clue.append(run)
    return clue or [0]


def generate_nonogram(
    rows: int, cols: int, density: float = 0.5, seed: int = 0
) -> Instance:
    rng = random.Random(seed)
    pic = [
        [1 if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    payload = {
        "rows": rows,
        "cols": cols,
        "row_clues": [_clues_of(row) for row in pic],
        "col_clues": [
            _clues_of([pic[r][c] for r in range(rows)]) for c in range(cols)
        ],
    }
    return Instance(
        "nonogram", f"nonogram-{rows}x{cols}-s{seed}", payload, status="sat"
    )


# ----------------------------------------------------------------------
# multiknap: "n m optimum", the objective, then m "coefficients capacity"
# ----------------------------------------------------------------------
def _validate_multiknap(payload):
    n, m = payload["n"], payload["m"]
    if len(payload["objective"]) != n:
        raise ParseError("objective length mismatch")
    if len(payload["constraints"]) != m:
        raise ParseError("constraint count mismatch")
    for coeffs, cap in payload["constraints"]:
        if len(coeffs) != n:
            raise ParseError("constraint coefficient length mismatch")
        if cap < 0:
            raise ParseError("negative capacity")


def _build_multiknap(payload: dict) -> Model:
    n = payload["n"]
    m = Model()
    xs = [m.new_variable({0, 1}, f"x{j}") for j in range(n)]
    opt = payload["optimum"]
    m.add(Knapsack(xs, payload["objective"], opt, opt))
    for coeffs, cap in payload["constraints"]:
        m.add(Knapsack(xs, coeffs, 0, cap))
    return m


def generate_multiknap(
    n: int = 20, m: int = 3, seed: int = 0
) -> Instance:
    if n < 1:
        raise ValueError("need at least one item")
    rng = random.Random(seed)
    objective = [rng.randrange(1, 50) for _ in range(n)]
    witness = [rng.randrange(2) for _ in range(n)]
    constraints = []
    for _ in range(m):
        coeffs = [rng.randrange(1, 30) for _ in range(n)]
        used = sum(c * x for c, x in zip(coeffs, witness))
        constraints.append((coeffs, used + rng.randrange(0, 20)))
    payload = {
        "n": n,
        "m": m,
        "optimum": sum(c * x for c, x in zip(objective, witness)),
        "objective": objective,
        "constraints": constraints,
    }
    return Instance(
        "multiknap", f"multiknap-{n}x{m}-s{seed}", payload, status="sat"
    )


# ----------------------------------------------------------------------
# marketsplit: "m n", then m "coefficients right-hand-side"
# ----------------------------------------------------------------------
def _validate_marketsplit(payload):
    m, n = payload["m"], payload["n"]
    if n < 0:
        raise ParseError("negative variable count")
    if len(payload["rows"]) != m:
        raise ParseError("row count mismatch")
    for coeffs, rhs in payload["rows"]:
        if len(coeffs) != n:
            raise ParseError("row length mismatch")


def _build_marketsplit(payload: dict) -> Model:
    n = payload["n"]
    m = Model()
    xs = [m.new_variable({0, 1}, f"x{j}") for j in range(n)]
    for coeffs, rhs in payload["rows"]:
        m.add(Knapsack(xs, coeffs, rhs, rhs))
    return m


def generate_marketsplit(m: int = 4, seed: int = 0) -> Instance:
    if m < 1:
        raise ValueError("need at least one row")
    rng = random.Random(seed)
    n = 10 * (m - 1)
    rows = []
    for _ in range(m):
        coeffs = [rng.randrange(0, 100) for _ in range(n)]
        rows.append((coeffs, sum(coeffs) // 2))
    return Instance(
        "marketsplit", f"marketsplit-{m}-s{seed}", {"m": m, "n": n, "rows": rows}
    )


# ----------------------------------------------------------------------
# rostering: "rostering employees periods tasks", then the preset grid
# (-1 = free, 0 = break)
# ----------------------------------------------------------------------
def _validate_rostering(payload):
    e, p, t = payload["employees"], payload["periods"], payload["tasks"]
    if t < 1:
        raise ParseError("need at least one task")
    _check_grid(payload["grid"], e, p, -1, t, "grid")


BREAK = 0


def rostering_dfa(n_tasks: int) -> Automaton:
    """Rostering rules over symbols 0 (break) and 1..n_tasks.

    Consecutive periods must carry equal or adjacent task numbers, a
    break may follow any task, and immediately after a break run the
    task preceding the break's predecessor task is forbidden.  State
    ("task", a) follows task a and ("brk", t) a break run after task t,
    with ("brk", 0) at the start; every state accepts.
    """
    tasks = range(1, n_tasks + 1)
    trans: dict[tuple[object, int], object] = {}
    for t in range(n_tasks + 1):
        trans[(("brk", t), BREAK)] = ("brk", t)
        for b in tasks:
            if b != t - 1:
                trans[(("brk", t), b)] = ("task", b)
        if t:
            trans[(("task", t), BREAK)] = ("brk", t)
            for b in (t - 1, t, t + 1):
                if b in tasks:
                    trans[(("task", t), b)] = ("task", b)
    return Automaton(trans, ("brk", 0), {q for q, _ in trans})


def _build_rostering(payload: dict) -> Model:
    p, t = payload["periods"], payload["tasks"]
    m = Model()
    values = set(range(0, t + 1))  # 0 = break
    rows = [
        [m.new_variable({v} if v >= 0 else values, f"e{i}_p{j}")
         for j, v in enumerate(row)]
        for i, row in enumerate(payload["grid"])
    ]
    dfa = rostering_dfa(t)
    for row in rows:
        m.add(Regular(row, dfa))
    for j in range(p):
        m.add(AllDifferent([row[j] for row in rows]))
    return m


def generate_rostering(
    employees: int = 4,
    periods: int = 8,
    tasks: Optional[int] = None,
    preset: float = 0.05,
    seed: int = 0,
) -> Instance:
    if periods < 1:
        raise ValueError("need at least one period")
    rng = random.Random(seed)
    tasks = tasks if tasks is not None else employees + 1
    if tasks < employees:
        raise ValueError("need at least as many tasks as employees")
    # constant-task rows form a valid, column-distinct schedule
    schedule = [[e + 1] * periods for e in range(employees)]
    grid = [[-1] * periods for _ in range(employees)]
    cells = [(e, p) for e in range(employees) for p in range(periods)]
    rng.shuffle(cells)
    for e, p in cells[: int(preset * employees * periods)]:
        grid[e][p] = schedule[e][p]
    payload = {
        "employees": employees,
        "periods": periods,
        "tasks": tasks,
        "grid": grid,
    }
    return Instance(
        "rostering",
        f"rostering-{employees}x{periods}-s{seed}",
        payload,
        status="sat",
    )


# ----------------------------------------------------------------------
# kprostering: "kprostering employees days shifts", one cost row per
# employee, the targets, then forbidden "employee day shift" triples
# ----------------------------------------------------------------------
def _validate_kprostering(payload):
    m, n, s = payload["employees"], payload["days"], payload["shifts"]
    if s < 1:
        raise ParseError(f"shift count {s} is below 1")
    _check_grid(payload["costs"], m, n, 0, 10 ** 9, "costs")
    if len(payload["targets"]) != m:
        raise ParseError("target count mismatch")
    forbidden: dict[tuple[int, int], set[int]] = {}
    for e, d, shift in payload["forbidden"]:
        if not (0 <= e < m and 0 <= d < n and 0 <= shift < s):
            raise ParseError(f"forbidden triple ({e},{d},{shift}) out of range")
        forbidden.setdefault((e, d), set()).add(shift)
    for (e, d), shifts in forbidden.items():
        if len(shifts) == s:
            raise ParseError(f"employee {e} day {d}: every shift is forbidden")


def _build_kprostering(payload: dict) -> Model:
    emp, days, shifts = payload["employees"], payload["days"], payload["shifts"]
    forbidden = {(e, d): set() for e in range(emp) for d in range(days)}
    for e, d, s in payload["forbidden"]:
        forbidden[(e, d)].add(s)
    m = Model()
    for e in range(emp):
        xs = []
        for d in range(days):
            dom = set(range(shifts)) - forbidden[(e, d)]
            xs.append(m.new_variable(dom, f"e{e}_d{d}"))
        target = payload["targets"][e]
        m.add(Knapsack(xs, payload["costs"][e], target, target))
    return m


def generate_kprostering(
    employees: int = 4,
    days: int = 25,
    shifts: int = 3,
    n_forbidden: int = 10,
    seed: int = 0,
) -> Instance:
    # each cell keeps its witness shift, so only shifts - 1 per cell can go
    if n_forbidden > employees * days * (shifts - 1):
        raise ValueError(
            f"cannot forbid {n_forbidden} shifts: at most "
            f"employees*days*(shifts-1) = {employees * days * (shifts - 1)}"
        )
    rng = random.Random(seed)
    costs = [
        [rng.randrange(1, 10) for _ in range(days)] for _ in range(employees)
    ]
    witness = [
        [rng.randrange(shifts) for _ in range(days)] for _ in range(employees)
    ]
    targets = [
        sum(costs[e][d] * witness[e][d] for d in range(days))
        for e in range(employees)
    ]
    forbidden = set()
    while len(forbidden) < n_forbidden:
        e = rng.randrange(employees)
        d = rng.randrange(days)
        s = rng.randrange(shifts)
        if s != witness[e][d]:
            forbidden.add((e, d, s))
    payload = {
        "employees": employees,
        "days": days,
        "shifts": shifts,
        "costs": costs,
        "targets": targets,
        "forbidden": sorted(forbidden),
    }
    return Instance(
        "kprostering",
        f"kprostering-{employees}x{days}-s{seed}",
        payload,
        status="sat",
    )


# ----------------------------------------------------------------------
# ttppv: "ttppv teams", then the venue table (1 = row team at home)
# ----------------------------------------------------------------------
def _validate_ttppv(payload):
    n = payload["n"]
    if n % 2 or n < 4:
        raise ParseError("team count must be even and at least 4")
    venues = payload["venues"]
    _check_grid(venues, n, n, 0, 1, "venues")
    for i in range(n):
        for j in range(n):
            if i != j and venues[i][j] == venues[j][i]:
                raise ParseError("venue table must be antisymmetric")


def ttppv_pattern_dfa(
    team: int, venues: Sequence[Sequence[int]], max_run: int = 3
) -> Automaton:
    """DFA over opponent ids (1-based team numbers, as in the model)
    forbidding more than ``max_run`` consecutive home (or away) rounds
    for ``team`` under the predefined venues.  State (venue, run): the
    last ``run`` rounds were at ``venue`` (1 = home).  Every state
    accepts, even one without out-arcs, as (1, max_run) is for a team at
    home against every opponent.
    """
    runs = [(home, run) for home in (0, 1) for run in range(1, max_run + 1)]
    trans: dict[tuple[object, int], object] = {}
    for o, home in enumerate(venues[team]):
        if o == team:
            continue
        trans[("start", o + 1)] = (home, 1)
        for v, run in runs:
            if v != home:
                trans[((v, run), o + 1)] = (home, 1)
            elif run < max_run:
                trans[((v, run), o + 1)] = (home, run + 1)
    return Automaton(trans, "start", ["start", *runs])


def _build_ttppv(payload: dict) -> Model:
    n = payload["n"]
    venues = payload["venues"]
    rounds = n - 1
    m = Model()
    opp = [
        [
            m.new_variable(
                [o + 1 for o in range(n) if o != t], f"t{t}_r{r}"
            )
            for r in range(rounds)
        ]
        for t in range(n)
    ]
    for t in range(n):
        m.add(AllDifferent(opp[t]))
        m.add(Regular(opp[t], ttppv_pattern_dfa(t, venues)))
    for r in range(rounds):
        # scope position i stands for team i+1 in the pairing constraint
        m.add(SymmetricAllDifferent([opp[t][r] for t in range(n)]))
    return m


def generate_ttppv(teams: int = 4, seed: int = 0) -> Instance:
    rng = random.Random(seed)
    venues = [[0] * teams for _ in range(teams)]
    for i in range(teams):
        for j in range(i + 1, teams):
            home = rng.randrange(2)
            venues[i][j] = home
            venues[j][i] = 1 - home
    return Instance(
        "ttppv", f"ttppv-{teams}-s{seed}", {"n": teams, "venues": venues}
    )


# kind -> Family; the order is the order of the CLI's KIND choices
FAMILIES = {
    f.kind: f
    for f in (
        Family("qwh", ".qwh", False, (("n",), ("grid", "n", ROW)),
               _validate_square, _build_qwh, generate_qwh),
        Family("magic", ".magic", False, (("n",), ("grid", "n", ROW)),
               _validate_magic, _build_magic, generate_magic),
        Family("nonogram", ".nonogram", False,
               (("rows", "cols"), ("row_clues", "rows", ROW),
                ("col_clues", "cols", ROW)),
               _validate_nonogram, _build_nonogram, generate_nonogram),
        Family("multiknap", ".mknap", False,
               (("n", "m", "optimum"), ("objective", ONE, ROW),
                ("constraints", "m", PAIR)),
               _validate_multiknap, _build_multiknap, generate_multiknap),
        Family("marketsplit", ".msplit", False,
               (("m", "n"), ("rows", "m", PAIR)),
               _validate_marketsplit, _build_marketsplit, generate_marketsplit),
        Family("rostering", ".txt", True,
               (("employees", "periods", "tasks"), ("grid", "employees", ROW)),
               _validate_rostering, _build_rostering, generate_rostering),
        Family("kprostering", ".txt", True,
               (("employees", "days", "shifts"), ("costs", "employees", ROW),
                ("targets", ONE, ROW), ("forbidden", REST, TUPLE)),
               _validate_kprostering, _build_kprostering, generate_kprostering),
        Family("ttppv", ".txt", True, (("n",), ("venues", "n", ROW)),
               _validate_ttppv, _build_ttppv, generate_ttppv),
    )
}
