"""Benchmark instances: formats, DFA compilers, builders, generators."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.bench import (
    FAMILIES,
    Instance,
    ParseError,
    apply_overrides,
    build_model,
    generate_kprostering,
    generate_marketsplit,
    generate_multiknap,
    generate_nonogram,
    generate_qwh,
    generate_rostering,
    generate_ttppv,
    infer_kind,
    load_instance,
    nonogram_clue_dfa,
    parse_instance,
    rostering_dfa,
    save_instance,
    ttppv_pattern_dfa,
    write_instance,
    _clues_of,
)
from countsearch.engine import CONSISTENT, LEVELS, WIPEOUT
from countsearch.knapsack import EXACT, MODES, Knapsack
from countsearch.heuristics import MaxSD, make_heuristic
from countsearch.regular import Regular, build_layered_graph
from countsearch.search import SAT, dfs

from conftest import full_domain_model

_GEN_ARGS = {
    "qwh": {"order": 5, "holes": 0.4},
    "magic": {"order": 3, "filled": 0.3},
    "nonogram": {"rows": 5, "cols": 5},
    "multiknap": {"n": 8, "m": 2},
    "marketsplit": {"m": 2},
    "rostering": {"employees": 3, "periods": 5, "preset": 0.3},
    "kprostering": {"employees": 2, "days": 6, "n_forbidden": 3},
    "ttppv": {"teams": 4},
}


# ----------------------------------------------------------------------
# formats
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", FAMILIES)
def test_round_trip_is_byte_identical(kind, tmp_path):
    inst = FAMILIES[kind].generate(seed=3, **_GEN_ARGS[kind])
    text = write_instance(inst)
    again = parse_instance(text, kind, inst.name)
    assert write_instance(again) == text
    assert again.payload == inst.payload
    path = tmp_path / "inst.txt"
    save_instance(inst, str(path))
    loaded = load_instance(str(path), kind)
    assert loaded.payload == inst.payload


def test_infer_kind_by_extension_and_tag():
    assert infer_kind("a/b/foo.qwh", "") == "qwh"
    assert infer_kind("foo.mknap", "") == "multiknap"
    assert infer_kind("foo.msplit", "") == "marketsplit"
    text = write_instance(generate_rostering(seed=1, employees=3, periods=4))
    assert infer_kind("foo.txt", text) == "rostering"
    with pytest.raises(ParseError):
        infer_kind("foo.dat", "3 3\n1 2 3\n")


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n3  # order\n1 2 3\n2 3 1\n3 1 2\n"
    inst = parse_instance(text, "qwh")
    assert inst.payload["n"] == 3
    assert inst.payload["grid"][0] == [1, 2, 3]


def test_malformed_instances_rejected():
    with pytest.raises(ParseError):
        parse_instance("", "qwh")
    with pytest.raises(ParseError):
        parse_instance("2\n1 2\n", "qwh")  # missing a grid row
    with pytest.raises(ParseError):
        parse_instance("2\n1 x\n2 1\n", "qwh")  # non-integer entry
    with pytest.raises(ParseError):
        # clue cannot fit in the row
        parse_instance("1 2\n3\n1\n1\n", "nonogram")
    with pytest.raises(ParseError):
        parse_instance("2\n1 2\n1 2\n2 1\n", "qwh")  # a line after the grid
    with pytest.raises(ParseError):
        parse_instance("1 2 3\n1\n0\n0\n", "nonogram")  # an int after the header
    with pytest.raises(ParseError):
        # an int after the header
        parse_instance("ttppv 4 9\n0 1 1 0\n0 0 1 1\n0 0 0 1\n1 0 0 0\n", "ttppv")
    with pytest.raises(ParseError, match="n must be at least 0"):
        parse_instance("-1\n", "qwh")  # a negative row count
    with pytest.raises(ValueError):
        Instance("mystery", "m", {})


@pytest.mark.parametrize("kind,text", [
    ("nonogram", "2 2\n1\n"),  # too few clue lines
    ("multiknap", "3 2 5\n1 2 3\n1 1 1 2\n"),  # a constraint line missing
    ("marketsplit", "2\n1 2 3\n"),  # no column count
    ("rostering", "rostering 3\n1 2\n"),  # no periods or tasks
    ("kprostering", "kprostering 1 2 3\n1 1\n"),  # no targets line
    ("ttppv", "ttppv 4\n0 1 0 1\n"),  # too few venue rows
    ("ttppv", "rostering 4\n0 1 0 1\n"),  # another family's tag
], ids=["nonogram-clues", "multiknap-rows", "marketsplit-header",
        "rostering-header", "kprostering-targets", "ttppv-rows", "ttppv-tag"])
def test_truncated_instances_raise_parse_error(kind, text):
    with pytest.raises(ParseError):
        parse_instance(text, kind)


@pytest.mark.parametrize("text", [
    "1 2\n-1\n0\n0\n",  # was read as an empty row
    "1 3\n0 2\n1\n1\n0\n",  # was read as the clue [2]
    "1 2\n2 0\n1\n1\n",  # was rejected as a clue that cannot fit
], ids=["negative", "leading-zero", "trailing-zero"])
def test_nonogram_clue_entries_below_one_raise_parse_error(text):
    with pytest.raises(ParseError, match="entry below 1"):
        parse_instance(text, "nonogram")


@st.composite
def _mutated_texts(draw):
    """A generated instance's text with one token or one line changed,
    deleted or duplicated."""
    kind = draw(st.sampled_from(list(FAMILIES)))
    inst = FAMILIES[kind].generate(
        seed=draw(st.integers(0, 20)), **_GEN_ARGS[kind]
    )
    lines = [line.split() for line in write_instance(inst).splitlines()]
    r = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):  # a token of line r
        row, i = lines[r], draw(st.integers(0, len(lines[r]) - 1))
        new = draw(st.sampled_from(["-1", "0", "1", "2", "7", "x"]))
    else:  # line r
        row, i = lines, r
        new = draw(st.sampled_from([["0"], ["3", "1"], ["-2", "5", "9"], [kind]]))
    op = draw(st.sampled_from(["change", "delete", "duplicate"]))
    row[i : i + 1] = {"change": [new], "delete": [], "duplicate": [row[i]] * 2}[op]
    return kind, "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_mutated_texts())
def test_mutated_files_raise_parse_error_or_round_trip(case):
    # one layout per family reads and writes its files: whatever a
    # mutated file parses to writes back to a text that reads the same
    kind, text = case
    try:
        inst = parse_instance(text, kind)
    except ParseError:
        return
    written = write_instance(inst)
    again = parse_instance(written, kind)
    assert again.payload == inst.payload
    assert write_instance(again) == written


@pytest.mark.parametrize("text,message", [
    ("kprostering 1 2 2\n5 5\n0\n0 1 0\n0 1 1\n",
     "employee 0 day 1: every shift is forbidden"),
    ("kprostering 1 1 0\n5\n0\n", "shift count 0 is below 1"),
], ids=["every-shift-forbidden", "no-shifts"])
def test_kprostering_cell_without_shifts_raises_parse_error(text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text, "kprostering")


@pytest.mark.parametrize("kind,text,message", [
    ("magic", "3\n0 0 7\n0 0 7\n0 9 0\n", "presets repeat a value"),
    ("multiknap", "2 1 3\n1 2\n1 1 -1\n", "negative capacity"),
    ("rostering", "rostering 1 2 0\n-1 -1\n", "at least one task"),
    ("ttppv", "ttppv 5\n" + "0 0 0 0 0\n" * 5, "must be even"),
], ids=["magic-repeated-preset", "multiknap-negative-capacity",
        "rostering-no-task", "ttppv-odd-teams"])
def test_validators_reject_out_of_range_payloads(kind, text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text, kind)


def test_overrides_reject_an_unknown_consistency_level():
    model = build_model(generate_qwh(4, 0.5, seed=0))
    with pytest.raises(ValueError, match="unknown consistency level 'dom'"):
        apply_overrides(model, "dom", EXACT)


def test_overrides_reject_an_unknown_knapsack_mode():
    # set as is, a mistyped mode made every knapsack count on its exact
    # graph, as only the Gaussian mode is tested for
    model = build_model(generate_marketsplit(2, 0))
    with pytest.raises(ValueError, match="unknown counting mode 'gausian'"):
        apply_overrides(model, "domain", "gausian")
    with pytest.raises(ValueError, match="unknown counting mode 'gausian'"):
        Knapsack(model.variables[:2], [1, 1], 0, 1, mode="gausian")
    # a model without knapsacks rejects it too
    model = build_model(generate_qwh(4, 0.5, seed=0))
    with pytest.raises(ValueError, match="unknown counting mode 'gausian'"):
        apply_overrides(model, "domain", "gausian")


def test_ttppv_validator_requires_antisymmetry():
    with pytest.raises(ParseError):
        Instance(
            "ttppv",
            "bad",
            {"n": 4, "venues": [[0] * 4 for _ in range(4)]},
        )


# ----------------------------------------------------------------------
# DFA compilers
# ----------------------------------------------------------------------
def test_nonogram_clue_placements():
    # blocks 2,1 in 5 cells: 11010, 11001, 01101 -> 3 placements
    dfa = nonogram_clue_dfa([2, 1])
    graph = build_layered_graph(dfa, [{0, 1}] * 5)
    assert graph.path_counts()[0] == 3
    assert dfa.accepts([1, 1, 0, 1, 0])
    assert dfa.accepts([0, 1, 1, 0, 1])
    assert not dfa.accepts([1, 1, 1, 0, 1])
    assert not dfa.accepts([1, 0, 1, 0, 1])


def test_nonogram_empty_clue():
    dfa = nonogram_clue_dfa([0])
    assert dfa.accepts([0, 0, 0])
    assert not dfa.accepts([0, 1, 0])


def test_rostering_dfa_rules():
    dfa = rostering_dfa(3)
    assert dfa.accepts([1, 1, 2, 0, 3])  # adjacent moves, break, restart
    assert dfa.accepts([0, 0, 2, 3])  # may start with breaks
    assert not dfa.accepts([1, 3])  # tasks 1 and 3 are not adjacent
    assert not dfa.accepts([2, 0, 1])  # after a break from 2, task 1 barred


def test_ttppv_pattern_dfa_limits_runs():
    # team 0 plays all others at home: four home games in a row exceed
    # the three-consecutive limit
    n = 6
    venues = [[0] * n for _ in range(n)]
    for j in range(1, n):
        venues[0][j] = 1
        venues[j][0] = 0
    for i in range(1, n):
        for j in range(i + 1, n):
            venues[i][j] = 1
            venues[j][i] = 0
    dfa = ttppv_pattern_dfa(0, venues)
    assert dfa.accepts([2, 3, 4])  # three home games: allowed
    assert not dfa.accepts([2, 3, 4, 5])  # four in a row: barred


def _words(alphabet, max_len):
    """Every word over ``alphabet`` of length 0 .. ``max_len``."""
    for k in range(max_len + 1):
        yield from product(alphabet, repeat=k)


def test_nonogram_dfa_language_is_the_clue():
    # a word is accepted iff its runs of 1s are the clue's blocks
    rng = random.Random(11)
    clues = [[0]]
    while len(clues) < 12:
        clue = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        if sum(clue) + len(clue) - 1 <= 11:
            clues.append(clue)
    for clue in clues:
        dfa = nonogram_clue_dfa(clue)
        for word in _words((0, 1), 11):
            assert dfa.accepts(word) == (_clues_of(word) == clue), (clue, word)


def _roster_ok(word):
    """Adjacent or equal tasks in a row, and after a break run that
    followed task t, never task t - 1."""
    for k in range(1, len(word)):
        a, b = word[k - 1], word[k]
        if a and b and abs(a - b) > 1:
            return False
        if not a and b:
            before = [t for t in word[:k] if t]
            if before and b == before[-1] - 1:
                return False
    return True


def test_rostering_dfa_language_is_the_rules():
    for n_tasks in range(1, 6):
        dfa = rostering_dfa(n_tasks)
        for word in _words(range(n_tasks + 1), 6):
            assert dfa.accepts(word) == _roster_ok(word), (n_tasks, word)


def _ttppv_ok(team, venues, word, max_run=3):
    """No self-opponent, and no more than ``max_run`` rounds in a row at
    one venue."""
    if team + 1 in word:
        return False
    homes = [venues[team][o - 1] for o in word]
    return all(
        len(set(homes[k : k + max_run + 1])) > 1
        for k in range(len(homes) - max_run)
    )


def test_ttppv_dfa_language_is_the_venue_rule():
    rng = random.Random(5)
    for n, max_len in ((4, 6), (6, 5)):
        # team 0 is at home against every other team
        venues = [[int(i < j) for j in range(n)] for i in range(n)]
        random_venues = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                random_venues[i][j] = rng.randrange(2)
                random_venues[j][i] = 1 - random_venues[i][j]
        for table in (venues, random_venues):
            for team in range(n):
                dfa = ttppv_pattern_dfa(team, table)
                for word in _words(range(1, n + 1), max_len):
                    assert dfa.accepts(word) == _ttppv_ok(team, table, word), (
                        team, word
                    )


# ----------------------------------------------------------------------
# model builders
# ----------------------------------------------------------------------
def test_qwh_model_structure():
    inst = generate_qwh(order=4, holes=0.4, seed=1)
    model = build_model(inst)
    assert len(model.variables) == 16
    assert len(model.constraints) == 8
    assert all(isinstance(c, AllDifferent) for c in model.constraints)


def test_magic_model_structure():
    inst = Instance("magic", "m9", {"n": 9, "grid": [[0] * 9] * 9})
    model = build_model(inst)
    alldiffs = [c for c in model.constraints if isinstance(c, AllDifferent)]
    knaps = [c for c in model.constraints if isinstance(c, Knapsack)]
    assert len(alldiffs) == 1
    assert len(knaps) == 20  # 9 rows + 9 columns + 2 diagonals
    assert all(c.lower == c.upper == 369 for c in knaps)


def test_nonogram_model_structure():
    inst = generate_nonogram(rows=5, cols=4, seed=2)
    model = build_model(inst)
    assert len(model.variables) == 20
    assert len(model.constraints) == 9
    assert all(isinstance(c, Regular) for c in model.constraints)


def test_ttppv_model_structure():
    inst = generate_ttppv(teams=4, seed=2)
    model = build_model(inst)
    assert len(model.variables) == 4 * 3
    sym = [
        c for c in model.constraints if isinstance(c, SymmetricAllDifferent)
    ]
    assert len(sym) == 3  # one pairing constraint per round


#: (kind, order) of the qwh and magic builds whose holes are checked
_HOLE_ORDERS = [("qwh", n) for n in range(3, 26)] + [("magic", n) for n in (3, 4, 5)]


def _hole_instances(kind, order):
    """Three seeds at the generator's default fraction and at one more."""
    key, fractions = ("holes", (0.42, 0.7)) if kind == "qwh" else ("filled", (0.1, 0.4))
    for seed, fraction in product(range(3), fractions):
        yield FAMILIES[kind].generate(order=order, seed=seed, **{key: fraction})


@pytest.mark.parametrize("kind,order", _HOLE_ORDERS)
def test_holes_leave_out_the_values_their_lines_preset(kind, order):
    """A qwh hole starts without the values its row and its column preset,
    a magic hole without every preset of the square (one AllDifferent)."""
    for inst in _hole_instances(kind, order):
        grid, model = inst.payload["grid"], build_model(inst)
        everywhere = {v for row in grid for v in row}
        for r, row in enumerate(grid):
            for c, v in enumerate(row):
                dom = model.domain(model.variables[r * order + c])
                if v:
                    assert dom == {v}
                    continue
                lines = set(row) | {line[c] for line in grid}
                assert dom and not dom & (lines if kind == "qwh" else everywhere)


@pytest.mark.parametrize("kind,order", _HOLE_ORDERS)
def test_holes_reach_the_root_fixpoint_of_full_domains(kind, order):
    """Root propagation from ``bench``'s holes ends where it ends from
    holes over the whole value range, at every consistency level and, for
    magic, in both knapsack modes: the same status and the same domains,
    so the builder cannot move a decision."""
    modes = MODES if kind == "magic" else (EXACT,)
    for inst, consistency, mode in product(_hole_instances(kind, order), LEVELS, modes):
        built, full = build_model(inst), full_domain_model(inst)
        for model in (built, full):
            apply_overrides(model, consistency, mode)
        assert built.propagate() == full.propagate() == CONSISTENT
        assert built._domains == full._domains, (inst.name, consistency, mode)


def test_a_hole_whose_lines_preset_every_value_wipes_out_at_the_root():
    """It keeps the whole range, so root propagation finds the conflict as
    it does on the full-domain encoding, rather than the build failing on
    an empty domain."""
    inst = parse_instance("2\n1 0\n0 2\n", "qwh")
    built, full = build_model(inst), full_domain_model(inst)
    assert built.domain(built.variables[1]) == {1, 2}
    assert built.propagate() == full.propagate() == WIPEOUT


# ----------------------------------------------------------------------
# generators produce solvable instances at desk scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind", ["qwh", "magic", "nonogram", "multiknap", "rostering",
             "kprostering"]
)
def test_generated_instances_are_satisfiable(kind):
    inst = FAMILIES[kind].generate(seed=5, **_GEN_ARGS[kind])
    assert inst.status == "sat"
    model = build_model(inst)
    stats = dfs(model, MaxSD(model), backtrack_limit=50_000)
    assert stats.status == SAT


@pytest.mark.parametrize("kind,params", [
    ("qwh", {"order": 5, "holes": -0.2}),  # punched 20 of 25 cells
    ("magic", {"order": 4, "filled": -0.1}),  # preset 15 of 16 cells
    ("rostering", {"employees": 3, "periods": 5, "preset": -0.2}),  # 12 of 15
    ("rostering", {"employees": 3, "periods": 5, "preset": 1.2}),
    ("nonogram", {"rows": 4, "cols": 4, "density": 1.7}),  # all filled
    ("nonogram", {"rows": 4, "cols": 4, "density": -0.5}),  # all blank
])
def test_generators_reject_a_cell_fraction_outside_0_1(kind, params):
    key = list(params)[-1]
    with pytest.raises(ValueError, match=f"{key} must be in \\[0, 1\\]"):
        FAMILIES[kind].generate(seed=0, **params)
    # the ends of the range stay valid
    for fraction in (0, 1):
        FAMILIES[kind].generate(seed=0, **{**params, key: fraction})


def test_marketsplit_round_trips_and_builds():
    inst = generate_marketsplit(m=2, seed=4)
    assert inst.status is None  # satisfiability unknown by construction
    model = build_model(inst)
    assert len(model.variables) == 10
    assert len(model.constraints) == 2


def test_generators_are_seed_deterministic():
    for kind in FAMILIES:
        a = FAMILIES[kind].generate(seed=9, **_GEN_ARGS[kind])
        b = FAMILIES[kind].generate(seed=9, **_GEN_ARGS[kind])
        c = FAMILIES[kind].generate(seed=10, **_GEN_ARGS[kind])
        assert a.payload == b.payload
        assert a.payload != c.payload
