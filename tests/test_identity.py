"""Pinned outputs of the benchmark families.

The instance text of every family and a small ``countsearch bench`` sweep
over one generated instance per family are fixed here.  A change to the
file formats, the generators, the model builders or the job runner that
moves any of them changes what earlier result files mean, so it must show
up as a failure here.
"""

import csv
import io

import pytest
from click.testing import CliRunner

from countsearch.bench import FAMILIES, parse_instance, write_instance
from countsearch.cli import CSV_HEADER, cli

# kind -> (generator keywords at seed 7, instance name, write_instance text)
PINNED_TEXT = {
    "qwh": (
        {"order": 5, "holes": 0.4}, "qwh-5-s7",
        "5\n3 1 4 2 0\n0 0 3 0 4\n4 0 5 1 2\n0 0 1 0 0\n0 4 2 3 1\n",
    ),
    "magic": (
        {"order": 3, "filled": 0.3}, "magic-3-s7",
        "3\n0 1 0\n0 0 0\n4 0 0\n",
    ),
    "nonogram": (
        {"rows": 4, "cols": 5}, "nonogram-4x5-s7",
        "4 5\n2 1\n2 2\n3 1\n1 1\n4\n3\n1\n2\n3\n",
    ),
    "multiknap": (
        {"n": 6, "m": 2}, "multiknap-6x2-s7",
        "6 2 10\n21 10 26 42 4 5\n14 14 3 8 3 18 27\n2 27 19 4 8 21 45\n",
    ),
    "marketsplit": (
        {"m": 2}, "marketsplit-2-s7",
        "2 10\n41 19 50 83 6 9 68 12 46 74 204\n"
        "7 64 27 4 11 55 53 8 30 11 135\n",
    ),
    "rostering": (
        {"employees": 3, "periods": 5, "preset": 0.3}, "rostering-3x5-s7",
        "rostering 3 5 4\n-1 -1 -1 1 -1\n-1 -1 2 -1 -1\n-1 -1 3 -1 3\n",
    ),
    "kprostering": (
        {"employees": 2, "days": 5, "n_forbidden": 3}, "kprostering-2x5-s7",
        "kprostering 2 5 3\n6 3 7 1 2\n9 2 6 1 9\n3 11\n0 0 2\n0 4 0\n"
        "1 3 0\n",
    ),
    "ttppv": (
        {"teams": 4}, "ttppv-4-s7",
        "ttppv 4\n0 1 0 1\n0 0 0 0\n1 1 0 0\n0 1 1 0\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_TEXT))
def test_instance_text_is_pinned(kind):
    kwargs, name, text = PINNED_TEXT[kind]
    inst = FAMILIES[kind].generate(seed=7, **kwargs)
    assert inst.name == name
    assert write_instance(inst) == text
    assert parse_instance(text, kind, name).payload == inst.payload


# one instance per family at generator seed 1, written by `generate`
BENCH_FAMILIES = [
    ("qwh", ["order=15", "holes=0.42"]),
    ("magic", ["order=4", "filled=0.1"]),
    ("nonogram", ["rows=12", "cols=12"]),
    ("multiknap", ["n=16", "m=3"]),
    ("marketsplit", ["m=2"]),
    ("rostering", ["employees=5", "periods=10", "preset=0.05"]),
    ("kprostering", ["employees=3", "days=12", "n_forbidden=6"]),
    ("ttppv", ["teams=8"]),
]

# maxSD, seed 0, --backtracks 20, --restart-scale 3; every column but time_ms
PINNED_ROWS = {
    "dfs": """\
kprostering-3x12-s1.txt,maxSD,dfs,,0,sat,0,0
magic-4-s1.magic,maxSD,dfs,,0,sat,7,0
marketsplit-2-s1.msplit,maxSD,dfs,,0,unsat,2,0
multiknap-16x3-s1.mknap,maxSD,dfs,,0,sat,0,0
nonogram-12x12-s1.nonogram,maxSD,dfs,,0,sat,0,0
qwh-15-s1.qwh,maxSD,dfs,,0,sat,0,0
rostering-5x10-s1.txt,maxSD,dfs,,0,sat,0,0
ttppv-8-s1.txt,maxSD,dfs,,0,sat,0,0
""",
    "restart": """\
kprostering-3x12-s1.txt,maxSD,restart,scale=3,0,sat,0,0
magic-4-s1.magic,maxSD,restart,scale=3,0,timeout,20,2
marketsplit-2-s1.msplit,maxSD,restart,scale=3,0,unsat,2,0
multiknap-16x3-s1.mknap,maxSD,restart,scale=3,0,sat,0,0
nonogram-12x12-s1.nonogram,maxSD,restart,scale=3,0,sat,2,0
qwh-15-s1.qwh,maxSD,restart,scale=3,0,sat,0,0
rostering-5x10-s1.txt,maxSD,restart,scale=3,0,sat,0,0
ttppv-8-s1.txt,maxSD,restart,scale=3,0,sat,0,0
""",
    "lds": """\
kprostering-3x12-s1.txt,maxSD,lds,skip=1,0,sat,0,0
magic-4-s1.magic,maxSD,lds,skip=1,0,sat,3,0
marketsplit-2-s1.msplit,maxSD,lds,skip=1,0,unsat,3,0
multiknap-16x3-s1.mknap,maxSD,lds,skip=1,0,sat,0,0
nonogram-12x12-s1.nonogram,maxSD,lds,skip=1,0,sat,0,0
qwh-15-s1.qwh,maxSD,lds,skip=1,0,sat,0,0
rostering-5x10-s1.txt,maxSD,lds,skip=1,0,sat,0,0
ttppv-8-s1.txt,maxSD,lds,skip=1,0,sat,0,0
""",
}


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("families"))
    runner = CliRunner()
    for kind, params in BENCH_FAMILIES:
        args = ["generate", kind, out_dir, "--seed", "1"]
        for p in params:
            args += ["-p", p]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
    return out_dir


@pytest.mark.parametrize("traversal", sorted(PINNED_ROWS))
def test_bench_rows_are_pinned(bench_dir, traversal):
    result = CliRunner().invoke(
        cli,
        ["bench", bench_dir, "--traversal", traversal, "--restart-scale",
         "3", "--backtracks", "20", "--timeout", "60"],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == CSV_HEADER
    time_col = CSV_HEADER.index("time_ms")
    got = "".join(
        ",".join(v for i, v in enumerate(row) if i != time_col) + "\n"
        for row in rows[1:]
    )
    assert got == PINNED_ROWS[traversal]
