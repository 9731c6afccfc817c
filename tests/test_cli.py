"""Command-line interface: exit codes, reports, CSV sweeps."""

import csv
import io
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from countsearch import bench as bench_mod
from countsearch.cli import CSV_HEADER, cli, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# a child interpreter finds the package in src/ whether or not it is installed
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}

FULL_SQUARE = "3\n1 2 3\n2 3 1\n3 1 2\n"
HOLED_SQUARE = "3\n1 0 3\n0 3 1\n3 1 0\n"
UNSAT_SQUARE = "2\n0 0\n1 1\n"  # repeated value in the bottom row
# row 1 has no column left for value 1, which forward checking only finds
# by search: uncapped, maxSD proves unsat after 2 backtracks
NO_FIT_SQUARE = "4\n0 0 1 0\n0 4 0 0\n0 0 0 1\n1 0 0 0\n"
# malformed files: a rostering header without periods and tasks, a square
# with too few rows, and rosters whose one cell has no shift left to take,
# because every shift is forbidden or there are none
MALFORMED = {
    "bad.txt": "rostering 3\n1 2\n",
    "short.qwh": "3\n1 2 3\n",
    "noshift.txt": "kprostering 1 1 1\n5\n0\n0 0 0\n",
    "zeroshifts.txt": "kprostering 1 1 0\n5\n0\n",
}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_full_square_is_sat_with_zero_backtracks(runner, tmp_path):
    path = _write(tmp_path, "full.qwh", FULL_SQUARE)
    result = runner.invoke(cli, ["solve", path])
    assert result.exit_code == 0
    assert "status:     sat" in result.output
    assert "backtracks: 0" in result.output


def test_solve_unsat_exit_code(runner, tmp_path):
    path = _write(tmp_path, "bad.qwh", UNSAT_SQUARE)
    result = runner.invoke(cli, ["solve", path])
    assert result.exit_code == 1
    assert "status:     unsat" in result.output


def test_solve_zero_timeout_exit_code(runner, tmp_path):
    path = _write(tmp_path, "holed.qwh", HOLED_SQUARE)
    result = runner.invoke(cli, ["solve", path, "--timeout", "0"])
    assert result.exit_code == 2
    assert "status:     timeout" in result.output


def test_solve_every_traversal(runner, tmp_path):
    path = _write(tmp_path, "holed.qwh", HOLED_SQUARE)
    for traversal in ("dfs", "restart", "lds"):
        result = runner.invoke(cli, ["solve", path, "--traversal", traversal])
        assert result.exit_code == 0, result.output


def test_solve_wscavg_under_gaussian_knapsacks(runner, tmp_path):
    # Gaussian tables have no count, so wSCAvg scores no pair at all
    path = _write(tmp_path, "ms.msplit",
                  bench_mod.write_instance(bench_mod.generate_marketsplit(3, 0)))
    result = runner.invoke(cli, [
        "solve", path, "--heuristic", "wSCAvg", "--knapsack-mode", "gaussian",
        "--backtracks", "20",
    ])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == 2, result.output
    assert "status:     timeout" in result.output
    assert "backtracks: 20" in result.output


def _main(monkeypatch, capsys, *args):
    """Run the console entry point in-process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["countsearch", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_usage_error_exit_code_is_three(tmp_path):
    path = _write(tmp_path, "full.qwh", FULL_SQUARE)
    proc = subprocess.run(
        [sys.executable, "-m", "countsearch.cli",
         "solve", path, "--heuristic", "bogus"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 3


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["solve", "densities"])
def test_malformed_file_is_usage_error(monkeypatch, capsys, tmp_path,
                                       command, name):
    path = _write(tmp_path, name, MALFORMED[name])
    code, out, err = _main(monkeypatch, capsys, command, path)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("args", [
    ["qwh", "-p", "foo=1"],  # unknown keyword
    ["magic", "-p", "order=6"],  # singly even order
    ["kprostering", "-p", "shifts=1"],  # no shift left to forbid
    ["kprostering", "-p", "employees=1", "-p", "days=2", "-p", "n_forbidden=5"],
], ids=["unknown-key", "magic-order-6", "kprostering-shifts-1",
        "kprostering-too-many-forbidden"])
def test_generate_rejected_params_are_usage_errors(tmp_path, args):
    out_dir = tmp_path / "gen"
    proc = subprocess.run(
        [sys.executable, "-m", "countsearch.cli", "generate", args[0],
         str(out_dir), *args[1:]],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: cannot generate {args[0]}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    ["bench", "{dir}", "--jobs", "0"],
    ["bench", "{dir}", "--jobs", "-2"],
    ["generate", "qwh", "{dir}", "--count", "0"],
    ["generate", "qwh", "{dir}", "--count", "-1"],
], ids=["jobs-0", "jobs-negative", "count-0", "count-negative"])
def test_counts_must_be_positive(runner, tmp_path, args):
    _write(tmp_path, "full.qwh", FULL_SQUARE)
    args = [a.format(dir=tmp_path) for a in args]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert args[-2] in result.output


@pytest.mark.parametrize("option", ["--lds-skip", "--restart-scale"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_lds_skip_and_restart_scale_must_be_positive(
    runner, tmp_path, command, option
):
    path = _write(tmp_path, "full.qwh", FULL_SQUARE)
    target = path if command == "solve" else str(tmp_path)
    result = runner.invoke(cli, [command, target, option, "0"])
    assert result.exit_code == 2
    assert option in result.output


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_backtracks_must_be_nonnegative(runner, tmp_path, command):
    path = _write(tmp_path, "full.qwh", FULL_SQUARE)
    target = path if command == "solve" else str(tmp_path)
    result = runner.invoke(cli, [command, target, "--backtracks", "-1"])
    assert result.exit_code == 2
    assert "--backtracks" in result.output


def test_solve_with_zero_backtracks_stops_at_first_failure(runner, tmp_path):
    path = _write(tmp_path, "nofit.qwh", NO_FIT_SQUARE)
    args = ["solve", path, "--consistency", "fc"]
    assert "backtracks: 2" in runner.invoke(cli, args).output
    result = runner.invoke(cli, args + ["--backtracks", "0"])
    assert result.exit_code == 2
    assert "status:     timeout" in result.output
    assert "backtracks: 0" in result.output


def test_densities_dump_with_exact(runner, tmp_path):
    path = _write(tmp_path, "holed.qwh", HOLED_SQUARE)
    result = runner.invoke(cli, ["densities", path, "--exact"])
    assert result.exit_code == 0
    assert "alldifferent" in result.output
    assert "exact count:" in result.output


def test_densities_unsat_instance(runner, tmp_path):
    path = _write(tmp_path, "bad.qwh", UNSAT_SQUARE)
    result = runner.invoke(cli, ["densities", path])
    assert result.exit_code == 1
    assert "unsatisfiable" in result.output


def _run_bench(runner, tmp_path, out_name):
    out = str(tmp_path / out_name)
    result = runner.invoke(
        cli,
        ["bench", str(tmp_path / "instances"),
         "--heuristic", "maxSD", "--heuristic", "dom",
         "--seeds", "0,1", "--timeout", "30", "-o", out],
    )
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        return list(csv.reader(fh))


def test_bench_sweep_schema_and_determinism(runner, tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "a.qwh").write_text(HOLED_SQUARE)
    (inst_dir / "b.qwh").write_text(FULL_SQUARE)
    rows1 = _run_bench(runner, tmp_path, "run1.csv")
    rows2 = _run_bench(runner, tmp_path, "run2.csv")
    assert rows1[0] == CSV_HEADER
    # 2 instances x 2 heuristics x 2 seeds
    assert len(rows1) == 1 + 8
    time_col = CSV_HEADER.index("time_ms")

    def strip(rows):
        return [
            [v for i, v in enumerate(row) if i != time_col] for row in rows
        ]

    assert strip(rows1) == strip(rows2)
    for row in rows1[1:]:
        assert row[CSV_HEADER.index("status")] == "sat"


def test_bench_skips_and_names_malformed_files(runner, tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ok.qwh").write_text(FULL_SQUARE)
    for name, text in MALFORMED.items():
        (inst_dir / name).write_text(text)
    (inst_dir / "binary.qwh").write_bytes(b"\xff\xfe\x00\x01")
    result = runner.invoke(cli, ["bench", str(inst_dir)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert [row[0] for row in rows[1:]] == ["ok.qwh"]
    for name in ["bad.txt", "binary.qwh", "noshift.txt", "short.qwh",
                 "zeroshifts.txt"]:
        assert f"# skipped {inst_dir / name}: " in result.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_failed_job_prints_its_traceback(monkeypatch, runner, tmp_path,
                                               jobs):
    # no valid instance is known to crash a job, so one is made to; the
    # worker processes of --jobs 2 are forked and inherit the patch
    run_job = bench_mod.run_job

    def failing(instance, *args, **kwargs):
        if instance.name == "fail.qwh":
            raise RuntimeError("modelling failed")
        return run_job(instance, *args, **kwargs)

    monkeypatch.setattr(bench_mod, "run_job", failing)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ok.qwh").write_text(FULL_SQUARE)
    (inst_dir / "fail.qwh").write_text(FULL_SQUARE)
    result = runner.invoke(cli, ["bench", str(inst_dir), "--jobs", jobs])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows == [
        CSV_HEADER,
        ["fail.qwh", "maxSD", "dfs", "", "0", "error:RuntimeError", "0", "0",
         "0"],
        ["ok.qwh", "maxSD", "dfs", "", "0", "sat", "0", rows[2][7], "0"],
    ]
    assert "# fail.qwh maxSD seed 0 failed:\nTraceback" in result.stderr
    assert "RuntimeError: modelling failed" in result.stderr


def test_bench_empty_dir_is_usage_error(runner, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    result = runner.invoke(cli, ["bench", str(empty)])
    assert result.exit_code != 0


def test_generate_writes_instances(runner, tmp_path):
    out_dir = str(tmp_path / "gen")
    result = runner.invoke(
        cli,
        ["generate", "qwh", out_dir, "--count", "3", "--seed", "2",
         "-p", "order=4", "-p", "holes=0.3"],
    )
    assert result.exit_code == 0, result.output
    paths = result.output.split()
    assert len(paths) == 3
    # generated files are loadable and solvable
    solve = CliRunner().invoke(cli, ["solve", paths[0]])
    assert solve.exit_code == 0


def test_generate_bad_param_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        cli, ["generate", "qwh", str(tmp_path / "g"), "-p", "order"]
    )
    assert result.exit_code != 0
