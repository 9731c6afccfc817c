"""Command-line front end: solve, densities, bench, generate.

Exit codes for ``solve``: 0 sat, 1 unsat, 2 timeout, 3+ usage errors.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
import random
import sys

import click

from . import bench as bench_mod
from .engine import WIPEOUT, Model
from .heuristics import HEURISTIC_NAMES, make_heuristic
from .knapsack import EXACT, GAUSSIAN, Knapsack
from .oracle import OracleCapExceeded, exact_count_densities
from .search import SAT, TIMEOUT, UNSAT, dfs, lds, restart_search

CSV_HEADER = [
    "instance",
    "heuristic",
    "traversal",
    "params",
    "seed",
    "status",
    "backtracks",
    "time_ms",
    "restarts",
]

_EXIT = {SAT: 0, UNSAT: 1, TIMEOUT: 2}


def _apply_overrides(model: Model, consistency: str, knapsack_mode: str) -> None:
    for c in model.constraints:
        c.consistency = consistency
        if isinstance(c, Knapsack):
            c.mode = knapsack_mode
            if knapsack_mode == GAUSSIAN:
                c.consistency = "bounds"


def _run_search(model, heuristic, traversal, timeout, scale, skip, backtracks):
    if traversal == "restart":
        return restart_search(
            model, heuristic, scale=scale, timeout=timeout,
            backtrack_limit=backtracks,
        )
    if traversal == "lds":
        return lds(
            model, heuristic, skip=skip, timeout=timeout,
            backtrack_limit=backtracks,
        )
    return dfs(model, heuristic, timeout=timeout, backtrack_limit=backtracks)


@click.group()
def cli():
    """Constraint solver with counting-based branching heuristics."""


_common = [
    click.option("--kind", type=click.Choice(bench_mod.KINDS), default=None,
                 help="Instance kind (default: inferred from the file)."),
    click.option("--heuristic", "heuristic_name",
                 type=click.Choice(HEURISTIC_NAMES), default="maxSD",
                 show_default=True),
    click.option("--traversal", type=click.Choice(["dfs", "restart", "lds"]),
                 default="dfs", show_default=True),
    click.option("--restart-scale", type=click.IntRange(min=1), default=100,
                 show_default=True,
                 help="Backtrack cutoff of the first restart run."),
    click.option("--lds-skip", type=click.IntRange(min=1), default=1,
                 show_default=True, help="Discrepancies added per LDS wave."),
    click.option("--timeout", type=float, default=1200.0, show_default=True,
                 help="Time budget in seconds."),
    click.option("--backtracks", type=click.IntRange(min=0), default=None,
                 help="Backtrack budget."),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--consistency", type=click.Choice(["fc", "bounds", "domain"]),
                 default="domain", show_default=True),
    click.option("--knapsack-mode", type=click.Choice([EXACT, GAUSSIAN]),
                 default=EXACT, show_default=True),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@cli.command()
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@_with_common
def solve(instance_file, kind, heuristic_name, traversal, restart_scale,
          lds_skip, timeout, backtracks, seed, consistency, knapsack_mode):
    """Solve one instance and print a short report."""
    instance = bench_mod.load_instance(instance_file, kind)
    model = bench_mod.build_model(instance)
    _apply_overrides(model, consistency, knapsack_mode)
    heuristic = make_heuristic(heuristic_name, model, random.Random(seed))
    stats = _run_search(
        model, heuristic, traversal, timeout, restart_scale, lds_skip,
        backtracks,
    )
    click.echo(f"instance:   {instance.name}")
    click.echo(f"status:     {stats.status}")
    click.echo(f"backtracks: {stats.backtracks}")
    click.echo(f"time_ms:    {stats.time_ms:.1f}")
    if stats.restarts:
        click.echo(f"restarts:   {stats.restarts}")
    if stats.solution is not None:
        items = sorted(stats.solution.items())
        click.echo("solution:   " + " ".join(f"{k}={v}" for k, v in items))
    sys.exit(_EXIT[stats.status])


@cli.command()
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(bench_mod.KINDS), default=None)
@click.option("--exact", is_flag=True,
              help="Print brute-force densities next to the estimates.")
@click.option("--consistency", type=click.Choice(["fc", "bounds", "domain"]),
              default="domain", show_default=True)
@click.option("--knapsack-mode", type=click.Choice([EXACT, GAUSSIAN]),
              default=EXACT, show_default=True)
def densities(instance_file, kind, exact, consistency, knapsack_mode):
    """Propagate the root node and dump every density table."""
    instance = bench_mod.load_instance(instance_file, kind)
    model = bench_mod.build_model(instance)
    _apply_overrides(model, consistency, knapsack_mode)
    if model.propagate() == WIPEOUT:
        click.echo("root propagation wiped out: instance is unsatisfiable")
        sys.exit(1)
    tables = model.collect_densities()
    for table in tables:
        c = table.constraint
        count = (
            "-inf" if table.log_count == -math.inf
            else f"{math.exp(table.log_count):.6g}"
        )
        click.echo(f"[{c.cid}] {c.name()} count~{count}")
        exact_table = None
        if exact:
            doms = [model.domain(v) for v in c.scope]
            try:
                exact_count, exact_table = exact_count_densities(c, doms)
                click.echo(f"    exact count: {exact_count}")
            except OracleCapExceeded as exc:
                click.echo(f"    exact: refused ({exc})")
        for var in c.scope:
            if model.is_bound(var):
                continue
            parts = []
            for d in model.domain_sorted(var):
                sigma = table.density(var, d)
                if exact_table is not None:
                    frac = exact_table.get((var.index, d), 0)
                    parts.append(f"{d}:{sigma:.4f}({frac})")
                else:
                    parts.append(f"{d}:{sigma:.4f}")
            click.echo(f"    {var.name}  " + "  ".join(parts))
    sys.exit(0)


def _bench_job(args):
    (instance, heuristic_name, traversal, scale, skip, timeout, backtracks,
     seed, consistency, knapsack_mode) = args
    params = f"scale={scale}" if traversal == "restart" else (
        f"skip={skip}" if traversal == "lds" else ""
    )
    row = {
        "instance": instance.name,
        "heuristic": heuristic_name,
        "traversal": traversal,
        "params": params,
        "seed": seed,
        "status": "error",
        "backtracks": 0,
        "time_ms": 0,
        "restarts": 0,
    }
    try:
        model = bench_mod.build_model(instance)
        _apply_overrides(model, consistency, knapsack_mode)
        heuristic = make_heuristic(heuristic_name, model, random.Random(seed))
        stats = _run_search(
            model, heuristic, traversal, timeout, scale, skip, backtracks
        )
        row["status"] = stats.status
        row["backtracks"] = stats.backtracks
        row["time_ms"] = f"{stats.time_ms:.1f}"
        row["restarts"] = stats.restarts
    except Exception as exc:  # partial failures become rows, sweep continues
        row["params"] = params
        row["status"] = f"error:{type(exc).__name__}"
    return row


@cli.command("bench")
@click.argument("instance_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--heuristic", "heuristics", multiple=True,
              type=click.Choice(HEURISTIC_NAMES), default=("maxSD",),
              show_default=True, help="May be repeated.")
@click.option("--traversal", type=click.Choice(["dfs", "restart", "lds"]),
              default="dfs", show_default=True)
@click.option("--restart-scale", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--lds-skip", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--timeout", type=float, default=1200.0, show_default=True)
@click.option("--backtracks", type=click.IntRange(min=0), default=None)
@click.option("--seeds", default="0", show_default=True,
              help="Comma-separated seed list.")
@click.option("--consistency", type=click.Choice(["fc", "bounds", "domain"]),
              default="domain", show_default=True)
@click.option("--knapsack-mode", type=click.Choice([EXACT, GAUSSIAN]),
              default=EXACT, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
def bench_cmd(instance_dir, heuristics, traversal, restart_scale, lds_skip,
              timeout, backtracks, seeds, consistency, knapsack_mode, jobs,
              output):
    """Sweep instances x heuristics x seeds; emit one CSV row per job."""
    try:
        seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError:
        raise click.UsageError(f"bad --seeds list: {seeds!r}")
    files = sorted(
        os.path.join(instance_dir, f)
        for f in os.listdir(instance_dir)
        if not f.startswith(".")
    )
    instances = []
    for path in files:
        try:
            instances.append(bench_mod.load_instance(path))
        except (bench_mod.ParseError, OSError):
            continue
    if not instances:
        raise click.UsageError(f"no readable instances in {instance_dir}")
    job_args = [
        (inst, h, traversal, restart_scale, lds_skip, timeout, backtracks,
         seed, consistency, knapsack_mode)
        for inst in instances
        for h in heuristics
        for seed in seed_list
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_job, job_args))
    else:
        rows = [_bench_job(a) for a in job_args]
    out = open(output, "w", newline="") if output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if output:
            out.close()
    # cumulative solved summary per heuristic, on stderr to keep CSV clean
    for h in heuristics:
        solved = sum(
            1 for r in rows if r["heuristic"] == h and r["status"] == SAT
        )
        total = sum(1 for r in rows if r["heuristic"] == h)
        click.echo(f"# {h}: {solved}/{total} solved", err=True)


@cli.command()
@click.argument("kind", type=click.Choice(bench_mod.KINDS))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--param", "-p", "params", multiple=True,
              help="Generator keyword, e.g. -p order=12 -p holes=0.42")
def generate(kind, out_dir, count, seed, params):
    """Write generated instances of KIND into OUT_DIR."""
    kwargs = {}
    for item in params:
        if "=" not in item:
            raise click.UsageError(f"bad -p {item!r}; expected key=value")
        key, value = item.split("=", 1)
        try:
            kwargs[key] = int(value)
        except ValueError:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise click.UsageError(f"bad value in -p {item!r}")
    os.makedirs(out_dir, exist_ok=True)
    ext = {
        "qwh": ".qwh", "magic": ".magic", "nonogram": ".nonogram",
        "multiknap": ".mknap", "marketsplit": ".msplit",
        "rostering": ".txt", "kprostering": ".txt", "ttppv": ".txt",
    }[kind]
    for i in range(count):
        inst = bench_mod.GENERATORS[kind](seed=seed + i, **kwargs)
        path = os.path.join(out_dir, inst.name + ext)
        bench_mod.save_instance(inst, path)
        click.echo(path)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(3)
    except click.exceptions.Abort:
        sys.exit(3)
    except SystemExit:
        raise


if __name__ == "__main__":
    main()
