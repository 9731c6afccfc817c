"""Command-line front end: solve, densities, bench, generate.

Exit codes for ``solve``: 0 sat, 1 unsat, 2 timeout, 3+ usage errors
(a malformed instance file among them).
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
import sys
import traceback

import click

from . import bench as bench_mod
from .engine import LEVELS, WIPEOUT
from .heuristics import HEURISTIC_NAMES
from .knapsack import EXACT, MODES
from .oracle import OracleCapExceeded, exact_count_densities
from .search import SAT, TIMEOUT, UNSAT

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


def _options(*options):
    """Apply click option decorators, the first listed shown first."""

    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f

    return decorate


_kind_option = click.option(
    "--kind", type=click.Choice(list(bench_mod.FAMILIES)), default=None,
    help="Instance kind (default: inferred from the file).",
)

# keyword arguments of bench.apply_overrides
_model_options = _options(
    click.option("--consistency", type=click.Choice(LEVELS),
                 default="domain", show_default=True,
                 help="Filtering level of every constraint.  'fc' is "
                      "forward checking for AllDifferent and "
                      "GlobalCardinality and the bounds filter for "
                      "Knapsack; Regular and SymmetricAllDifferent filter "
                      "alike at both levels."),
    click.option("--knapsack-mode", type=click.Choice(MODES),
                 default=EXACT, show_default=True),
)


def _seconds(ctx, param, value: float) -> float:
    """``value`` if it is a time budget (inf included); NaN, which no
    clock reading exceeds, and negative values are usage errors."""
    if not value >= 0:
        raise click.BadParameter(f"{value} is not a nonnegative number of seconds")
    return value


# keyword arguments of bench.run_job
_search_options = _options(
    click.option("--traversal", type=click.Choice(["dfs", "restart", "lds"]),
                 default="dfs", show_default=True),
    click.option("--restart-scale", type=click.IntRange(min=1), default=100,
                 show_default=True,
                 help="Backtrack cutoff of the first restart run."),
    click.option("--lds-skip", type=click.IntRange(min=1), default=1,
                 show_default=True, help="Discrepancies added per LDS wave."),
    click.option("--timeout", type=float, default=1200.0, show_default=True,
                 callback=_seconds,
                 help="Time budget in seconds."),
    click.option("--backtracks", type=click.IntRange(min=0), default=None,
                 help="Backtrack budget."),
    _model_options,
)


def _load(path: str, kind):
    """Read an instance file; a malformed one is a usage error."""
    try:
        return bench_mod.load_instance(path, kind)
    except bench_mod.ParseError as exc:
        raise click.UsageError(f"{path}: {exc}") from None


@click.group()
def cli():
    """Constraint solver with counting-based branching heuristics."""


@cli.command()
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@_kind_option
@click.option("--heuristic", "heuristic_name",
              type=click.Choice(HEURISTIC_NAMES), default="maxSD",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_search_options
def solve(instance_file, kind, heuristic_name, seed, **settings):
    """Solve one instance and print a short report."""
    instance = _load(instance_file, kind)
    stats = bench_mod.run_job(instance, heuristic_name, seed, **settings)
    click.echo(f"instance:   {instance.name}")
    click.echo(f"status:     {stats.status}")
    click.echo(f"backtracks: {stats.backtracks}")
    click.echo(f"nodes:      {stats.nodes}")
    click.echo(f"digest:     {stats.digest}")
    click.echo(f"time_ms:    {stats.time_ms:.1f}")
    if stats.restarts:
        click.echo(f"restarts:   {stats.restarts}")
    if stats.solution is not None:
        items = sorted(stats.solution.items())
        click.echo("solution:   " + " ".join(f"{k}={v}" for k, v in items))
    sys.exit(_EXIT[stats.status])


def _count_text(log_count: float) -> str:
    """``.6g`` text of exp(log_count), also for counts past float range."""
    if log_count == -math.inf:
        return "-inf"
    try:
        return f"{math.exp(log_count):.6g}"
    except OverflowError:
        exponent = math.floor(log_count / math.log(10))
        mantissa = round(math.exp(log_count - exponent * math.log(10)), 5)
        if mantissa >= 10:
            mantissa /= 10
            exponent += 1
        return f"{mantissa:.6g}e+{exponent}"


@cli.command()
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@_kind_option
@click.option("--exact", is_flag=True,
              help="Print brute-force densities next to the estimates.")
@_model_options
def densities(instance_file, kind, exact, consistency, knapsack_mode):
    """Propagate the root node and dump every density table."""
    instance = _load(instance_file, kind)
    model = bench_mod.build_model(instance)
    bench_mod.apply_overrides(model, consistency, knapsack_mode)
    if model.propagate() == WIPEOUT:
        click.echo("root propagation wiped out: instance is unsatisfiable")
        sys.exit(1)
    tables = model.collect_densities()
    for table in tables:
        c = table.constraint
        click.echo(f"[{c.cid}] {c.name()} count~{_count_text(table.log_count)}")
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
    """Run one sweep job: its CSV row, and the traceback text of a job
    that raised (None otherwise)."""
    instance, heuristic_name, seed, settings = args
    traversal = settings["traversal"]
    params = {
        "restart": f"scale={settings['restart_scale']}",
        "lds": f"skip={settings['lds_skip']}",
    }.get(traversal, "")
    row = {
        "instance": instance.name,
        "heuristic": heuristic_name,
        "traversal": traversal,
        "params": params,
        "seed": seed,
    }
    try:
        stats = bench_mod.run_job(instance, heuristic_name, seed, **settings)
    except Exception as exc:  # partial failures become rows, sweep continues
        row.update(status=f"error:{type(exc).__name__}", backtracks=0,
                   time_ms=0, restarts=0)
        header = f"# {instance.name} {heuristic_name} seed {seed} failed:\n"
        return row, header + traceback.format_exc()
    row.update(status=stats.status, backtracks=stats.backtracks,
               time_ms=f"{stats.time_ms:.1f}", restarts=stats.restarts)
    return row, None


@cli.command("bench")
@click.argument("instance_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--heuristic", "heuristics", multiple=True,
              type=click.Choice(HEURISTIC_NAMES), default=("maxSD",),
              show_default=True, help="May be repeated.")
@click.option("--seeds", default="0", show_default=True,
              help="Comma-separated seed list.")
@_search_options
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
def bench_cmd(instance_dir, heuristics, seeds, jobs, output, **settings):
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
        except (bench_mod.ParseError, OSError) as exc:
            click.echo(f"# skipped {path}: {exc}", err=True)
    if not instances:
        raise click.UsageError(f"no readable instances in {instance_dir}")
    job_args = [
        (inst, h, seed, settings)
        for inst in instances
        for h in heuristics
        for seed in seed_list
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_job, job_args))
    else:
        results = [_bench_job(a) for a in job_args]
    rows = [row for row, _ in results]
    for _, error in results:
        if error:
            click.echo(error, err=True, nl=False)
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
@click.argument("kind", type=click.Choice(list(bench_mod.FAMILIES)))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--count", type=click.IntRange(min=1), default=1,
              show_default=True)
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
    family = bench_mod.FAMILIES[kind]
    try:
        instances = [
            family.generate(seed=seed + i, **kwargs) for i in range(count)
        ]
    except (TypeError, ValueError) as exc:  # unknown key or rejected value
        raise click.UsageError(f"cannot generate {kind}: {exc}") from None
    os.makedirs(out_dir, exist_ok=True)
    for inst in instances:
        path = os.path.join(out_dir, inst.name + family.ext)
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


if __name__ == "__main__":
    main()
