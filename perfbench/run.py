#!/usr/bin/env python3
"""countsearch search benchmark: seeded dfs workloads with checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload qwh-maxSD --seed 0 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, over a
fixed number of passes of the workload's jobs, from the shortest time of
each step of each job over the passes.  ``--trace 1`` runs each job
untraced and then traced, times the counting kernels on fixed domains,
and prints the per-layer split.  One client runs one job at a time in
this process (a closed loop); a second process, started with another
``PYTHONHASHSEED``, reruns one job to check that results do not depend
on hashing.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report of every metric.  A full report, failed jobs'
tracebacks and the traced run's spans are written to ``perfbench/out/``.
The exit code is 1 when an answer is wrong or a determinism check fails.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Optional

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: jobs stop on the wall clock this long after start, a safety net only
PASS_LIMIT_S = 150.0
#: the hash-seed check process is killed this long after start
CHECK_LIMIT_S = 170.0
#: no pass starts that would end, if as long as the last, after this many
#: --seconds of measuring
STOP_FACTOR = 1.1

#: (name, unit) of the end-to-end metrics in the result line with --trace 0;
#: times are scaled to the machine's nominal speed (see ``speed.py``)
END_TO_END = (
    ("nodes_per_s", "1/s"),
    ("node_ms_p50", "ms"),
    ("node_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: end-to-end metrics printed in the report only: the unscaled search time
#: and the slowdown it was scaled by, and counts that depend on how hard
#: the seed's instances are, so they are not comparable across seeds
REPORTED = (
    ("solve_s", "s"),
    ("slowdown", "ratio"),
    ("backtracks", "count"),
    ("solved_frac", "ratio"),
    ("error_frac", "ratio"),
)


def load_program() -> None:
    """Import countsearch from this checkout's ``src``, or exit."""
    package = os.path.join(SRC, "countsearch")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no countsearch sources under {SRC}")
    sys.path.insert(0, SRC)
    import countsearch

    if os.path.dirname(os.path.abspath(countsearch.__file__)) != package:
        sys.exit(f"perfbench: imported countsearch from {countsearch.__file__}")


@dataclass
class JobResult:
    name: str
    status: str  # sat, unsat, timeout (the cap) or error
    backtracks: int = 0
    nodes: int = 0
    max_depth: int = 0
    digest: str = ""
    solve_s: float = 0.0
    setup_s: float = 0.0
    # times of the speed loop, run right after the job
    speed_s: list[float] = field(default_factory=list, repr=False)
    error: Optional[str] = None  # why the job counts as failed
    wrong: bool = False
    # search time cut at each choose call: start to the first call, call
    # to call, last call to the end
    segments: list[float] = field(default_factory=list, repr=False)

    def key(self) -> tuple:
        return (self.status, self.backtracks, self.nodes, self.digest)


def wrong_answer(built, stats, root: list[set[int]]) -> Optional[str]:
    """Why the answer is wrong, or None when it passes every check."""
    from countsearch import SAT, UNSAT
    from workloads import expected_sat

    model = built.model
    if stats.status == SAT:
        sol = stats.solution
        for var, dom in zip(model.variables, root):
            if sol.get(var.name) not in dom:
                return f"{var.name}={sol.get(var.name)} is outside its root domain"
        for c in model.constraints:
            if not c.check([sol[v.name] for v in c.scope]):
                return f"solution violates {c.name()} #{c.cid}"
        if expected_sat(built) is False:
            return "sat, but the instance has no solution"
    elif stats.status == UNSAT and expected_sat(built):
        return "unsat, but the instance has a solution"
    return None


def run_job(built, deadline: float, tracer=None) -> JobResult:
    """One dfs under the backtrack cap, timed, recorded and checked."""
    from countsearch import TIMEOUT, dfs

    cap = built.job.cap
    model, heuristic = built.model, built.heuristic
    root = [model.domain(v) for v in model.variables]
    stamps: list[float] = []
    picks: list[tuple[int, int]] = []
    depth = 0
    choose = heuristic.choose
    search = dfs
    if tracer is not None:
        choose = tracer.wrap("heuristics.choose", choose)
        search = tracer.wrap("search.dfs", dfs)
        tracer.watch(model)

    def recorded(m, randomized=False):
        nonlocal depth
        stamps.append(time.perf_counter())
        depth = max(depth, m.level)
        pick = choose(m, randomized)
        if pick is not None:
            picks.append((pick[0].index, pick[1]))
        return pick

    heuristic.choose = recorded
    result = JobResult(built.job.name, "error")
    start = time.perf_counter()
    try:
        stats = search(
            model,
            heuristic,
            timeout=max(0.0, deadline - start),
            backtrack_limit=cap,
        )
    except Exception:
        result.solve_s = time.perf_counter() - start
        result.error = traceback.format_exc()
        return result
    end = time.perf_counter()
    result.solve_s = end - start
    result.status = stats.status
    result.backtracks = stats.backtracks
    result.nodes = len(stamps)
    result.max_depth = depth
    result.digest = hashlib.sha256(repr(picks).encode()).hexdigest()[:16]
    cuts = [start, *stamps, end]
    result.segments = [b - a for a, b in zip(cuts, cuts[1:])]
    if stats.status == TIMEOUT and stats.backtracks < cap:
        result.error = "stopped on the wall clock before the backtrack cap"
    else:
        why = wrong_answer(built, stats, root)
        if why is not None:
            result.error, result.wrong = f"wrong answer: {why}", True
    return result


def run_pass(jobs, deadline: float) -> list[JobResult]:
    """Run every job once, each set up just before it and sampling the
    machine's speed just after it.

    Set-up is generating the instance, building the model and making the
    heuristic; it is timed here, spread over the whole pass.
    """
    results = []
    for job in jobs:
        start = time.perf_counter()
        built = job.build()
        setup = time.perf_counter() - start
        results.append(run_job(built, deadline))
        results[-1].setup_s = setup
        results[-1].speed_s = speed.sample()
    return results


def run_traced(jobs, deadline: float, tracer) -> tuple[list[JobResult], list[JobResult]]:
    """Each job untraced and then traced, so each pair sees the same machine."""
    untraced, traced = [], []
    for i, job in enumerate(jobs):
        untraced.append(run_job(job.build(), deadline))
        tracer.job = i
        with tracer.install():
            traced.append(run_job(job.build(), deadline, tracer))
    return untraced, traced


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def mismatches(first: list[JobResult], other: list[JobResult], what: str) -> list[str]:
    out = []
    for a, b in zip(first, other):
        if a.error is None and b.error is None and a.key() != b.key():
            out.append(f"{a.name}: {a.key()} here, {b.key()} in {what}")
    return out


def hash_seed_check(args, jobs, results: list[JobResult], start: float) -> list[str]:
    """Rerun one job in a process with another PYTHONHASHSEED and compare."""
    k = args.seed % len(jobs)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--check-job", str(k),
    ]  # fmt: skip
    what = f"a process with PYTHONHASHSEED={env['PYTHONHASHSEED']}"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, start + CHECK_LIMIT_S - time.perf_counter()),
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return [f"{jobs[k].name}: no answer in time from {what}"]
    if proc.returncode != 0:
        return [f"{jobs[k].name}: {what} failed:\n{proc.stderr[-4000:]}"]
    got = JobResult(**json.loads(proc.stdout.strip().splitlines()[-1]))
    if got.error is not None and results[k].error is None:
        return [f"{jobs[k].name}: failed in {what}: {got.error}"]
    return mismatches([results[k]], [got], what)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def quantile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def envelope(runs: list[JobResult]) -> list[float]:
    """Each segment's shortest time over the runs of one job.

    The runs take the same decisions, so segment i is the same work in
    every run.  On a shared machine contention only adds time and comes
    in bursts shorter than a run, so the shortest time of each segment
    over runs spread across the measurement tracks the program's own
    cost much more steadily than any whole run does.
    """
    return [min(col) for col in zip(*(r.segments for r in runs))]


def end_to_end(passes) -> tuple[dict, int]:
    """Metrics over each job's segment envelope; set-up is a pass's median.

    Times are scaled to the machine's nominal speed by ``slowdown``: the
    speed loop's envelope, the mean over its calls after each job of the
    call's shortest time over the passes, over its nominal time.  Like
    each segment of a job, each call has one chance per pass to run on
    a quiet machine, and the calls run at the same moments as the jobs,
    so both envelopes see the same machine.  Counts are the same in every
    pass.  Runs that failed are left out of the timings; they count in
    ``error_frac``.
    """
    loop_env = [min(col) for runs in zip(*passes) for col in zip(*(r.speed_s for r in runs))]
    slowdown = statistics.fmean(loop_env) / speed.NOMINAL_S
    by_job = [[r for r in runs if r.error is None] for runs in zip(*passes)]
    by_job = [runs for runs in by_job if runs]
    if not by_job:
        sys.exit("perfbench: every job failed; the first:\n" + passes[0][0].error)
    envelopes = [envelope(runs) for runs in by_job]
    first = [runs[0] for runs in by_job]
    solve = sum(sum(env) for env in envelopes)
    intervals = [iv for env in envelopes for iv in env[1:-1]]
    attempted = sum(len(res) for res in passes)
    failed = sum(r.error is not None for res in passes for r in res)
    metrics = {
        "solve_s": solve,
        "slowdown": slowdown,
        "nodes_per_s": sum(r.nodes for r in first) / solve * slowdown,
        "node_ms_p50": quantile_ms(intervals, 50) / slowdown,
        "node_ms_p95": quantile_ms(intervals, 95) / slowdown,
        "backtracks": sum(r.backtracks for r in first),
        "solved_frac": sum(r.status in ("sat", "unsat") for r in first) / len(passes[0]),
        "error_frac": failed / attempted,
        "setup_s": statistics.median(sum(r.setup_s for r in res) for res in passes)
        / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(intervals)


def per_layer(results: list[JobResult], tracer, untraced_s: float, kernels: dict) -> dict:
    from tracer import KINDS

    calls, self_s = tracer.calls(), tracer.self_seconds()
    nodes = sum(r.nodes for r in results)
    backtracks = sum(r.backtracks for r in results)
    traced_s = sum(r.solve_s for r in results)
    recounts = sum(calls[f"{kind}.count"] for _, kind in KINDS)
    m = {
        "search.nodes": nodes,
        "search.backtracks": backtracks,
        "search.solved_frac": sum(r.status in ("sat", "unsat") for r in results)
        / len(results),
        "search.max_depth": max(r.max_depth for r in results),
        "search.fail_ratio": backtracks / nodes,
    }
    for name in (
        "heuristics.choose",
        "engine.push_decision",
        "engine.backtrack_to",
        "engine.collect_densities",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["engine.recounts"] = recounts
    lookups = tracer.density_lookups
    m["engine.cache_hit_ratio"] = (lookups - recounts) / lookups if lookups else 0.0
    m["engine.propagator_calls"] = sum(calls[f"{kind}.propagate"] for _, kind in KINDS)
    m["engine.wipeouts"] = tracer.wipeouts
    for _, kind in KINDS:
        prop = f"{kind}.propagate"
        m[f"{prop}.calls"] = calls[prop]
        m[f"{prop}.self_s"] = self_s[prop]
        m[f"{prop}.noop_ratio"] = tracer.noops[prop] / calls[prop] if calls[prop] else 0.0
        m[f"{kind}.count.calls"] = calls[f"{kind}.count"]
        m[f"{kind}.count.self_s"] = self_s[f"{kind}.count"]
    for name in (
        "factors.lb_log_bound",
        "regular.build_layered_graph",
        "knapsack.build_sum_graph",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m.update(kernels)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def unit_of(name: str) -> str:
    units = dict(END_TO_END + REPORTED)
    if name in units:
        return units[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def job_line(r: JobResult) -> str:
    line = (
        f"  job {r.name:<22} {r.status:<7} backtracks={r.backtracks:<4} "
        f"nodes={r.nodes:<4} depth={r.max_depth:<4} {r.solve_s:.3f} s"
    )
    return line + ("  FAILED: " + r.error.splitlines()[-1] if r.error else "")


def write_sidecars(stem: str, report: dict, results: list[JobResult], tracer) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    errors = [r for r in results if r.error is not None]
    if errors:
        with open(os.path.join(OUT, f"{stem}-errors.txt"), "w") as fh:
            for r in errors:
                fh.write(f"== {r.name}\n{r.error}\n")
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{stem}-spans.tsv.gz"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--check-job", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + PASS_LIMIT_S

    load_program()
    from workloads import WORKLOADS, jobs_for, pass_count

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    jobs = jobs_for(args.workload, args.seed)

    if args.check_job is not None:
        built = jobs[args.check_job].build()
        result = run_job(built, deadline)
        result.segments = []
        print(json.dumps(asdict(result)))
        return 0

    tracer = None
    samples = None
    if args.trace == 1:
        from kernels import kernel_timings
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced = run_traced(jobs, deadline, tracer)
        passes = [untraced, traced]
        problems = mismatches(untraced, traced, "the traced run")
        untraced_s = sum(r.solve_s for r in untraced)
        metrics = per_layer(traced, tracer, untraced_s, kernel_timings(args.seed))
        shown = list(metrics)
    else:
        # a fixed number of passes for a given --seconds, so that every
        # envelope is the minimum over as many samples; only on a machine
        # far slower than usual does a run stop early, rather than start a
        # pass that would end past STOP_FACTOR * --seconds
        passes = []
        measured = time.perf_counter()
        last = 0.0
        for _ in range(pass_count(args.workload, args.seconds)):
            elapsed = time.perf_counter() - measured
            if len(passes) >= 2 and elapsed + last > STOP_FACTOR * args.seconds:
                break
            passes.append(run_pass(jobs, deadline))
            last = time.perf_counter() - measured - elapsed
        problems = []
        for i, res in enumerate(passes[1:], start=2):
            problems += mismatches(passes[0], res, f"pass {i}")
        metrics, samples = end_to_end(passes)
        shown = [name for name, _ in END_TO_END + REPORTED]
    problems += hash_seed_check(args, jobs, passes[0], start)

    all_results = [r for res in passes for r in res]
    attempted = len(all_results)
    failed = sum(r.error is not None for r in all_results)
    correct = not problems and not any(r.wrong for r in all_results)
    env = environment()

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  "
        + "  ".join(f"{k} {v}" for k, v in env.items())
    )
    for r in passes[-1]:
        print(job_line(r))
    for name in shown:
        extra = f"  (n={samples})" if name.startswith("node_ms") else ""
        print(f"  {name:<34} {metrics[name]:.6g} {unit_of(name)}{extra}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    for p in problems:
        print(f"perfbench: determinism check failed: {p}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "node_samples": samples,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in shown},
        "jobs": [
            {k: v for k, v in asdict(r).items() if k not in ("segments", "speed_s")}
            for r in all_results
        ],
        "problems": problems,
    }
    write_sidecars(stem, report, all_results, tracer)

    keys = shown if args.trace == 1 else [name for name, _ in END_TO_END]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in keys},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
