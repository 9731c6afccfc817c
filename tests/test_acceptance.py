"""Acceptance suite: golden values, soundness, equivalence, determinism.

Four sub-assertions of the cardinality-pipeline golden test
(``test_example3_*``) are expected to fail: the published reference
values they encode are arithmetically unattainable by any sound
counting bound on the reconstructed instance.  The exact number of
maximum matchings of the instance's lower-bound graph, divided by the
fake-vertex multiplicity, is 36 — already above the reference value 35
— so no valid upper bound can reproduce 35 or the figures derived from
it (52, 9, 0.18).  The implementation keeps the sound bound and these
tests stay red rather than being fitted to the targets.
"""

import csv
import math
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from countsearch.alldiff import AllDifferent, sym_matching_log_bound
from countsearch.cli import CSV_HEADER, cli
from countsearch.bench import build_model, generate_nonogram, generate_qwh
from countsearch.engine import DensityTable, Model, WIPEOUT
from countsearch.factors import bm_log_factor, lb_log_bound
from countsearch.gcc import GlobalCardinality
from countsearch.heuristics import MaxSD, make_heuristic
from countsearch.knapsack import Knapsack, interval_moments
from countsearch.oracle import exact_count_densities
from countsearch.regular import Regular
from countsearch.search import SAT, dfs, lds, restart_search

from brute_force import count_perfect_matchings, exact_permanent, exact_solve
from conftest import random_automaton, random_domains, random_gcc, random_micro_model


def _best_of(fn, repeats=50):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# 1. knapsack density golden test
# ----------------------------------------------------------------------
KNAP_DOMAINS = [{0, 1, 2}, {0, 1, 3}, {0, 1, 2}, {1, 2}]
KNAP_TABLE = {
    (0, 0): Fraction(9, 22), (0, 1): Fraction(10, 22), (0, 2): Fraction(3, 22),
    (1, 0): Fraction(8, 22), (1, 1): Fraction(8, 22), (1, 3): Fraction(6, 22),
    (2, 0): Fraction(9, 22), (2, 1): Fraction(7, 22), (2, 2): Fraction(6, 22),
    (3, 1): Fraction(11, 22), (3, 2): Fraction(11, 22),
}


def test_knapsack_golden_densities_and_runtime():
    m = Model()
    xs = [m.new_variable(set(d)) for d in KNAP_DOMAINS]
    c = m.add(Knapsack(xs, [3, 1, 2, 1], 5, 8))
    assert m.propagate() != WIPEOUT

    count, oracle = exact_count_densities(c, KNAP_DOMAINS)
    assert count == 22
    assert len(oracle) == 11
    for (i, d), frac in KNAP_TABLE.items():
        assert oracle[(xs[i].index, d)] == frac

    table = c.count_densities(m)
    assert math.exp(table.log_count) == pytest.approx(22.0, rel=1e-12)
    for (i, d), frac in KNAP_TABLE.items():
        assert table.density(xs[i], d) == pytest.approx(float(frac), abs=1e-12)

    assert _best_of(lambda: c.count_densities(m)) < 1e-3


# ----------------------------------------------------------------------
# 2. permanent-bound golden test
# ----------------------------------------------------------------------
def test_permanent_bounds_golden():
    # 6x6 zero-diagonal matrix: every row has 5 ones
    bm = math.exp(sum(bm_log_factor(5) for _ in range(6)))
    assert bm == pytest.approx(312.62, abs=0.01)
    # complete graph on 6 vertices
    adj = [set(range(6)) - {i} for i in range(6)]
    friedland = math.exp(sym_matching_log_bound(adj))
    assert friedland == pytest.approx(17.68, abs=0.01)
    assert count_perfect_matchings(adj) == 15


# ----------------------------------------------------------------------
# 3. cardinality-pipeline golden test
# ----------------------------------------------------------------------
GCC_DOMAINS = [{1, 2, 3}, {1, 2}, {1, 2}, {1, 2, 3}, {3}, {1, 3}]
GCC_LOWER = {1: 1, 2: 2, 3: 1}
GCC_UPPER = {1: 2, 2: 2, 3: 3}


def _gcc_instance():
    m = Model()
    xs = [m.new_variable(set(d)) for d in GCC_DOMAINS]
    c = m.add(GlobalCardinality(xs, GCC_LOWER, GCC_UPPER))
    return m, xs, c


def test_example3_exact_count_and_density():
    m, xs, c = _gcc_instance()
    count, dens = exact_count_densities(c, GCC_DOMAINS)
    assert count == 19
    assert dens[(xs[0].index, 1)] == Fraction(5, 19)


def test_example3_residual_bound_is_six():
    m, xs, c = _gcc_instance()
    _, upper_log, _ = c.bound_parts(GCC_DOMAINS)
    assert math.exp(upper_log) == pytest.approx(6.0, abs=1e-6)


def test_example3_lower_graph_bound():
    """Reference value 35 — unattainable (see module docstring).

    The lower-bound graph of this instance has exactly 72 maximum
    matchings; after dividing by the fake-vertex multiplicity 2! the
    exact count is 36, so a sound upper bound can never be 35.
    """
    m, xs, c = _gcc_instance()
    lower_log, _, _ = c.bound_parts(GCC_DOMAINS)
    assert math.exp(lower_log) == pytest.approx(35.0, abs=0.5)


def test_example3_total_estimate():
    """Reference value floor(35*6/4) = 52 — unattainable, as it is
    derived from the unattainable lower-graph value 35 and a residual
    denominator that is not a sound divisor (see module docstring)."""
    m, xs, c = _gcc_instance()
    total = math.floor(math.exp(c.log_count(GCC_DOMAINS)))
    assert total == 52


def test_example3_probe_estimate():
    """Reference value 9 after fixing the first variable to 1 —
    unattainable for the same reason as the root total."""
    m, xs, c = _gcc_instance()
    probed = c._probe_domains(GCC_DOMAINS, 0, 1)
    assert math.floor(math.exp(c.log_count(probed))) == 9


def test_example3_normalized_density():
    """Reference value 0.18 +/- 0.01 — depends on the unattainable
    probe totals; the sound pipeline yields approximately 0.236."""
    m, xs, c = _gcc_instance()
    assert m.propagate() != WIPEOUT
    table = c.count_densities(m)
    assert table.density(xs[0], 1) == pytest.approx(0.18, abs=0.01)


# ----------------------------------------------------------------------
# 4. Gaussian moments golden test
# ----------------------------------------------------------------------
def test_gaussian_moments_golden():
    domains = [set(range(6))] * 3
    coeffs = [3, 4, 2]
    mean = sum(c * interval_moments(d)[0] for c, d in zip(coeffs, domains))
    var = sum(c * c * interval_moments(d)[1] for c, d in zip(coeffs, domains))
    assert mean == 22.5
    assert var == pytest.approx(84.583, abs=1e-3)


# ----------------------------------------------------------------------
# 5. bound soundness suite
# ----------------------------------------------------------------------
def test_bound_soundness_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    checked = 0

    # alldifferent, n <= 7
    from countsearch.alldiff import alldiff_density_table

    for _ in range(400):
        n = rng.randint(2, 7)
        values = list(range(1, n + 2))
        domains = [
            set(rng.sample(values, rng.randint(1, len(values))))
            for _ in range(n)
        ]
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        c = AllDifferent(xs)
        count, _ = exact_count_densities(c, domains)
        if count:
            bound = math.exp(alldiff_density_table(c, domains).log_count)
            assert bound >= count * (1 - 1e-9)
        checked += 1

    # gcc, <= 6 vars
    for _ in range(400):
        c, domains = random_gcc(rng, n_vars=rng.randint(2, 6))
        count, _ = exact_count_densities(c, domains)
        if count:
            bound = math.exp(c.log_count(domains))
            assert bound >= count * (1 - 1e-9)
        checked += 1

    # 0-1 matrices, n <= 8
    for _ in range(300):
        n = rng.randint(2, 8)
        matrix = [
            [1 if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        rows = [sum(row) for row in matrix]
        exact = exact_permanent(matrix)
        if any(r == 0 for r in rows):
            assert exact == 0
            checked += 1
            continue
        bm = math.exp(sum(bm_log_factor(r) for r in rows))
        lb = math.exp(lb_log_bound(rows))
        assert bm >= exact * (1 - 1e-9)
        assert lb >= exact * (1 - 1e-9)
        checked += 1

    assert checked >= 1000
    assert time.perf_counter() - start < 60


# ----------------------------------------------------------------------
# 6. exact-counting equivalence suite
# ----------------------------------------------------------------------
def test_exact_counting_equivalence_suite():
    start = time.perf_counter()
    rng = random.Random(777)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 5)
        domains = random_domains(rng, n, rng.randint(2, 4))
        space = math.prod(len(d) for d in domains)
        if space > 10 ** 5:
            continue
        m = Model()
        xs = [m.new_variable(set(d)) for d in domains]
        if checked % 2 == 0:
            symbols = sorted(set().union(*domains))
            c = m.add(Regular(xs, random_automaton(rng, 3, symbols)))
        else:
            coeffs = [rng.randint(1, 5) for _ in range(n)]
            hi_all = sum(cf * max(d) for cf, d in zip(coeffs, domains))
            lo = rng.randint(0, hi_all)
            hi = rng.randint(lo, hi_all)
            c = m.add(Knapsack(xs, coeffs, lo, hi))
        count, dens = exact_count_densities(c, domains)
        table = c.count_densities(m)
        if count == 0:
            assert table.log_count == -math.inf
        else:
            assert math.exp(table.log_count) == pytest.approx(
                count, rel=1e-12
            )
            for (vi, d), frac in dens.items():
                x = m.variables[vi]
                assert table.density(x, d) == pytest.approx(
                    float(frac), abs=1e-12
                )
        checked += 1
    assert time.perf_counter() - start < 60


# ----------------------------------------------------------------------
# 7. normalization during randomized search
# ----------------------------------------------------------------------
def test_density_tables_normalized_during_search(monkeypatch):
    seen = []
    original = Model.collect_densities

    def spy(self):
        tables = original(self)
        for table in tables:
            seen.append((self, table))
            for var in table.constraint.scope:
                if self.is_bound(var):
                    continue
                total = sum(
                    table.density(var, d) for d in self.domain_sorted(var)
                )
                assert total == pytest.approx(1.0, abs=1e-9)
        return tables

    monkeypatch.setattr(Model, "collect_densities", spy)
    rng = random.Random(99)
    for _ in range(10):
        model = random_micro_model(rng)
        # three runs, cut off after 4, 8 and 16 backtracks
        restart_search(
            model, MaxSD(model, random.Random(1)), scale=4, backtrack_limit=28
        )
    assert seen  # the spy actually saw density tables


# ----------------------------------------------------------------------
# 8. third-central-moment bound, Monte-Carlo
# ----------------------------------------------------------------------
def test_third_moment_bound_monte_carlo():
    start = time.perf_counter()
    rng = random.Random(31337)
    for _ in range(10 ** 4):
        k = rng.randint(1, 10)
        a = rng.randint(-20, 20)
        b = a + rng.randint(1, 40)
        sample = [k * rng.randint(a, b) for _ in range(25)]
        mean = sum(sample) / len(sample)
        third = sum(abs(y - mean) ** 3 for y in sample) / len(sample)
        assert third <= k ** 3 * (b - a) ** 3 + 1e-9
    assert time.perf_counter() - start < 10


# ----------------------------------------------------------------------
# 9. desk-scale heuristic directionality
# ----------------------------------------------------------------------
def _sweep(instances, heuristic_name):
    results = []
    for inst in instances:
        model = build_model(inst)
        heuristic = make_heuristic(heuristic_name, model, random.Random(0))
        stats = dfs(model, heuristic, backtrack_limit=10 ** 5)
        results.append(stats)
    return results


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@pytest.mark.parametrize(
    "make_instances",
    [
        pytest.param(
            lambda: [generate_qwh(12, holes=0.42, seed=s) for s in range(20)],
            id="qwh-12",
        ),
        pytest.param(
            lambda: [generate_nonogram(16, 16, seed=s) for s in range(20)],
            id="nonogram-16",
        ),
    ],
)
def test_counting_heuristic_beats_baseline(make_instances):
    start = time.perf_counter()
    instances = make_instances()
    maxsd = _sweep(instances, "maxSD")
    dom = _sweep(instances, "dom")
    solved_maxsd = sum(1 for s in maxsd if s.status == SAT)
    solved_dom = sum(1 for s in dom if s.status == SAT)
    assert solved_maxsd >= solved_dom
    assert _median([s.backtracks for s in maxsd]) <= _median(
        [s.backtracks for s in dom]
    )
    assert time.perf_counter() - start < 300


# ----------------------------------------------------------------------
# 10. search completeness
# ----------------------------------------------------------------------
def test_search_completeness_against_oracle():
    start = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(100):
        model = random_micro_model(rng)
        sat, _ = exact_solve(model)
        d_model = random_micro_model(random.Random(0))  # unused, keep API hot
        stats_dfs = dfs(model, MaxSD(model))
        assert (stats_dfs.status == SAT) == sat
        model2 = random_micro_model(rng)
        sat2, _ = exact_solve(model2)
        stats_lds = lds(model2, MaxSD(model2), skip=2)
        assert (stats_lds.status == SAT) == sat2
    assert time.perf_counter() - start < 60


# ----------------------------------------------------------------------
# 11. benchmark determinism
# ----------------------------------------------------------------------
def test_bench_csv_deterministic_modulo_time(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for s in range(2):
        inst = generate_qwh(6, holes=0.4, seed=s)
        (inst_dir / f"{inst.name}.qwh").write_text(
            "\n".join(
                [str(inst.payload["n"])]
                + [" ".join(map(str, row)) for row in inst.payload["grid"]]
            )
            + "\n"
        )
    runner = CliRunner()

    def run(name):
        out = str(tmp_path / name)
        result = runner.invoke(
            cli,
            ["bench", str(inst_dir), "--heuristic", "maxSD",
             "--heuristic", "dom", "--traversal", "restart",
             "--seeds", "0,1,2", "-o", out],
        )
        assert result.exit_code == 0, result.output
        with open(out, newline="") as fh:
            return list(csv.reader(fh))

    rows1 = run("a.csv")
    rows2 = run("b.csv")
    assert rows1[0] == CSV_HEADER
    time_col = CSV_HEADER.index("time_ms")
    strip = lambda rows: [
        [v for i, v in enumerate(r) if i != time_col] for r in rows
    ]
    assert strip(rows1) == strip(rows2)
