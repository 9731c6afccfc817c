"""Pinned decisions: the exact searches the drivers make on fixed instances.

``decision_pins.json`` holds one record per job.  Its spec is the job,
the heuristic, the driver (``dfs``, ``restart`` with its ``scale``, or
``lds``) and the backtrack cap.  The job names its instance the way
``countsearch generate KIND -p key=value`` does, with every generator
keyword written out, so a changed default moves no record: e.g.
``{"kind": "qwh", "order": 15, "holes": 0.42, "seed": 0}``, plus
``consistency`` when not ``domain`` (see ``conftest.job_model``).  The
spec maps to what the search reports in ``SearchStats`` (status,
backtracks, nodes and the digest of its (variable index, value) picks)
and to ``causes``, the same digest of the ``cid`` of each wipeout's
cause in order, with None for a decision.  Two keys are optional: ``rng``, the seed of the
heuristic's ``random.Random`` (0 when absent), and ``recounts``, the
number of ``count_densities`` calls per counting class.  Each record
also names the test that replays it (``test``, as the suite prints it,
prefixed by its module when that is not this one), and every record is
replayed, so a speed-up of counting, filtering or the search must
reproduce them all, and a change that moves a decision is a re-pin: a
data diff in that file, written by ``repin.py`` and logged in
CHANGES.md.  The ``test_perfbench_*`` records copy the jobs of
``perfbench/workloads.py`` at seed 0, so a change to those jobs re-pins
them; ``test_tracer.py`` checks each copy against perfbench's job.

maxSD breaks exact score ties by (variable index, value), so a change in
the last bit of a density can change the search.  The records cover:

- ``dfs`` with every counting rule and hybrid, on quasigroup completions
  (AllDifferent counting), rosters whose columns are
  ``GlobalCardinality`` constraints (the ``low4`` one requires four tasks
  in every column, so its densities go through the lower-bound graph),
  magic squares and market splits (exact ``Knapsack`` graphs);
- the four jobs of perfbench's ``graph-maxSD`` workload and the first
  four of ``qwh-maxSD`` and ``qwh-domWDeg``;
- domWDeg, which learns its weights from the constraint each wipeout is
  blamed on, so which propagator runs first steers it; one of its
  completions is propagated by forward checking only;
- ``restart_search``, whose randomized picks draw between a score
  heuristic's two best pairs, and ``lds``; domWDeg's weights and IBS's
  impacts carry over from one run to the next;
- IBS (``ibs``, and ``ibs+maxSD``, which takes its values from the
  density tables), which probes at the root and re-probes its best
  variables at each pick;
- recounts: maxSD, minSCMaxSD, aAvgSD and domWDeg+maxSD under ``dfs``,
  ``lds`` and ``restart_search`` on two quasigroup completions
  (AllDifferent counting) and two magic squares (AllDifferent and exact
  ``Knapsack`` counting), each capped at 200 backtracks, with the
  heuristic drawing from the instance seed.  A change to what the
  density cache or the trail keeps must not make any rule recount more:
  a table restored by a backtrack is ranked again without a recount,
  from a ranked copy that recounts its densities only when first read.
  The counts were recorded with every superseded table kept whole on
  the trail; a change that counts tables less often lowers them on
  purpose, as a re-pin.

One search is pinned by its removals instead: every (variable, value,
cause) in order, root propagation included, once on a qwh encoding whose
holes start over the full range (so the root's forward-checking sweep of
the presets is pinned too) and once on ``bench``'s own.

A domain set's iteration order follows its history of removals and
re-insertions, so equal domains may iterate in different orders.  So
decisions must not depend on the order a domain set iterates in: models
of every constraint kind whose values collide in small set tables, built
once with values inserted in ascending order and once in descending
order, must get the same decisions and the same wipeout causes under
domWDeg and maxSD.
"""

import hashlib
import inspect
import json
import os
import random
from collections import Counter

import pytest

from countsearch import bench
from countsearch.bench import (
    build_model,
    generate_magic,
    generate_qwh,
    generate_rostering,
)
from countsearch.alldiff import AllDifferent, SymmetricAllDifferent
from countsearch.engine import Model
from countsearch.engine import DOMAIN, FORWARD_CHECKING
from countsearch.heuristics import DomWdeg, make_heuristic
from countsearch.knapsack import Knapsack
from countsearch.search import SAT, dfs, lds, restart_search

from conftest import ROSTER_GCC, full_domain_model, job_model, roster_gcc
from test_alldiff import _CauseModel

TESTS = os.path.dirname(os.path.abspath(__file__))


DRIVERS = {"dfs": dfs, "restart": restart_search, "lds": lds}


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _replay(pin, model=None):
    """Status, backtracks, nodes, digest, causes and recounts of the
    search that ``pin`` specifies, on ``model`` if given, else on its
    job's model; the heuristic draws from ``random.Random(pin["rng"])``,
    seed 0 when absent."""
    if model is None:
        model = job_model(pin["job"])
    rng = random.Random(pin.get("rng", 0))
    heuristic = make_heuristic(pin["heuristic"], model, rng)
    causes = []
    model.on_wipeout(lambda c: causes.append(None if c is None else c.cid))
    # count_densities calls per class, the lazy recount of a ranked table too
    recounts = Counter()
    for c in model.constraints:
        def counted(model, count=c.count_densities, name=type(c).__name__):
            recounts[name] += 1
            return count(model)

        c.count_densities = counted
    options = {"scale": pin["scale"]} if "scale" in pin else {}
    stats = DRIVERS[pin["driver"]](
        model, heuristic, backtrack_limit=pin["cap"], **options
    )
    return {
        "status": stats.status,
        "backtracks": stats.backtracks,
        "nodes": stats.nodes,
        "digest": stats.digest,
        "causes": _digest(causes),
        "recounts": dict(recounts),
    }


with open(os.path.join(TESTS, "decision_pins.json")) as f:
    PINS = json.load(f)
SPEC = ("job", "heuristic", "driver", "cap")
RESULT = ("status", "backtracks", "nodes", "digest", "causes")
OPTIONAL = ("scale", "rng", "recounts")


def _pinned(name):
    """The test that replays every record whose ``test`` is ``name[id]``,
    one test id per record; a ``name`` of the form ``module.py::test``
    belongs to that module, which binds it."""
    pins = [p for p in PINS if p["test"].split("[")[0] == name]

    @pytest.mark.parametrize(
        "pin", pins, ids=[p["test"][len(name) + 1 : -1] for p in pins]
    )
    def test(pin):
        result = _replay(pin)
        if "recounts" not in pin:
            del result["recounts"]
        assert result == {key: pin[key] for key in result}

    test.__name__ = name.split("::")[-1]
    return test


# one test per name the records carry, so every record is replayed
for _name in sorted({p["test"].split("[")[0] for p in PINS}):
    if "::" not in _name:
        globals()[_name] = _pinned(_name)


def test_pin_records_have_known_keys_and_unique_specs():
    """A misspelled optional key would make ``_replay`` skip a check, and
    a generator keyword left out would let a changed default move the
    record's instance."""
    specs, tests = Counter(), Counter()
    for pin in PINS:
        assert {"test", *SPEC, *RESULT} <= pin.keys() <= {
            "test", *SPEC, *RESULT, *OPTIONAL
        }, pin
        assert ("scale" in pin) == (pin["driver"] == "restart"), pin
        job = pin["job"]
        kind = "rostering" if job["kind"] == ROSTER_GCC else job["kind"]
        keywords = inspect.signature(bench.FAMILIES[kind].generate).parameters
        assert job.keys() - {"kind", "consistency", "required"} == keywords.keys(), pin
        assert job.get("consistency") != DOMAIN, pin
        spec = {key: pin.get(key) for key in (*SPEC, "scale")}
        spec["rng"] = pin.get("rng", 0)
        specs[json.dumps(spec, sort_keys=True)] += 1
        tests[pin["test"]] += 1
    assert [spec for spec, n in specs.items() if n > 1] == []
    assert [test for test, n in tests.items() if n > 1] == []


def test_pin_file_keeps_the_repin_layout():
    """The file is exactly what ``repin.py`` writes, one record per line,
    so a hand edit that breaks the layout fails here, not as a rewrite of
    every line at the next re-pin."""
    import repin  # imports this module, so not at the top

    with open(repin.PATH) as f:
        text = f.read()
    assert repin._dump(json.loads(text)) == text


#: (status, backtracks, removal count, SHA-256 of the repr of the
#: (variable index, value, cause cid) list, with None for a decision's
#: removals) of ``dfs`` under domWDeg on qwh-15-s0, cap 30, with every
#: hole over 1..15, so root propagation sweeps the presets out first
GOLDEN_QWH15_REMOVALS = (
    SAT,
    1,
    1380,
    "a0136f259c79ec8c2990d61dbb951b122fbdd259d1f82941b940f6e720084b07",
)

#: the same search on ``bench``'s own encoding, whose holes start without
#: the values their lines preset
GOLDEN_QWH15_BUILDER_REMOVALS = (
    SAT,
    1,
    303,
    "547fb1c675cb86b7c85e1663483fcee7caeeb5d5b8e207e69237c83775d9961d",
)


def _domwdeg_removals(model):
    stats = dfs(model, DomWdeg(model), backtrack_limit=30)
    removed = [
        (x, value, None if cause is None else cause.cid)
        for x, value, cause in model.removed
    ]
    digest = hashlib.sha256(repr(removed).encode()).hexdigest()
    return stats.status, stats.backtracks, len(removed), digest


def test_domwdeg_removals_are_pinned():
    """Every removal of a search, root propagation included, in order and
    with its cause, on a model that lists them: the order of the root's
    forward-checking sweep is pinned too."""
    model = full_domain_model(generate_qwh(15, 0.42, 0), _CauseModel)
    assert _domwdeg_removals(model) == GOLDEN_QWH15_REMOVALS


def test_domwdeg_removals_on_the_builders_encoding_are_pinned(monkeypatch):
    monkeypatch.setattr(bench, "Model", _CauseModel)
    model = build_model(generate_qwh(15, 0.42, 0))
    assert _domwdeg_removals(model) == GOLDEN_QWH15_BUILDER_REMOVALS


# ----------------------------------------------------------------------
# decisions do not depend on the order a domain set iterates in
# ----------------------------------------------------------------------
# A set's iteration order follows its history of removals and
# re-insertions, so two equal domains can iterate in different orders.
# Values that are multiples of 8 collide in a small set table, so a
# domain built from them in ascending order iterates differently from
# one built in descending order.  Each model below is built both ways; ``dfs`` must
# make the same decisions on both, and domWDeg must blame the same
# constraints for the same wipeouts.


def _set_order_qwh(descending, order, seed, consistency):
    grid = generate_qwh(order, 0.42, seed).payload["grid"]
    full = sorted((8 * v for v in range(1, order + 1)), reverse=descending)
    m = Model()
    cells = [[m.new_variable([8 * v] if v else full) for v in row] for row in grid]
    for line in cells + [list(col) for col in zip(*cells)]:
        m.add(AllDifferent(line, consistency))
    return m


def _set_order_magic(descending):
    """Magic square of order 4 over 8, 16, ..., 128: exact Knapsack sums."""
    n = 4
    grid = generate_magic(n, seed=1).payload["grid"]
    target = 8 * n * (n * n + 1) // 2
    full = sorted((8 * v for v in range(1, n * n + 1)), reverse=descending)
    m = Model()
    cells = [[m.new_variable([8 * v] if v else full) for v in row] for row in grid]
    m.add(AllDifferent([x for row in cells for x in row]))
    diagonals = [
        [row[i] for i, row in enumerate(cells)],
        [row[n - 1 - i] for i, row in enumerate(cells)],
    ]
    for line in cells + [list(col) for col in zip(*cells)] + diagonals:
        m.add(Knapsack(line, [1] * n, target, target))
    return m


def _set_order_pairing(descending):
    """Entities 1..24, i and j paired only when 8 divides i + j, so each
    domain holds values of one residue mod 8.  Entities 8, 16, 24 and 4,
    12, 20 form triangles, which no pairing covers: unsat, found by
    search."""
    n = 24
    m = Model()
    partners = [
        [j for j in range(1, n + 1) if j != i and (i + j) % 8 == 0]
        for i in range(1, n + 1)
    ]
    xs = [m.new_variable(sorted(js, reverse=descending)) for js in partners]
    m.add(SymmetricAllDifferent(xs))
    m.add(AllDifferent(xs))
    return m


#: domWDeg on qwh-17, and both heuristics on the roster with
#: domain-consistent GCC columns, solve without a wipeout; every other
#: search here wipes out and backtracks
SET_ORDER_BUILDERS = {
    "alldifferent-qwh-17": lambda d: _set_order_qwh(d, 17, 2, DOMAIN),
    "alldifferent-fc-qwh-15": lambda d: _set_order_qwh(d, 15, 0, FORWARD_CHECKING),
    "knapsack-magic-4": _set_order_magic,
    "gcc-regular-roster-6x10-low4": lambda d: roster_gcc(
        generate_rostering(6, 10, seed=2), 4, scale=8, descending=d
    ),
    "gcc-fc-regular-roster-4x8-low4": lambda d: roster_gcc(
        generate_rostering(4, 8, seed=1), 4, scale=8, descending=d,
        consistency=FORWARD_CHECKING,
    ),
    "symmetric-pairing-24": _set_order_pairing,
}


@pytest.mark.parametrize("name", ["domWDeg", "maxSD"])
@pytest.mark.parametrize("instance", SET_ORDER_BUILDERS)
def test_decisions_do_not_depend_on_set_order(instance, name):
    ascending = SET_ORDER_BUILDERS[instance](False)
    descending = SET_ORDER_BUILDERS[instance](True)
    assert [list(d) for d in ascending._domains] != [
        list(d) for d in descending._domains
    ]
    pin = {"heuristic": name, "driver": "dfs", "cap": 30}
    assert _replay(pin, ascending) == _replay(pin, descending)
