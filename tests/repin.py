"""Re-record the results of the pinned searches in ``decision_pins.json``.

Every record is replayed through ``test_decisions._replay``, and only its
result fields are rewritten: ``status``, ``backtracks``, ``nodes``,
``digest``, ``causes`` and, in the records that carry it, ``recounts``.
The records keep their order, keys and test names, and the file keeps
its one-record-per-line layout.  Each record that moves is printed with
its old and new status, backtracks and nodes.  With ``--check`` nothing
is written, and the exit status is 1 if the file would change.

A re-pin is a logged change: a change that moves decisions names every
moved record in CHANGES.md.  Run from the repository root::

    PYTHONPATH=src python tests/repin.py [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from test_decisions import RESULT, TESTS, _replay

PATH = os.path.join(TESTS, "decision_pins.json")


def _dump(pins: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n"


def repin(pins: list[dict]) -> list[dict]:
    """The records with their result fields replaced by a replay's."""
    out = []
    for pin in pins:
        result = _replay(pin)
        out.append(
            {key: result[key] if key in RESULT or key == "recounts" else value
             for key, value in pin.items()}
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 if any record would change",
    )
    args = parser.parse_args(argv)
    with open(PATH) as f:
        text = f.read()
    pins = json.loads(text)
    new = repin(pins)
    for old, pin in zip(pins, new):
        if old != pin:
            before, after = (
                "/".join(str(p[key]) for key in ("status", "backtracks", "nodes"))
                for p in (old, pin)
            )
            print(f"{pin['test']}: {before} -> {after}")
    if _dump(new) == text:
        print(f"{len(pins)} records, none moved")
        return 0
    if args.check:
        return 1
    with open(PATH, "w") as f:
        f.write(_dump(new))
    print(f"{len(pins)} records, {PATH} rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
