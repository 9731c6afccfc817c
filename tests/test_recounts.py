"""Recount pins: the records of ``decision_pins.json`` whose test is
``test_recounts.py::test_recounts_are_pinned``, replayed by
``test_decisions._replay`` like every other record (see that module's
docstring); this module only keeps their test ids."""

from test_decisions import _pinned

test_recounts_are_pinned = _pinned("test_recounts.py::test_recounts_are_pinned")
