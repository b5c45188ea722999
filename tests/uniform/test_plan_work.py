"""A deterministic work guard on compile-time planning.

``CompositionPlan.plan()`` of moldyn ``cpack+fst`` is counted, not timed:
how many ``AffineExpr`` objects it constructs and how many relation
compositions (``PresburgerRelation.then``) it runs.  Both counts are a
function of the algebra alone, so they repeat exactly run to run and on
any machine.  A term rewrite that rebuilds terms it did not change, or a
``T . D . T^-1`` composed twice per step, shows up here as a count over
the bound long before it shows up in a wall-clock number.
"""

from __future__ import annotations

from repro.presburger.relations import PresburgerRelation
from repro.presburger.terms import AffineExpr
from repro.runtime.planspec import plan_from_spec

SPEC = {
    "kernel": "moldyn",
    "name": "cpack+fst",
    "steps": [
        "cpack",
        "lexgroup",
        {"type": "fst", "seed_block_size": 64},
        "tilepack",
    ],
}

MAX_CONSTRUCTIONS = 120_000
MAX_THEN_CALLS = 180


def _planning_work(monkeypatch):
    counts = {"constructions": 0, "then": 0}
    init, then = AffineExpr.__init__, PresburgerRelation.then

    def counting_init(self, *args, **kwargs):
        counts["constructions"] += 1
        init(self, *args, **kwargs)

    def counting_then(self, *args, **kwargs):
        counts["then"] += 1
        return then(self, *args, **kwargs)

    monkeypatch.setattr(AffineExpr, "__init__", counting_init)
    monkeypatch.setattr(PresburgerRelation, "then", counting_then)
    plan_from_spec(SPEC).plan()
    monkeypatch.undo()
    return counts


def test_plan_work_repeats_exactly_and_stays_under_its_bound(monkeypatch):
    first = _planning_work(monkeypatch)
    assert _planning_work(monkeypatch) == first
    assert first["constructions"] <= MAX_CONSTRUCTIONS, first
    assert first["then"] <= MAX_THEN_CALLS, first
