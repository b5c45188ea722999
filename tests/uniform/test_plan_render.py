"""Freeze what the compile-time planner produces.

For every kernel x evaluation composition x remap policy, and for every
plan spec under ``examples/plans/``, ``CompositionPlan.plan()`` is run and
its output rendered: the plan's description, the final program state's
description, and each planned transformation's legality verdict, notes and
obligations.  The sha256 of that text is compared with the committed list
in ``plan_render_sha256.json``, so a change to the relation algebra that
moves any planned relation or legality report by one character fails here.

Fresh names (``__m12``, ``__x7``...) come from a process-global counter,
so their numbers depend on how much algebra ran before; each line renames
them to ``__<prefix><n>`` in order of first appearance before hashing.

``PYTHONPATH=src python tests/uniform/test_plan_render.py`` rewrites the
list after a deliberate change to what the planner produces.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cachesim.machines import machine_by_name
from repro.eval.compositions import COMPOSITIONS, composition_steps
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.runtime.plan import CompositionPlan
from repro.runtime.planspec import load_plan_spec

PLAN_RENDER = Path(__file__).with_name("plan_render_sha256.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "plans"
KERNELS = ("moldyn", "nbf", "irreg")
REMAPS = ("once", "each")

_FRESH = re.compile(r"__([A-Za-z]+)(\d+)")


def canonical_line(line: str) -> str:
    """Renumber fresh names in order of first appearance on the line."""
    seen: dict = {}

    def rename(match):
        name = match.group(0)
        if name not in seen:
            seen[name] = f"__{match.group(1)}{len(seen)}"
        return seen[name]

    return _FRESH.sub(rename, line)


def render(plan: CompositionPlan) -> str:
    """Everything ``plan()`` decides, as text."""
    state = plan.plan()
    parts = [plan.describe(), state.describe()]
    for planned in plan.planned_transformations:
        report = planned.report
        parts.append(str(report.proven))
        parts.extend(report.notes)
        parts.append(repr(report.obligations))
    text = "\n".join(parts)
    return "\n".join(canonical_line(line) for line in text.splitlines())


def _composition_plan(kernel: str, composition: str, remap: str):
    data = make_kernel_data(kernel, generate_dataset("mol1", scale=256))
    steps = composition_steps(composition, data, machine_by_name("pentium4"))
    return CompositionPlan(
        kernel_by_name(kernel), steps, name=composition, remap=remap
    )


def cases():
    """Case id -> zero-argument plan builder."""
    out = {}
    for kernel in KERNELS:
        for composition in COMPOSITIONS:
            for remap in REMAPS:
                out[f"{kernel}/{composition}/{remap}"] = (
                    lambda k=kernel, c=composition, r=remap:
                    _composition_plan(k, c, r)
                )
    for path in sorted(EXAMPLES.glob("*.json")):
        out[f"examples/{path.name}"] = lambda p=path: load_plan_spec(str(p))
    return out


def digest(case_id: str) -> str:
    text = render(cases()[case_id]())
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_case_is_frozen():
    assert sorted(json.loads(PLAN_RENDER.read_text())) == sorted(cases())


@pytest.mark.parametrize("case_id", sorted(cases()))
def test_planner_output_is_frozen(case_id):
    frozen = json.loads(PLAN_RENDER.read_text())
    assert digest(case_id) == frozen[case_id], (
        f"{case_id}: the planned relations or legality reports moved; if "
        "deliberate, regenerate with "
        "`PYTHONPATH=src python tests/uniform/test_plan_render.py`"
    )


def test_canonical_line_renumbers_by_first_appearance():
    assert canonical_line("__m12 + __x3 = __m12 && __m9") == (
        "__m0 + __x1 = __m0 && __m2"
    )


if __name__ == "__main__":
    frozen = {case_id: digest(case_id) for case_id in sorted(cases())}
    PLAN_RENDER.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} digests to {PLAN_RENDER}", file=sys.stderr)
