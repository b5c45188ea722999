"""Freeze of the executor's address trace (the cost model's input).

Figures 6-9 and 17 price :func:`repro.runtime.executor.emit_trace` with
the cache simulator, so a trace that moves moves every figure.  This
file pins the sha256 of the trace's regions, ``region_ids``,
``elements`` and ``writes`` for moldyn, nbf and irreg on mol1@12 under
the identity plan and the ``cpack+fst`` tiled plan, with and without
write flags, over one and two time steps, and for the hand-built
``crossed`` tiling of ``tests/codegen/test_compiled_dynamic.py``.

``trace_sha256.json`` was recorded from the hand-written trace walker
before the trace was read from the lowered program; ``PYTHONPATH=src:.
python tests/runtime/test_trace_freeze.py`` rewrites it after a
deliberate change to what the executor touches.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cachesim.machines import machine_by_name
from repro.eval.compositions import composition_steps
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.executor import ExecutionPlan, emit_trace
from repro.runtime.inspector import ComposedInspector

TRACE_SHA256 = Path(__file__).with_name("trace_sha256.json")
KERNELS = ("moldyn", "nbf", "irreg")
PLANS = ("identity", "cpack+fst")
MARK_WRITES = (False, True)
NUM_STEPS = (1, 2)


def _kernel_case(kernel: str, plan: str):
    data = make_kernel_data(kernel, generate_dataset("mol1", scale=12))
    if plan == "identity":
        return data, ExecutionPlan.identity()
    steps = composition_steps(plan, data, machine_by_name("pentium4"))
    result = ComposedInspector(steps).run(data)
    return result.transformed, result.plan


def _crossed_case():
    from tests.codegen.test_compiled_dynamic import _crossed_case

    data, tiling = _crossed_case()
    return data, ExecutionPlan(schedule=tiling.schedule())


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for region in trace.regions:
        h.update(repr(region).encode())
    for array in (trace.region_ids, trace.elements, trace.writes):
        if array is None:
            h.update(b"none")
            continue
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def case_ids():
    sources = [f"{k}/{p}" for k in KERNELS for p in PLANS] + ["moldyn/crossed"]
    return [
        f"{source}/writes={int(mark)}/steps={steps}"
        for source in sources
        for mark in MARK_WRITES
        for steps in NUM_STEPS
    ]


def digests():
    out = {}
    for kernel in KERNELS:
        for plan in PLANS:
            data, exec_plan = _kernel_case(kernel, plan)
            out.update(_digests(f"{kernel}/{plan}", data, exec_plan))
    out.update(_digests("moldyn/crossed", *_crossed_case()))
    return out


def _digests(source, data, exec_plan):
    return {
        f"{source}/writes={int(mark)}/steps={steps}": trace_digest(
            emit_trace(data, exec_plan, num_steps=steps, mark_writes=mark)
        )
        for mark in MARK_WRITES
        for steps in NUM_STEPS
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(TRACE_SHA256.read_text())


@pytest.fixture(scope="module")
def current():
    return digests()


def test_freeze_covers_every_case(frozen):
    assert sorted(frozen) == sorted(case_ids())


@pytest.mark.parametrize("case_id", case_ids())
def test_trace_is_frozen(case_id, frozen, current):
    assert current[case_id] == frozen[case_id], (
        f"the address trace of {case_id} moved"
    )


if __name__ == "__main__":
    recorded = digests()
    TRACE_SHA256.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} digests to {TRACE_SHA256}", file=sys.stderr)
