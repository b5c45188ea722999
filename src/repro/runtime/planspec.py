"""Declarative plan specifications (JSON) -> :class:`CompositionPlan`.

A *plan spec* is the serializable description of one composition::

    {
      "kernel": "moldyn",
      "name": "fig16-remap-each",
      "remap": "each",
      "on_stage_failure": "raise",
      "validation": "strict",
      "steps": [
        {"type": "cpack"},
        {"type": "lexgroup"},
        {"type": "fst", "seed_block_size": 64, "use_symmetry": false},
        {"type": "tilepack"}
      ]
    }

``python -m repro lint`` consumes these (the example plans under
``examples/plans/`` are specs), and ``python -m repro plan``'s positional
step names use the same :data:`~repro.runtime.steps.STEP_TYPES` view of
the step table.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.errors import BindError, ValidationError
from repro.runtime.steps import STEP_TYPES, Step


def make_step(type_name: str, **params) -> Step:
    """Instantiate one step from its spec type name and parameters.

    Parameters are checked by the step's own ``params`` declaration;
    omitted ones take its defaults, and unknown or ill-typed ones are
    typed errors (typos must not silently default)."""
    try:
        cls = STEP_TYPES[type_name]
    except (KeyError, TypeError):
        raise BindError(
            f"unknown step type {type_name!r}",
            hint=f"choose from {sorted(STEP_TYPES)}",
        ) from None
    return cls(**params)


def plan_from_spec(spec: dict):
    """Build a :class:`~repro.runtime.plan.CompositionPlan` from a spec."""
    from repro.kernels.specs import kernel_by_name
    from repro.runtime.plan import CompositionPlan

    if not isinstance(spec, dict):
        raise ValidationError(
            f"plan spec must be an object, got {type(spec).__name__}",
            stage="planspec",
        )
    unknown = set(spec) - {
        "kernel", "name", "remap", "on_stage_failure", "validation", "steps",
    }
    if unknown:
        raise ValidationError(
            f"unknown plan spec key(s) {sorted(unknown)}",
            stage="planspec",
        )
    if "kernel" not in spec:
        raise ValidationError("plan spec missing 'kernel'", stage="planspec")
    kernel = kernel_by_name(spec["kernel"])

    steps: List[Step] = []
    for position, entry in enumerate(spec.get("steps", [])):
        if isinstance(entry, str):
            entry = {"type": entry}
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValidationError(
                f"step {position} must be a string or an object with a "
                f"'type' key, got {entry!r}",
                stage="planspec",
            )
        params = {k: v for k, v in entry.items() if k != "type"}
        steps.append(make_step(entry["type"], **params))

    return CompositionPlan(
        kernel,
        steps,
        name=spec.get("name", ""),
        remap=spec.get("remap", "once"),
        on_stage_failure=spec.get("on_stage_failure", "raise"),
        validation=spec.get("validation", "strict"),
    )


def step_to_spec(step: Step) -> dict:
    """Serialize one step back to its spec entry.

    The entry is the step's declared ``params``.  Steps whose exact class
    is not the registered one for a spec type (space-filling steps, whose
    coordinate arrays have no spec syntax; subclasses of a registered
    step) are rejected, as are steps carrying undeclared attributes —
    the plan-cache fingerprint hashes those, so dropping them would not
    round-trip.
    """
    spec_type = getattr(type(step), "spec_type", None)
    if STEP_TYPES.get(spec_type) is not type(step):
        raise ValidationError(
            f"step {type(step).__name__} has no plan-spec type and cannot "
            "be serialized",
            stage="planspec",
            hint=f"serializable step types: {sorted(STEP_TYPES)}",
        )
    declared = sorted(param.name for param in step.params)
    undeclared = sorted(set(vars(step)) - set(declared))
    if undeclared:
        key = undeclared[0]
        raise ValidationError(
            f"step {spec_type!r} parameter {key!r} of type "
            f"{type(vars(step)[key]).__name__} is not spec-serializable",
            stage="planspec",
        )
    return {"type": spec_type, **{key: getattr(step, key) for key in declared}}


def plan_to_spec(plan) -> dict:
    """Serialize a :class:`CompositionPlan` back to its plan spec.

    The inverse of :func:`plan_from_spec`: ``plan_from_spec(plan_to_spec(p))``
    builds a plan with the same cache fingerprint, and re-serializing is
    byte-stable (``dumps_plan_spec`` reaches a fixed point after one
    round trip — the service relies on this to treat specs as a wire
    format).
    """
    return {
        "kernel": plan.kernel.name,
        "name": plan.name,
        "remap": plan.remap,
        "on_stage_failure": plan.on_stage_failure,
        "validation": plan.validation,
        "steps": [step_to_spec(step) for step in plan.steps],
    }


def dumps_plan_spec(spec: dict) -> str:
    """Canonical JSON encoding of a plan spec (stable key order)."""
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def load_plan_spec(path: str):
    """Read a JSON plan spec file and build its plan."""
    if not os.path.exists(path):
        raise BindError(f"plan spec file not found: {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"plan spec {path!r} is not valid JSON: {exc}",
                stage="planspec",
            ) from None
    return plan_from_spec(spec)


__all__ = [
    "STEP_TYPES",
    "dumps_plan_spec",
    "load_plan_spec",
    "make_step",
    "plan_from_spec",
    "plan_to_spec",
    "step_to_spec",
]
