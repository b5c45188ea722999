"""Run-time legality and correctness verification.

Three checks close the loop between the compile-time specifications
and the run-time index arrays:

* :func:`~repro.transforms.fst.check_tiling` — sparse tiling's legality
  over the concrete dependence edge sets, the only bind-time check of a
  tiling, run once per tiling by the stage loop
  (:func:`~repro.runtime.inspector.validate_tiling`).
* :func:`verify_numeric_equivalence` — the end-to-end check: run the
  baseline executor and the transformed executor (relocated payload and
  adjusted index arrays) through the *untiled* executor, pull the
  transformed result back through ``sigma^-1``, and compare.  The
  baseline's output is a derived fact of the dataset
  (:meth:`~repro.kernels.data.KernelData.derived`, keyed by
  ``num_steps`` and the executor tier), so binding one dataset under
  many plans runs the untransformed kernel once.  A bind's verdict is a
  derived fact of the dataset too (:func:`verify_bind`), keyed by the
  plan and by what made the judged result (a cold run or hit, or one
  delta-bind patch), so rebinding a degraded plan runs the transformed
  kernel once.
* :func:`verify_dependences` — the framework check: bind the UFS of the
  final transformed dependence relations to the concrete index arrays and
  reordering functions, enumerate every dependence pair, and assert the
  source precedes the destination lexicographically.  This is the runtime
  discharge of the compile-time legality obligations (small inputs only —
  enumeration is exponential in arity; no bind runs it).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Optional

import numpy as np

from repro.errors import BindError, ExecutorFault
from repro.kernels.data import KernelData
from repro.lowering.executor import resolve_executor_backend, sanitize_enabled
from repro.presburger.evaluate import Environment
from repro.presburger.ordering import lex_lt
from repro.runtime.executor import run_numeric
from repro.runtime.inspector import InspectorResult
from repro.runtime.plan import CompositionPlan


def _executor_tier() -> tuple:
    """The resolved executor backend and sanitizer switch: the tier a
    reference run and a verdict were computed on."""
    return (resolve_executor_backend(None, warn=False).backend, sanitize_enabled())


def _run_payload(data: KernelData, num_steps: int) -> Dict[str, np.ndarray]:
    """The kernel's output payload over ``num_steps``, run on a copy of
    ``data``'s payload and on its own ``left``/``right``, which the
    executor only reads."""
    payload = {name: array.copy() for name, array in data.arrays.items()}
    return run_numeric(dataclasses.replace(data, arrays=payload), num_steps).arrays


def _reference_payload(data: KernelData, num_steps: int) -> Dict[str, np.ndarray]:
    """:func:`_run_payload` of the untransformed dataset, frozen."""
    payload = _run_payload(data, num_steps)
    for array in payload.values():
        array.flags.writeable = False
    return payload


def verify_numeric_equivalence(
    original: KernelData,
    result: InspectorResult,
    num_steps: int = 2,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> bool:
    """Baseline run == transformed run pulled back through ``sigma^-1``.

    Both sides run untiled (:func:`~repro.runtime.executor.run_numeric`),
    whatever tiling ``result`` holds: this checks the data and iteration
    reorderings, not the tile schedule (see the module docstring).

    The baseline's output payload is a derived fact of ``original``,
    keyed by ``num_steps`` and the resolved executor tier (backend and
    sanitizer), so it is computed once per dataset and deriving it
    freezes ``original``'s arrays.  The transformed side runs on every
    call, on a copy of ``result.transformed``'s payload.

    Raises :class:`~repro.errors.ExecutorFault` (an ``AssertionError``
    subclass) naming the offending array and the first mismatching
    positions; returns ``True`` otherwise.
    """
    baseline = original.derived(
        ("reference", num_steps, _executor_tier()),
        lambda: _reference_payload(original, num_steps),
    )
    transformed = _run_payload(result.transformed, num_steps)
    inv = result.sigma_nodes.inverse()
    for name, expected in baseline.items():
        actual = inv.apply_to_data(transformed[name])
        close = np.isclose(actual, expected, rtol=rtol, atol=atol)
        if not close.all():
            worst = float(np.abs(actual - expected).max())
            raise ExecutorFault(
                f"array {name!r} differs after pullback "
                f"(max |delta| = {worst}, {int((~close).sum())} entries) at",
                stage="numeric-equivalence",
                indices=np.flatnonzero(~close)[:5].tolist(),
                hint="an inspector stage moved the payload and index "
                "arrays inconsistently",
            )
    return True


#: Bumped by :func:`clear_verification_memo`; part of every verdict's
#: key, so a verdict recorded before a clear is never read again.
_generation = 0
#: Verdicts recorded since the last clear.
_recorded = 0
#: Guards both counters against concurrent binds.
_counters = threading.Lock()


def clear_verification_memo() -> int:
    """Retire every recorded verdict, so the next verification of any
    dataset runs the executor again; returns how many verdicts were
    recorded since the last clear."""
    global _generation, _recorded
    with _counters:
        count, _recorded = _recorded, 0
        _generation += 1
    return count


def verify_bind(
    plan: CompositionPlan,
    data: KernelData,
    result: InspectorResult,
    made_by,
    num_steps: int = 2,
    stats=None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> bool:
    """:func:`verify_numeric_equivalence` of a bind, its verdict a fact
    of the dataset it judged.

    The verdict is ``data.derived(("verdict", generation, plan
    fingerprint, made_by, num_steps, tier, rtol, atol), ...)``, where
    ``made_by`` names what produced ``result``: ``"bind"`` for a cold
    run or a plan-cache hit (a hit serves what the cold bind stored),
    ``("patched", parent key, delta fingerprint)`` for a delta-bind's
    patch.  Binding the same degraded plan to the same dataset twice
    runs the transformed executor once, and a patch is never answered by
    a verdict on another kind of result.  Only successes are kept: a
    failing check raises out of the fact's computation, which stores
    nothing.  A dataset that is not a :class:`KernelData` is verified
    on every call.  ``stats`` (a
    :class:`~repro.plancache.stats.CacheStats`) counts reused verdicts.
    """
    if not isinstance(data, KernelData):
        return verify_numeric_equivalence(
            data, result, num_steps=num_steps, rtol=rtol, atol=atol
        )
    recorded = []

    def check() -> bool:
        global _recorded
        verify_numeric_equivalence(
            data, result, num_steps=num_steps, rtol=rtol, atol=atol
        )
        recorded.append(True)
        with _counters:
            _recorded += 1
        return True

    key = (
        "verdict", _generation, plan.fingerprint(), made_by,
        num_steps, _executor_tier(), rtol, atol,
    )
    data.derived(key, check)
    if not recorded and stats is not None:
        stats.verify_memo_hits += 1
    return True


def _bind_environment(
    original: KernelData,
    result: InspectorResult,
    num_steps: int,
) -> Environment:
    """Bind symbols, index arrays, and every per-stage reordering function.

    The transformed relations reference each stage's UFS by name (``cp0``,
    ``lg1``, ``theta4``, ...); the composed inspector registered exactly
    those functions as it generated them, each over the numbering current
    at its own stage — so the binding is direct.  A plan-cache hit ran no
    stage and carries none: :class:`~repro.errors.BindError`.
    """
    if result.stage_functions is None:
        raise BindError(
            "the result came from the plan cache, which keeps no per-stage "
            "reordering functions; bind without a cache to verify it",
            stage="verify",
        )
    env = Environment(
        symbols={
            "num_steps": num_steps,
            **original.symbols(),
        }
    )
    env.bind_array("left", original.left)
    env.bind_array("right", original.right)

    for name, value in result.stage_functions.items():
        if name.startswith("theta"):
            tiles = value

            def theta(l, x, _tiles=tiles):
                return int(_tiles[l][x])

            env.bind_function(name, theta)
        else:
            env.bind_array(name, value)
    return env


def verify_dependences(
    original: KernelData,
    result: InspectorResult,
    plan: CompositionPlan,
    num_steps: int = 2,
    max_pairs: Optional[int] = None,
) -> int:
    """Enumerate the final transformed dependences; assert lex order.

    Returns the number of dependence pairs checked.  Reduction dependences
    are skipped (they are reorderable by definition).  Each stage's UFS
    is bound to the function that stage produced (``cp0``, ``lg1``, ...,
    over the numbering current at that stage); the final relations
    compose them, so this checks the end-to-end composition — precisely
    the executor-facing obligation.  A result from the plan cache carries
    no stage functions and raises :class:`~repro.errors.BindError`.

    Only use on small instances: enumeration is a full scan.
    """
    final_state = plan.final_state
    env = _bind_environment(original, result, num_steps)

    checked = 0
    for dep in final_state.dependences:
        if dep.is_reduction:
            continue
        for src, dst in env.enumerate_relation(dep.relation):
            if not lex_lt(src, dst):
                raise ExecutorFault(
                    f"dependence {dep.name} violated: {src} !< {dst}",
                    stage="dependence-order",
                    hint="a reordering function broke lexicographic "
                    "order; the composition is illegal on this input",
                )
            checked += 1
            if max_pairs is not None and checked >= max_pairs:
                return checked
    return checked
