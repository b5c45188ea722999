"""Run-time legality and correctness verification.

Two complementary checks close the loop between the compile-time
specifications and the run-time index arrays:

* :func:`verify_numeric_equivalence` — the end-to-end check: run the
  baseline executor and the transformed executor (relocated payload and
  adjusted index arrays) through the *untiled* executor, pull the
  transformed result back through ``sigma^-1``, and compare.  It runs no
  tile schedule, so a tiled bind's schedule is not exercised here:
  :func:`~repro.runtime.inspector.validate_tiling`, run once per tiling
  by the stage loop, is the only bind-time check of a tiling.
* :func:`verify_dependences` — the framework check: bind the UFS of the
  final transformed dependence relations to the concrete index arrays and
  reordering functions, enumerate every dependence pair, and assert the
  source precedes the destination lexicographically.  This is the runtime
  discharge of the compile-time legality obligations (small inputs only —
  enumeration is exponential in arity, which is fine for verification).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import BindError, ExecutorFault
from repro.kernels.data import KernelData
from repro.presburger.evaluate import Environment
from repro.presburger.ordering import lex_lt
from repro.runtime.executor import run_numeric
from repro.runtime.inspector import InspectorResult
from repro.runtime.plan import CompositionPlan


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

    Raises :class:`~repro.errors.ExecutorFault` (an ``AssertionError``
    subclass) naming the offending array and the first mismatching
    positions; returns ``True`` otherwise.
    """
    baseline = run_numeric(original.copy(), num_steps)
    transformed = run_numeric(result.transformed.copy(), num_steps)
    inv = result.sigma_nodes.inverse()
    for name, expected in baseline.arrays.items():
        actual = inv.apply_to_data(transformed.arrays[name])
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


#: Successful verification verdicts keyed by
#: (verification fingerprint, num_steps, rtol, atol).  Only successes are
#: memoized — a failing verification raises and must re-run to re-raise
#: with fresh diagnostics.  Bounded FIFO so long-lived processes cannot
#: grow it without limit.
_VERIFICATION_MEMO: Dict[tuple, bool] = {}
_VERIFICATION_MEMO_LIMIT = 4096


def clear_verification_memo() -> int:
    """Drop every memoized verification verdict; returns how many."""
    count = len(_VERIFICATION_MEMO)
    _VERIFICATION_MEMO.clear()
    return count


def verify_numeric_equivalence_memoized(
    original: KernelData,
    result: InspectorResult,
    num_steps: int = 2,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    memo_key: Optional[str] = None,
    stats=None,
) -> bool:
    """:func:`verify_numeric_equivalence`, memoized by content.

    ``memo_key`` must fingerprint everything the verdict depends on —
    the plan *and* the dataset including payload values (see
    :func:`repro.plancache.fingerprint.verification_fingerprint`).
    Binding the same degraded plan to the same dataset twice then runs
    the two full executor passes only once.  With ``memo_key=None`` the
    memo is bypassed entirely.  ``stats`` (a
    :class:`~repro.plancache.stats.CacheStats`) counts memoized skips.
    """
    key = (memo_key, num_steps, rtol, atol)
    if memo_key is not None and _VERIFICATION_MEMO.get(key):
        if stats is not None:
            stats.verify_memo_hits += 1
        return True
    ok = verify_numeric_equivalence(
        original, result, num_steps=num_steps, rtol=rtol, atol=atol
    )
    if memo_key is not None:
        while len(_VERIFICATION_MEMO) >= _VERIFICATION_MEMO_LIMIT:
            _VERIFICATION_MEMO.pop(next(iter(_VERIFICATION_MEMO)))
        _VERIFICATION_MEMO[key] = ok
    return ok


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
