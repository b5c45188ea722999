"""Structured exception taxonomy for the whole pipeline.

The paper's composed inspector is a chain of stages, each consuming the
index arrays the previous stages produced — so one malformed array (or one
illegal stage) silently corrupts everything downstream.  Every guard in
this reproduction therefore raises a :class:`ReproError` subclass that
names the **stage**, the first few **offending indices**, and a
**remediation hint**, so a failure deep inside a composition is still
actionable at the surface.

Taxonomy::

    ReproError
    ├── ValidationError     malformed input data / index arrays (bind time)
    ├── BindError           dataset or kernel cannot be bound to the spec
    ├── LegalityError       a transformation is not provably legal
    │                       (compile-time side; also re-exported from
    │                       repro.uniform.legality for compatibility)
    ├── InspectorFault      an inspector stage failed or produced an
    │                       invalid reordering at run time
    ├── ExecutorFault       the transformed executor's output diverged
    │                       from (or cannot be proven equal to) the
    │                       untransformed kernel
    ├── ExecutorBoundsError a sanitized compiled executor trapped an
    │                       out-of-bounds index (corrupted sigma/delta
    │                       arrays or tile schedule) before touching data
    ├── CacheError          the plan cache is misconfigured (unwritable
    │                       cache dir, invalid budget); corrupted cache
    │                       *entries* never raise — they are safe misses
    ├── ServiceOverloadError the bind service's bounded admission queue
    │                       is full (reject policy) or the request was
    │                       shed (shed-oldest policy) before executing
    ├── DeadlineExceededError a request's deadline expired while it was
    │                       queued or coalesced, under the strict
    │                       ``on_deadline='raise'`` policy
    ├── WorkerCrashError    a fleet shard worker died (SIGKILL, wedged
    │                       past its liveness deadline, or its pipe
    │                       broke) while a request was in flight
    ├── CircuitOpenError    a shard's circuit breaker is open (the shard
    │                       is dark) and no probe slot was available
    ├── RetryExhaustedError a request burned its whole retry budget
    │                       without any shard completing it
    └── DegradedPlanWarning a stage was skipped / replaced by the
                            identity under a permissive failure policy

Subclasses also inherit the builtin exception types the pre-taxonomy code
raised (``ValueError``, ``KeyError``, ``AssertionError``), so existing
``except ValueError`` call sites and tests keep working unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _format_indices(indices: Sequence[int], limit: int = 5) -> str:
    """Render the first ``limit`` offending indices, eliding the rest."""
    shown = [str(int(i)) for i in list(indices)[:limit]]
    extra = len(indices) - len(shown)
    tail = f", ... (+{extra} more)" if extra > 0 else ""
    return "[" + ", ".join(shown) + tail + "]"


class ReproError(Exception):
    """Base of every typed pipeline error.

    Parameters beyond ``message`` are structured context: ``stage`` is the
    pipeline stage (step name or phase) that detected the problem,
    ``indices`` the first offending positions (capped for display), and
    ``hint`` a one-line remediation suggestion.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        indices: Optional[Sequence[int]] = None,
        hint: Optional[str] = None,
    ):
        self.stage = stage
        self.indices = list(indices) if indices is not None else []
        self.hint = hint
        parts = []
        if stage:
            parts.append(f"[stage {stage}]")
        parts.append(message)
        if self.indices:
            parts.append(f"offending indices {_format_indices(self.indices)}")
        if hint:
            parts.append(f"(hint: {hint})")
        super().__init__(" ".join(parts))

    @property
    def message(self) -> str:
        return str(self)


class ValidationError(ReproError, ValueError):
    """Malformed dataset or index array caught at bind/validation time."""


class BindError(ReproError, KeyError, ValueError):
    """A dataset/kernel/machine name or shape cannot be bound.

    Inherits ``KeyError`` (unknown-name lookups used to raise it) and
    ``ValueError`` (shape mismatches).  ``str()`` is overridden because
    ``KeyError`` would otherwise ``repr()`` the message.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s args[0]
        return Exception.__str__(self)


class LegalityError(ReproError):
    """A transformation is not provably legal at compile time.

    Migrated from ``repro.uniform.legality`` (which re-exports this class
    as an alias, so ``from repro.uniform.legality import LegalityError``
    keeps working).
    """


class InspectorFault(ReproError, RuntimeError):
    """An inspector stage crashed or produced an invalid reordering."""


class ExecutorFault(ReproError, AssertionError):
    """Transformed executor output diverges from the untransformed kernel.

    Inherits ``AssertionError`` because the runtime verifier historically
    raised bare assertions; ``except AssertionError`` still catches this.
    """


class ExecutorBoundsError(ReproError, IndexError):
    """An executor trapped operands that would address out of bounds.

    Raised by the sanitizer prologue of the guarded NumPy/C executors
    (see :mod:`repro.lowering.emit_numpy` / :mod:`repro.lowering.emit_c`)
    when an index array or tile-schedule entry would address outside its
    target array, and by every executor's entry — sanitized or not
    (``stage="executor"``) — when operand lengths disagree.  Both check
    *before* any data mutation, so the arrays are untouched when this
    raises — a corrupted dataset becomes a typed error instead of silent
    memory corruption.

    ``array`` names the offending index source (``left``, ``right`` or a
    schedule position); ``bound`` is the exclusive upper bound the value
    violated.
    """

    def __init__(
        self,
        message: str,
        *,
        array: Optional[str] = None,
        bound: Optional[int] = None,
        **kwargs,
    ):
        self.array = array
        self.bound = bound
        super().__init__(message, **kwargs)


class CacheError(ReproError, OSError):
    """The plan cache cannot be used as configured (e.g. the cache
    directory is not writable, or the memory budget is invalid).

    Note that *corrupted cache entries* never raise: they are demoted to
    safe misses by design — this error covers configuration problems
    only.
    """


class ServiceOverloadError(ReproError, RuntimeError):
    """The bind service refused a request under admission control.

    Raised (or returned as a typed error response) when the bounded
    request queue is full under the ``reject`` backpressure policy, when
    a ``block`` admission timed out, or when a queued request was dropped
    under the ``shed-oldest`` policy.  ``shed`` distinguishes the two
    fates: a rejected request never entered the queue, a shed one did.
    """

    def __init__(self, message: str, *, shed: bool = False, **kwargs):
        self.shed = shed
        super().__init__(message, **kwargs)


class DeadlineExceededError(ReproError, TimeoutError):
    """A service request's deadline expired before its result was served.

    Only raised under the strict ``on_deadline='raise'`` policy; the
    permissive ``'degrade'`` policy serves the (late) result anyway and
    marks the response, mirroring the stage-failure degradation policies.
    """


class WorkerCrashError(ReproError, ConnectionError):
    """A fleet shard worker process died while a request was in flight.

    Covers three fates that look identical from the parent's side: the
    process was killed (chaos SIGKILL, OOM), it wedged past its liveness
    deadline and the supervisor killed it, or its pipe broke mid-reply.
    The fleet treats all three as retryable shard failures; ``attempt``
    records which retry observed the crash.
    """

    def __init__(self, message: str, *, attempt: int = 0, **kwargs):
        self.attempt = attempt
        super().__init__(message, **kwargs)


class CircuitOpenError(ReproError, RuntimeError):
    """A shard's circuit breaker is open — the shard is dark.

    Raised internally when a request routes to a shard whose breaker has
    opened (K consecutive failures) and the half-open probe slot is
    taken.  The fleet reroutes or degrades to an in-process bind rather
    than surfacing this to clients, so seeing it at the surface means
    every shard *and* the in-process fallback were unavailable.
    """


class RetryExhaustedError(ReproError, RuntimeError):
    """A request burned its whole retry budget without completing.

    ``attempts`` is how many shard dispatches were made; ``last_error``
    is the final shard failure (usually a :class:`WorkerCrashError`).
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        last_error: Optional[BaseException] = None,
        **kwargs,
    ):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(message, **kwargs)


class DegradedPlanWarning(ReproError, UserWarning):
    """A stage failed and the plan degraded (skip/identity) instead of
    raising.  Issued via :func:`warnings.warn`; carries the same
    structured context as the error it replaced."""


__all__ = [
    "ReproError",
    "ValidationError",
    "BindError",
    "LegalityError",
    "InspectorFault",
    "ExecutorFault",
    "ExecutorBoundsError",
    "CacheError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "WorkerCrashError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "DegradedPlanWarning",
]
