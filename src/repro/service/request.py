"""Typed service requests and responses (the wire objects).

A :class:`BindRequest` names everything one bind needs: the **plan
spec** (the same JSON objects :mod:`repro.runtime.planspec` consumes —
the service makes plan specs a public wire format) and a **dataset
handle** (name + scale; the dataset generators are deterministic, so a
handle fully determines the index arrays and payload).  Per-request
knobs — verification, executor steps, a deadline and its policy —
complete the request.

A :class:`BindResponse` deliberately does **not** carry the realized
index arrays (megabytes of ``int64`` per request): it carries their
SHA-256 **content digests** plus the pipeline report, cache/coalescing
provenance, and per-stage timings.  Digests are exactly what the
bit-identity acceptance tests compare against a direct
``CompositionPlan.bind()`` — equal digests over every array is equality
of the arrays.  In-process callers who need the arrays themselves use
``PlanService.bind_result`` and receive the live
:class:`~repro.runtime.inspector.InspectorResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ValidationError

#: Recognized deadline policies (mirrors the stage-failure policies:
#: ``raise`` is strict, ``degrade`` trades strictness for availability).
DEADLINE_POLICIES = ("raise", "degrade")


@dataclass
class BindRequest:
    """One bind/inspect request against a shared dataset.

    ``spec`` is a plan spec object (see :mod:`repro.runtime.planspec`);
    ``dataset`` and ``scale`` are the dataset handle;``num_steps`` and
    ``verify`` are forwarded to :meth:`CompositionPlan.bind`;
    ``deadline_s`` is a relative deadline from submission, handled per
    ``on_deadline`` (``raise`` -> typed
    :class:`~repro.errors.DeadlineExceededError`, ``degrade`` -> the
    late result is served and marked).
    """

    spec: dict
    dataset: str
    scale: Optional[int] = None
    num_steps: int = 2
    verify: Optional[bool] = None
    deadline_s: Optional[float] = None
    on_deadline: str = "raise"
    #: Dataset epoch the client wants (streaming scenario).  ``None``
    #: serves whatever epoch the service has published; an explicit
    #: epoch pins the read to that version (older retained epochs are
    #: served exactly).  A request *ahead* of the published epoch is
    #: answered from the newest published epoch when the gap is within
    #: ``max_staleness`` — the stale-but-within-tolerance mode, marked
    #: ``stale`` on the response — and rejected past it.
    epoch: Optional[int] = None
    #: How many epochs behind ``epoch`` this request tolerates.
    max_staleness: int = 0
    #: Assigned by the service at submission (stable across spans).
    request_id: str = ""

    def __post_init__(self):
        if not isinstance(self.spec, dict):
            raise ValidationError(
                f"request spec must be a plan-spec object, got "
                f"{type(self.spec).__name__}",
                stage="service",
            )
        if not isinstance(self.dataset, str) or not self.dataset:
            raise ValidationError(
                "request must name a dataset", stage="service"
            )
        if self.on_deadline not in DEADLINE_POLICIES:
            raise ValidationError(
                f"unknown on_deadline policy {self.on_deadline!r}",
                stage="service",
                hint=f"choose one of {DEADLINE_POLICIES}",
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValidationError(
                f"deadline_s must be non-negative, got {self.deadline_s}",
                stage="service",
            )
        if self.num_steps < 1:
            raise ValidationError(
                f"num_steps must be >= 1, got {self.num_steps}",
                stage="service",
            )
        if self.epoch is not None and self.epoch < 0:
            raise ValidationError(
                f"epoch must be non-negative, got {self.epoch}",
                stage="service",
            )
        if self.max_staleness < 0:
            raise ValidationError(
                f"max_staleness must be non-negative, got "
                f"{self.max_staleness}",
                stage="service",
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "BindRequest":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request must be a JSON object, got {type(payload).__name__}",
                stage="service",
            )
        unknown = set(payload) - {
            "spec", "dataset", "scale", "num_steps", "verify",
            "deadline_s", "on_deadline", "epoch", "max_staleness",
            "request_id",
        }
        if unknown:
            raise ValidationError(
                f"unknown request key(s) {sorted(unknown)}", stage="service"
            )
        missing = {"spec", "dataset"} - set(payload)
        if missing:
            raise ValidationError(
                f"request missing key(s) {sorted(missing)}", stage="service"
            )
        return cls(
            spec=payload["spec"],
            dataset=payload["dataset"],
            scale=payload.get("scale"),
            num_steps=payload.get("num_steps", 2),
            verify=payload.get("verify"),
            deadline_s=payload.get("deadline_s"),
            on_deadline=payload.get("on_deadline", "raise"),
            epoch=payload.get("epoch"),
            max_staleness=payload.get("max_staleness", 0),
            request_id=payload.get("request_id", ""),
        )

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec,
            "dataset": self.dataset,
            "scale": self.scale,
            "num_steps": self.num_steps,
            "verify": self.verify,
            "deadline_s": self.deadline_s,
            "on_deadline": self.on_deadline,
        }
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.max_staleness:
            out["max_staleness"] = self.max_staleness
        if self.request_id:
            out["request_id"] = self.request_id
        return out


@dataclass
class BindResponse:
    """The service's answer to one :class:`BindRequest`."""

    request_id: str
    status: str  # "ok" | "error"
    #: Single-flight provenance: did this response share another
    #: request's inspector run?
    coalesced: bool = False
    #: Plan-cache provenance ("hit"/"stored"/None), from the report.
    cache: Optional[str] = None
    #: SHA-256 digests of the realized arrays (left/right/sigma and
    #: every payload array as ``payload:<name>``) — the bit-identity
    #: contract with a direct ``CompositionPlan.bind()``.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    overhead: Dict[str, int] = field(default_factory=dict)
    data_moves: int = 0
    report: Optional[dict] = None
    #: ``queue_ms`` (submit -> execute), ``bind_ms`` (the inspector run;
    #: 0 for coalesced followers), ``total_ms`` (submit -> respond).
    timing: Dict[str, float] = field(default_factory=dict)
    #: The request missed its deadline but was served anyway
    #: (``on_deadline='degrade'``).
    deadline_missed: bool = False
    #: Dataset epoch this answer was computed against (``None``: the
    #: service has no epoch state for the handle).
    epoch: Optional[int] = None
    #: The answer is behind the epoch the request asked for, served
    #: under its ``max_staleness`` tolerance (mirrors
    #: ``deadline_missed`` for the degrade-to-stale mode).
    stale: bool = False
    error: Optional[dict] = None  # see :func:`error_body`

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "status": self.status,
            "coalesced": self.coalesced,
            "cache": self.cache,
            "fingerprints": dict(self.fingerprints),
            "overhead": dict(self.overhead),
            "data_moves": self.data_moves,
            "report": self.report,
            "timing": {k: round(v, 3) for k, v in self.timing.items()},
            "deadline_missed": self.deadline_missed,
            "epoch": self.epoch,
            "stale": self.stale,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BindResponse":
        return cls(
            request_id=payload.get("request_id", ""),
            status=payload.get("status", "error"),
            coalesced=payload.get("coalesced", False),
            cache=payload.get("cache"),
            fingerprints=dict(payload.get("fingerprints") or {}),
            overhead=dict(payload.get("overhead") or {}),
            data_moves=payload.get("data_moves", 0),
            report=payload.get("report"),
            timing=dict(payload.get("timing") or {}),
            deadline_missed=payload.get("deadline_missed", False),
            epoch=payload.get("epoch"),
            stale=payload.get("stale", False),
            error=payload.get("error"),
        )


def error_body(error: BaseException) -> dict:
    """The wire form of one typed error (``BindResponse.error``):
    ``shed`` marks a request dropped by the shed-oldest policy,
    ``attempts`` the dispatches a fleet spent before giving up (0 where
    nothing was retried)."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "shed": bool(getattr(error, "shed", False)),
        "attempts": int(getattr(error, "attempts", 0) or 0),
    }


def result_digests(result) -> Dict[str, str]:
    """Content digests of everything a bind's executor state comprises.

    Covers the transformed ``left``/``right`` index arrays, the total
    data reordering ``sigma``, and every reordered payload array —
    digest equality here is bit-identity of the executor state.  Hashes
    ``result``'s arrays as they are now, so it follows an executor run
    in place on ``result.transformed``; a response reads the digests a
    plan-cache hit already holds (``result.digests``) instead.
    """
    from repro.plancache.fingerprint import index_digests, payload_digests

    transformed = result.transformed
    return {
        **index_digests(
            transformed.left, transformed.right, result.sigma_nodes.array
        ),
        **payload_digests(transformed.arrays),
    }


__all__ = [
    "BindRequest",
    "BindResponse",
    "DEADLINE_POLICIES",
    "error_body",
    "result_digests",
]
