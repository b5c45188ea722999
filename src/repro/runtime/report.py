"""Per-stage pipeline reporting for the composed inspector.

Every run of a :class:`~repro.runtime.inspector.ComposedInspector` (and
every :meth:`~repro.runtime.plan.CompositionPlan.bind`) produces a
:class:`PipelineReport`: one :class:`StageRecord` per stage with its
status, wall-clock time, inspector touches charged, and — when the run
degraded under a permissive failure policy — the fallback taken and the
error that triggered it.  ``python -m repro doctor`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Stage statuses a record can carry.
STAGE_OK = "ok"
STAGE_SKIPPED = "skipped"
STAGE_IDENTITY = "identity"
STAGE_FAILED = "failed"


@dataclass
class StageRecord:
    """Outcome of one inspector stage."""

    index: int
    name: str
    status: str  #: one of ok/skipped/identity/failed
    elapsed_s: float = 0.0
    touches: int = 0
    error: Optional[str] = None  #: str() of the triggering error, if any
    error_type: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.status in (STAGE_SKIPPED, STAGE_IDENTITY)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "touches": self.touches,
            "error": self.error,
            "error_type": self.error_type,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageRecord":
        return cls(
            index=int(payload["index"]),
            name=payload["name"],
            status=payload["status"],
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            touches=int(payload.get("touches", 0)),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
        )

    def __str__(self) -> str:
        line = (
            f"stage {self.index} [{self.name}]: {self.status}"
            f" ({self.elapsed_s * 1e3:.2f} ms, {self.touches} touches)"
        )
        if self.error:
            line += f" — {self.error_type}: {self.error}"
        return line


@dataclass
class PipelineReport:
    """The full story of one inspector run."""

    plan_name: str = ""
    policy: str = "raise"  #: the on_stage_failure policy in force
    stages: List[StageRecord] = field(default_factory=list)
    #: Validation findings observed before the run (strings).
    validation: List[str] = field(default_factory=list)
    #: Did the post-degradation numeric safety net run, and did it pass?
    verified: Optional[bool] = None
    #: Plan-cache interaction of the bind that produced this report:
    #: ``None`` (no cache), ``"stored"`` (cold run, persisted), or
    #: ``"hit"`` (stages replayed from cache — nothing ran).
    cache: Optional[str] = None
    #: Static-analysis summary of the plan that was bound (the
    #: :meth:`~repro.analysis.diagnostics.AnalysisReport.summary` dict),
    #: or ``None`` when the plan was never analyzed.
    analysis: Optional[dict] = None

    @property
    def degraded(self) -> bool:
        return any(s.degraded for s in self.stages)

    @property
    def failed(self) -> bool:
        return any(s.status == STAGE_FAILED for s in self.stages)

    @property
    def fallbacks(self) -> List[StageRecord]:
        return [s for s in self.stages if s.degraded]

    @property
    def total_elapsed_s(self) -> float:
        return sum(s.elapsed_s for s in self.stages)

    def record(self, record: StageRecord) -> StageRecord:
        self.stages.append(record)
        return record

    def to_dict(self) -> dict:
        return {
            "plan_name": self.plan_name,
            "policy": self.policy,
            "stages": [s.to_dict() for s in self.stages],
            "validation": list(self.validation),
            "verified": self.verified,
            "cache": self.cache,
            "analysis": dict(self.analysis) if self.analysis else None,
        }

    @staticmethod
    def from_dict(payload: dict) -> "PipelineReport":
        return PipelineReport(
            plan_name=payload.get("plan_name", ""),
            policy=payload.get("policy", "raise"),
            stages=[StageRecord.from_dict(s) for s in payload.get("stages", [])],
            validation=list(payload.get("validation", [])),
            verified=payload.get("verified"),
            cache=payload.get("cache"),
            analysis=payload.get("analysis"),
        )

    def describe(self) -> str:
        head = f"PipelineReport({self.plan_name or 'composition'!s}"
        head += f", policy={self.policy!r}"
        if self.cache is not None:
            head += f", cache={self.cache}"
        if self.degraded:
            head += f", DEGRADED ({len(self.fallbacks)} fallbacks)"
        head += ")"
        lines = [head]
        for note in self.validation:
            lines.append(f"  validation: {note}")
        for stage in self.stages:
            lines.append(f"  {stage}")
        if not self.stages:
            lines.append("  (no stages)")
        if self.verified is not None:
            lines.append(
                "  safety net: executor output "
                + (
                    "verified bit-identical to untransformed kernel"
                    if self.verified
                    else "FAILED verification"
                )
            )
        if self.analysis is not None:
            codes = ", ".join(self.analysis.get("codes", [])) or "clean"
            lines.append(
                f"  analysis: {self.analysis.get('errors', 0)} error(s), "
                f"{self.analysis.get('warnings', 0)} warning(s) [{codes}]"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


__all__ = [
    "PipelineReport",
    "StageRecord",
    "STAGE_OK",
    "STAGE_SKIPPED",
    "STAGE_IDENTITY",
    "STAGE_FAILED",
]
