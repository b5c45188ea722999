"""Cache observability: hit/miss/evict/store counters.

One :class:`CacheStats` instance rides along with each
:class:`~repro.plancache.store.PlanCache`; every tier and every
integration point (``CompositionPlan.bind``, ``ComposedInspector.run``,
the verification memo) increments it.  ``python -m repro cache stats``
prints it; the amortization benchmark serializes it into
``BENCH_plancache.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable


@dataclass
class CacheStats:
    """Counters for one plan-cache instance."""

    #: Whole-bind lookups that found a reusable entry / found nothing.
    hits: int = 0
    misses: int = 0
    #: Entries written (a miss that completed and was persisted).
    stores: int = 0
    #: In-memory entries dropped to respect the byte budget.
    evictions: int = 0
    #: Tier attribution of hits.
    memory_hits: int = 0
    disk_hits: int = 0
    #: Disk artifacts rejected as unreadable / mismatched — each one is a
    #: *safe miss*: the inspectors re-run instead of reusing bad state.
    corrupt: int = 0
    #: Of the corrupt artifacts, how many were moved into the
    #: ``quarantine/`` sibling (with a reason file) instead of unlinked —
    #: chaos-injected corruption stays observable, not a silent cold miss.
    corrupt_quarantined: int = 0
    #: Numeric verifications skipped thanks to the verification memo.
    verify_memo_hits: int = 0
    #: Inspector stages never executed because the whole bind hit.
    stages_skipped: int = 0
    #: Stages of a cold bind that replayed an inspector output an earlier
    #: bind of the same step prefix on the same dataset stored.  These
    #: lookups are not whole-bind ``hits``/``misses``.
    stages_replayed: int = 0
    #: Delta-binds that patched the parent epoch's arrays incrementally.
    delta_patched: int = 0
    #: Delta-binds that degraded to a full re-bind (drift past a per-step
    #: threshold, unpatchable stage, missing parent, DAG rejection, ...).
    delta_fallbacks: int = 0
    #: Of the fallbacks, how many were triggered by the mandatory
    #: post-patch numeric verification rejecting the patched bind.
    delta_verify_failures: int = 0
    #: Per-stage (step-name) attribution of hits, misses and replays.
    stage_hits: Dict[str, int] = field(default_factory=dict)
    stage_misses: Dict[str, int] = field(default_factory=dict)
    stage_replays: Dict[str, int] = field(default_factory=dict)

    # -- recording -------------------------------------------------------------

    def record_hit(self, stage_names: Iterable[str], tier: str) -> None:
        self.hits += 1
        if tier == "memory":
            self.memory_hits += 1
        elif tier == "disk":
            self.disk_hits += 1
        for name in stage_names:
            self.stage_hits[name] = self.stage_hits.get(name, 0) + 1
            self.stages_skipped += 1

    def record_miss(self, stage_names: Iterable[str]) -> None:
        self.misses += 1
        for name in stage_names:
            self.stage_misses[name] = self.stage_misses.get(name, 0) + 1

    def record_replay(self, stage_name: str) -> None:
        self.stages_replayed += 1
        self.stage_replays[stage_name] = self.stage_replays.get(stage_name, 0) + 1

    # -- derived ---------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
            "corrupt_quarantined": self.corrupt_quarantined,
            "verify_memo_hits": self.verify_memo_hits,
            "stages_skipped": self.stages_skipped,
            "stages_replayed": self.stages_replayed,
            "delta_patched": self.delta_patched,
            "delta_fallbacks": self.delta_fallbacks,
            "delta_verify_failures": self.delta_verify_failures,
            "hit_rate": self.hit_rate,
            "stage_hits": dict(self.stage_hits),
            "stage_misses": dict(self.stage_misses),
            "stage_replays": dict(self.stage_replays),
        }

    def describe(self) -> str:
        lines = [
            "CacheStats("
            f"hits={self.hits} [memory={self.memory_hits}, "
            f"disk={self.disk_hits}], misses={self.misses}, "
            f"hit_rate={self.hit_rate:.2f})",
            f"  stores: {self.stores}  evictions: {self.evictions}  "
            f"corrupt artifacts: {self.corrupt} "
            f"({self.corrupt_quarantined} quarantined)",
            f"  inspector stages skipped: {self.stages_skipped}  "
            f"replayed: {self.stages_replayed}  "
            f"verifications memoized: {self.verify_memo_hits}",
        ]
        if self.delta_patched or self.delta_fallbacks:
            lines.append(
                f"  delta-binds: {self.delta_patched} patched, "
                f"{self.delta_fallbacks} fell back to full re-bind "
                f"({self.delta_verify_failures} verification rejections)"
            )
        for name in sorted(
            {*self.stage_hits, *self.stage_misses, *self.stage_replays}
        ):
            lines.append(
                f"  stage {name}: {self.stage_hits.get(name, 0)} hits, "
                f"{self.stage_misses.get(name, 0)} misses, "
                f"{self.stage_replays.get(name, 0)} replayed"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


__all__ = ["CacheStats"]
