"""Delta-binds: incremental inspectors for mutating datasets.

The paper amortizes inspector cost by reusing a frozen plan across
executor runs (Figures 8-9); this subsystem extends the amortization
across *dataset epochs*.  Given a cached bind for dataset fingerprint
``F`` and a :class:`DatasetDelta` (added/removed interactions, moved
nodes), :func:`delta_bind` patches the realized sigma/delta reorderings,
payload permutation, and sparse-tile schedule incrementally instead of
re-running the full inspector pipeline — and proves the patch: every
delta-bound result is re-verified against the runtime numeric verifier,
patched :class:`~repro.lowering.schedule.TileDAG` dependence counters
are re-proved by IRV006 before any dynamic pool runs, and any mismatch
or drift past a per-step threshold degrades to a full re-bind (counted
in the cache stats, never silent).
"""

from repro.incremental.delta import DatasetDelta, EpochAux
from repro.incremental.engine import delta_bind, repair_tile_dag
from repro.incremental.rules import (
    DeltaRule,
    UnsupportedDelta,
    plan_delta_eligibility,
)

__all__ = [
    "DatasetDelta",
    "DeltaRule",
    "EpochAux",
    "UnsupportedDelta",
    "delta_bind",
    "plan_delta_eligibility",
    "repair_tile_dag",
]
