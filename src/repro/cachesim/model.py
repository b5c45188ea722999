"""Convenience entry point: trace -> simulated cycles on a machine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.hierarchy import HierarchyResult
from repro.cachesim.machines import Machine
from repro.cachesim.trace import AccessTrace


@dataclass
class CostReport:
    """Cycles plus the underlying per-level statistics."""

    machine: str
    cycles: int
    result: HierarchyResult

    @property
    def l1_miss_rate(self) -> float:
        return self.result.level_stats[0].miss_rate


def simulate_cost(trace: AccessTrace, machine: Machine) -> CostReport:
    """Simulate a trace on a machine and price it in cycles."""
    result = machine.hierarchy().simulate_trace(trace)
    return CostReport(
        machine=machine.name,
        cycles=machine.cost_cycles(result),
        result=result,
    )
