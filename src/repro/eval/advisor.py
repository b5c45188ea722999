"""Run-time composition selection (the paper's Section 7, implemented).

    "Since characteristics of the dataset are not available until runtime,
    the selection and order of run-time reordering transformations depend
    on information available at runtime as well as compile time."

This module implements that guidance mechanism as a *sampling autotuner*:
at run time, before committing to a composition, it

1. extracts a small sample of the kernel instance (a contiguous block of
   interactions with its touched nodes compacted);
2. runs every candidate composition end to end on the sample — inspector,
   transformed executor trace, cache simulation;
3. projects each candidate's total cost over the planned number of time
   steps (``inspector + num_steps * executor``) and picks the argmin.

Because candidates are compared on the *same* sample with the *same*
machine model, the relative ranking transfers to the full instance (the
benchmark asserts the pick lands within a small factor of the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cachesim.machines import Machine
from repro.cachesim.model import simulate_cost
from repro.eval.compositions import COMPOSITIONS, composition_steps
from repro.kernels.data import KernelData
from repro.runtime.executor import ExecutionPlan, emit_trace
from repro.runtime.inspector import ComposedInspector


def sample_kernel_data(
    data: KernelData, sample_fraction: float, seed: int = 0
) -> KernelData:
    """A compacted sub-instance: a slice of interactions + their nodes.

    Takes a contiguous block of interactions (preserving whatever locality
    the current ordering has — sampling random interactions would make
    every candidate look equally bad) and renumbers the touched nodes
    densely.  Untouched node records are dropped; the node space keeps the
    same record size, so cache geometry effects carry over.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError("sample_fraction must be in (0, 1]")
    m = max(16, int(data.num_inter * sample_fraction))
    m = min(m, data.num_inter)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, max(1, data.num_inter - m + 1)))
    left = data.left[start : start + m]
    right = data.right[start : start + m]

    touched = np.unique(np.concatenate([left, right]))
    renumber = np.full(data.num_nodes, -1, dtype=np.int64)
    renumber[touched] = np.arange(len(touched), dtype=np.int64)

    return KernelData(
        kernel_name=data.kernel_name,
        dataset_name=f"{data.dataset_name}-sample",
        num_nodes=len(touched),
        left=renumber[left],
        right=renumber[right],
        arrays={k: v[touched].copy() for k, v in data.arrays.items()},
    )


@dataclass
class CandidateEstimate:
    """Projected cost of one candidate composition on the sample."""

    composition: str
    inspector_cycles: float
    executor_cycles_per_step: int

    def total_cycles(self, num_steps: int) -> float:
        return self.inspector_cycles + num_steps * self.executor_cycles_per_step


@dataclass
class Advice:
    """The advisor's decision plus everything it measured."""

    composition: str
    num_steps: int
    estimates: List[CandidateEstimate]

    def estimate_for(self, composition: str) -> CandidateEstimate:
        for e in self.estimates:
            if e.composition == composition:
                return e
        raise KeyError(composition)


def choose_composition(
    data: KernelData,
    machine: Machine,
    num_steps: int,
    candidates: Sequence[str] = COMPOSITIONS,
    sample_fraction: float = 0.1,
    seed: int = 0,
) -> Advice:
    """Pick the composition minimizing projected total cost on a sample.

    ``num_steps`` is the planned outer-loop trip count — the quantity that
    decides whether an expensive inspector (GPART, FST) pays off; short
    runs select cheap compositions, long runs absorb bigger inspectors.
    """
    # The sample must stay meaningfully larger than the targeted cache, or
    # every candidate (including the baseline) becomes cache-resident and
    # the ranking collapses; grow the fraction until the sampled node
    # payload covers several L1s (capped at the full instance).
    min_nodes = 6 * machine.l1.size_bytes / data.node_record_bytes
    needed_fraction = min(1.0, min_nodes / max(1, data.num_nodes))
    sample = sample_kernel_data(
        data, max(sample_fraction, needed_fraction), seed=seed
    )
    estimates: List[CandidateEstimate] = []
    for name in candidates:
        steps = composition_steps(name, sample, machine)
        if steps:
            result = ComposedInspector(steps).run(sample)
            trace = emit_trace(result.transformed, result.plan, num_steps=1)
            inspector_cycles = machine.inspector_cycles(result.total_touches)
        else:
            trace = emit_trace(sample, ExecutionPlan.identity(), num_steps=1)
            inspector_cycles = 0.0
        executor_cycles = simulate_cost(trace, machine).cycles
        estimates.append(
            CandidateEstimate(
                composition=name,
                inspector_cycles=inspector_cycles,
                executor_cycles_per_step=executor_cycles,
            )
        )
    best = min(estimates, key=lambda e: e.total_cycles(num_steps))
    return Advice(
        composition=best.composition, num_steps=num_steps, estimates=estimates
    )
