"""Sample arithmetic of the harness: percentiles, speed correction, rounds.

Kept free of any ``repro`` import so ``test_harness.py`` can check the
maths on synthetic samples without building a dataset.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside 0..100")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def speed_factor(probe_ref_ms: float, probe_ms: Sequence[float]) -> float:
    """Multiplier that maps a timing taken at this moment's machine speed
    onto the reference machine speed: a probe that ran 10% slow scales
    every sample taken beside it down by 1/1.1."""
    if not probe_ms:
        raise ValueError("speed factor needs at least one probe sample")
    return probe_ref_ms / statistics.median(probe_ms)


#: Probes on each side of an op whose median corrects it.  Machine speed
#: on a shared box is autocorrelated over about a second; a window of the
#: nearest probes follows it where one factor per round cannot.
HALF_WINDOW = 2


@dataclass
class RoundSamples:
    """Raw measurements of one timed round.

    ``probe_at[k]`` is how many ops had run when probe ``k`` was taken, so
    ``probe_at`` is non-decreasing, starts at 0 and ends at ``ops``.
    """

    wall_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    probe_ms: List[float] = field(default_factory=list)
    probe_cpu_ms: List[float] = field(default_factory=list)
    probe_at: List[int] = field(default_factory=list)
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.wall_s)

    def add_probe(self, wall_ms: float, cpu_ms: float) -> None:
        self.probe_ms.append(wall_ms)
        self.probe_cpu_ms.append(cpu_ms)
        self.probe_at.append(self.ops)

    def factors(self, probe_ref_ms: float, probes: Sequence[float]) -> List[float]:
        """One speed factor per op, from the values in ``probes`` (this
        round's ``probe_ms`` or ``probe_cpu_ms``) nearest to it in time."""
        out = []
        for index in range(self.ops):
            # Probes [0, after) ran before this op, [after, ...) after it.
            after = bisect.bisect_right(self.probe_at, index)
            window = probes[max(0, after - HALF_WINDOW):after + HALF_WINDOW]
            out.append(speed_factor(probe_ref_ms, window))
        return out


def summarize_rounds(
    rounds: Sequence[RoundSamples], probe_ref_ms: float
) -> Dict[str, float]:
    """The timing metrics of one run from its rounds.

    ``op_p50_ms`` and ``op_p95_ms`` pool every corrected sample.
    Throughput and CPU cost are the median of the per-round values, so one
    stalled round cannot move them.  Wall times are corrected by the
    probes' wall times and CPU times by the probes' CPU times: a neighbour
    that takes the core stretches the one and not the other.
    """
    corrected_ms: List[float] = []
    raw_ms: List[float] = []
    ops_per_s: List[float] = []
    cpu_ms: List[float] = []
    for rnd in rounds:
        factors = rnd.factors(probe_ref_ms, rnd.probe_ms)
        cpu_factors = rnd.factors(probe_ref_ms, rnd.probe_cpu_ms)
        raw_ms.extend(s * 1e3 for s in rnd.wall_s)
        corrected_ms.extend(s * 1e3 * f for s, f in zip(rnd.wall_s, factors))
        ops_per_s.append(rnd.ops / sum(s * f for s, f in zip(rnd.wall_s, factors)))
        cpu_ms.append(
            sum(s * f for s, f in zip(rnd.cpu_s, cpu_factors)) * 1e3 / rnd.ops
        )
    probes = [p for rnd in rounds for p in rnd.probe_ms]
    return {
        "op_p50_ms": percentile(corrected_ms, 50),
        "op_p95_ms": percentile(corrected_ms, 95),
        "ops_per_s": statistics.median(ops_per_s),
        "op_cpu_ms": statistics.median(cpu_ms),
        "raw_op_p50_ms": percentile(raw_ms, 50),
        "raw_op_p95_ms": percentile(raw_ms, 95),
        "speed_factor": speed_factor(probe_ref_ms, probes),
        "probe_ms": statistics.median(probes),
        "probes": float(len(probes)),
        "timed_ops": float(len(corrected_ms)),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the acceptance rule uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def relative_worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse (<0: better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first
