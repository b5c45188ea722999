"""The machine-speed probe: a fixed piece of work that uses nothing from ``repro``.

Timings on a shared 2-core box drift by 10-25% between identical runs, and
ten-second stretches of one run differ by 5-10%.  The probe does the two
kinds of work the workloads do, over fixed inputs, about four times a
second between ops; each sample is scaled by ``ref_ms / median(the probes
nearest to it)`` so an op that ran while the machine was slow reads as it
would have at reference speed.

The slow-downs come from neighbours taking cycles, cache and memory
bandwidth, and they move cache-resident and memory-bound work by different
amounts.  One probe therefore runs both, back to back:

* the bind path's kind: stable argsort, gather, ``np.add.at`` scatter and
  SHA-256 over 150k elements (cache-resident, like a scale-12 index array);
* an executor step's kind: gather / subtract / scatter over a million
  interactions into 131k nodes (several times the last-level cache).

Measured while sizing, over ten runs of every workload (README.md has the
numbers): corrected by either half alone, some workload's run-to-run
variation came out above the uncorrected one, because a probe with one
footprint adds its own noise where the workload's footprint is another;
the whole probe gains 1.2-4x on three workloads and is a wash on
``cold_bind`` when the box is calm.  The probe reports its CPU time beside
its wall time: a neighbour that takes the core stretches wall time but not
CPU time, so ``op_cpu_ms`` is corrected by the probe's CPU time.
"""

from __future__ import annotations

import hashlib
import time
from typing import Tuple

import numpy as np

#: Median probe wall time inside each workload, measured once on the box and
#: commit that defined the benchmark (the probe runs faster between
#: executor steps than between binds, hence one constant per workload).
#: Constants, never re-measured: both sides of a comparison must divide by
#: the same number.
PROBE_REF_MS = {
    "cold_bind": 36.0,
    "warm_serve": 36.0,
    "exec_steps": 28.0,
    "stream_rebind": 36.0,
}


class SpeedProbe:
    """Callable returning the (wall, CPU) milliseconds one probe took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20030609)
        elements = 150_000
        self._keys = rng.integers(0, elements // 8, elements)
        self._values = rng.random(elements)
        self._acc = np.zeros(elements // 8)
        nodes, interactions = 131_072, 1_000_000
        self._table = rng.random(nodes)
        self._left = rng.integers(0, nodes, interactions)
        self._right = rng.integers(0, nodes, interactions)

    def _work(self) -> None:
        order = np.argsort(self._keys, kind="stable")
        gathered = self._values[order]
        self._acc[:] = 0.0
        np.add.at(self._acc, self._keys, gathered)
        hashlib.sha256(gathered.tobytes()).digest()
        flux = self._table[self._left] - self._table[self._right]
        np.bincount(self._left, weights=flux, minlength=len(self._table))

    def __call__(self) -> Tuple[float, float]:
        cpu = time.process_time()
        wall = time.perf_counter()
        self._work()
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        return wall * 1e3, cpu * 1e3
