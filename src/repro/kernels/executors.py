"""Numeric reference executors for the benchmarks.

These compute the kernels' actual arithmetic so transformed executors can
be validated end to end: relocate data + adjust index arrays, run the same
step functions, relocate back, compare with the untransformed run.  The
interaction-loop updates are reductions, so iteration order does not change
the result beyond floating-point reassociation (tests use ``allclose``).

The gather/scatter pattern uses ``np.add.at`` (unbuffered), which is the
vectorized equivalent of the scalar loops in the paper's Figures 13/14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.kernels.data import KernelData


def moldyn_step(arrays: Dict[str, np.ndarray], left: np.ndarray, right: np.ndarray) -> None:
    """One time step of the simplified moldyn kernel (paper Figure 1)."""
    x, vx, fx = arrays["x"], arrays["vx"], arrays["fx"]
    x += 0.01 * vx + 0.0005 * fx
    g = x[left] - x[right]
    np.add.at(fx, left, g)
    np.add.at(fx, right, -g)
    vx += 0.5 * fx


def nbf_step(arrays: Dict[str, np.ndarray], left: np.ndarray, right: np.ndarray) -> None:
    """One time step of the non-bonded force kernel."""
    x, f = arrays["x"], arrays["f"]
    q = 0.25 * x[left] * x[right]
    np.add.at(f, left, q)
    np.add.at(f, right, -q)
    x += 0.1 * f


def irreg_step(arrays: Dict[str, np.ndarray], left: np.ndarray, right: np.ndarray) -> None:
    """One relaxation sweep of the irregular mesh kernel."""
    x, y = arrays["x"], arrays["y"]
    w = 0.5 * (x[left] + x[right])
    np.add.at(y, left, w)
    np.add.at(y, right, w)
    x += 0.01 * y


#: One whole-range time step per kernel: the reference every executor
#: tier is tested against bit for bit (no tier runs these).
STEP_FUNCTIONS: Dict[str, Callable] = {
    "moldyn": moldyn_step,
    "nbf": nbf_step,
    "irreg": irreg_step,
}


def run_steps(
    data: KernelData,
    num_steps: int,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
) -> KernelData:
    """Run the kernel's time loop in place; returns ``data`` for chaining.

    ``backend`` selects the executor tier (``library`` | ``numpy`` | ``c``)
    and ``sanitize`` a compiled tier's bounds-guarded build; both pass
    unresolved to :func:`~repro.lowering.executor.compile_executor`
    (argument > ``REPRO_EXECUTOR_BACKEND`` / ``REPRO_EXECUTOR_SANITIZE``
    > the library default).  Every tier runs its phase table (the
    ``library`` tier :data:`PHASE_FUNCTIONS`) over the trivial one-tile
    schedule, and all are bit-identical to :data:`STEP_FUNCTIONS`, which
    stay as the reference the tests compare against.
    :func:`repro.runtime.executor.run_numeric` is a call to this.
    """
    from repro.lowering.executor import compile_executor

    compiled = compile_executor(
        data.kernel_name, backend=backend, sanitize=sanitize
    )
    compiled.run(data.arrays, data.left, data.right, num_steps=num_steps)
    return data


# ---------------------------------------------------------------------------
# Phase-structured executors (one phase per kernel loop).
#
# The tiled/wavefront executor runs iteration *subsets* of each loop, so
# the monolithic step functions above are split into per-loop phases.
# Interaction phases are further split gather/commit: the gather is a
# pure read (safe to compute for several tiles concurrently), the commit
# applies the reduction — always in a fixed tile order, which is what
# makes a parallel wavefront run bit-identical to a serial one (the
# reductions reassociate with *order*, never with thread timing).


@dataclass(frozen=True)
class KernelPhase:
    """One loop of a kernel, executable over an iteration subset.

    ``domain == "nodes"``: ``apply(arrays, iters)`` updates each node
    record independently (writes are disjoint across any iteration
    partition).  ``domain == "inters"``: ``gather(arrays, l, r)``
    computes the per-interaction contributions for endpoint index arrays
    ``l``/``r`` (pure), and ``commit(arrays, l, r, payload)`` applies
    them as reductions.
    """

    domain: str
    apply: Optional[Callable] = None
    gather: Optional[Callable] = None
    commit: Optional[Callable] = None


def _moldyn_position(arrays, iters):
    x, vx, fx = arrays["x"], arrays["vx"], arrays["fx"]
    x[iters] += 0.01 * vx[iters] + 0.0005 * fx[iters]


def _moldyn_gather(arrays, l, r):
    x = arrays["x"]
    return x[l] - x[r]


def _moldyn_commit(arrays, l, r, g):
    fx = arrays["fx"]
    np.add.at(fx, l, g)
    np.add.at(fx, r, -g)


def _moldyn_velocity(arrays, iters):
    vx, fx = arrays["vx"], arrays["fx"]
    vx[iters] += 0.5 * fx[iters]


def _nbf_gather(arrays, l, r):
    x = arrays["x"]
    return 0.25 * x[l] * x[r]


def _nbf_commit(arrays, l, r, q):
    f = arrays["f"]
    np.add.at(f, l, q)
    np.add.at(f, r, -q)


def _nbf_integrate(arrays, iters):
    x, f = arrays["x"], arrays["f"]
    x[iters] += 0.1 * f[iters]


def _irreg_gather(arrays, l, r):
    x = arrays["x"]
    return 0.5 * (x[l] + x[r])


def _irreg_commit(arrays, l, r, w):
    y = arrays["y"]
    np.add.at(y, l, w)
    np.add.at(y, r, w)


def _irreg_relax(arrays, iters):
    x, y = arrays["x"], arrays["y"]
    x[iters] += 0.01 * y[iters]


#: Per-kernel phases, in program order — one per loop of the kernel IR
#: (same order and domains as ``KernelData.loops``).
PHASE_FUNCTIONS: Dict[str, List[KernelPhase]] = {
    "moldyn": [
        KernelPhase("nodes", apply=_moldyn_position),
        KernelPhase("inters", gather=_moldyn_gather, commit=_moldyn_commit),
        KernelPhase("nodes", apply=_moldyn_velocity),
    ],
    "nbf": [
        KernelPhase("inters", gather=_nbf_gather, commit=_nbf_commit),
        KernelPhase("nodes", apply=_nbf_integrate),
    ],
    "irreg": [
        KernelPhase("inters", gather=_irreg_gather, commit=_irreg_commit),
        KernelPhase("nodes", apply=_irreg_relax),
    ],
}
