"""The hand-written executors: the oracle every executor tier is tested
against, bit for bit.

The program runs one definition per kernel: ``repro.kernels.specs``
(the Kelly–Pugh kernel plus ``STATEMENT_CODE``), lowered, rewritten and
emitted as the ``numpy`` phase table and the C unit.  These tables are
the same arithmetic written out by hand, independently of that
pipeline:

* :data:`STEP_FUNCTIONS` — one whole-range time step per kernel;
* :data:`PHASE_FUNCTIONS` — the same step split into one
  :class:`~repro.lowering.schedule.KernelPhase` per kernel loop, with
  each interaction loop split into a pure gather and a reduction commit
  (``np.add.at``, unbuffered: the vectorized form of the scalar loops of
  the paper's Figures 13/14);
* :func:`run_oracle` — the phase table under the program's own tile
  driver, over a tile schedule in ascending tile id, or over the
  trivial one-tile schedule when none is given (the untiled executor).

The tests hold the step functions equal to the untiled phase table, and
every emitted tier equal to :func:`run_oracle`, with ``tobytes()``
equality, never ``allclose``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.lowering.schedule import KernelPhase, run_tile_phases
from repro.transforms.tile_schedule import trivial_schedule


def moldyn_step(arrays, left, right) -> None:
    """One time step of the simplified moldyn kernel (paper Figure 1)."""
    x, vx, fx = arrays["x"], arrays["vx"], arrays["fx"]
    x += 0.01 * vx + 0.0005 * fx
    g = x[left] - x[right]
    np.add.at(fx, left, g)
    np.add.at(fx, right, -g)
    vx += 0.5 * fx


def nbf_step(arrays, left, right) -> None:
    """One time step of the non-bonded force kernel."""
    x, f = arrays["x"], arrays["f"]
    q = 0.25 * x[left] * x[right]
    np.add.at(f, left, q)
    np.add.at(f, right, -q)
    x += 0.1 * f


def irreg_step(arrays, left, right) -> None:
    """One relaxation sweep of the irregular mesh kernel."""
    x, y = arrays["x"], arrays["y"]
    w = 0.5 * (x[left] + x[right])
    np.add.at(y, left, w)
    np.add.at(y, right, w)
    x += 0.01 * y


STEP_FUNCTIONS: Dict[str, Callable] = {
    "moldyn": moldyn_step,
    "nbf": nbf_step,
    "irreg": irreg_step,
}


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


#: Per-kernel phases, in program order: one per loop of the kernel spec.
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


def run_oracle(data, schedule=None, num_steps: int = 1):
    """Run the hand phase table on ``data`` in place; returns ``data``.

    ``schedule`` is what ``run_numeric_wavefront`` takes, run tile by
    tile in ascending id; without one this is the untiled executor, the
    trivial one-tile schedule."""
    if schedule is None:
        schedule = trivial_schedule(tuple(data.loop_sizes()))
    run_tile_phases(
        PHASE_FUNCTIONS[data.kernel_name],
        data.arrays,
        data.left,
        data.right,
        schedule,
        num_steps,
    )
    return data
