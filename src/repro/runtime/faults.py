"""Deterministic fault injection for the composed inspector pipeline.

The robustness claim of this reproduction is *layered*: malformed index
arrays are caught at bind time (:mod:`repro.runtime.validate` and the
permutation/tiling guards in the inspector), illegal orderings by the
runtime verifier, and under a permissive ``on_stage_failure`` policy a
failing stage degrades with the executor still proven bit-identical to
the untransformed kernel.  This module provides the *attackers* for that
claim: seeded, named corruptors that tamper with one stage's output (or
the stage itself) so the test suite can assert every corruption is either
caught with a typed error or degraded without silent corruption.

Usage::

    from repro.runtime.faults import CORRUPTORS, inject

    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
    faulty = inject(steps, stage=0, fault="clobber-entry", seed=7)
    ComposedInspector(faulty).run(data)   # raises ValidationError

Every corruptor is deterministic given its seed — reproducing a failure
is always one function call.  The process-level chaos harness
(:mod:`repro.service.chaos`) does the same for worker kills, heartbeat
stalls, latency spikes, and cache corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.runtime.inspector import (
    FullSparseTilingStep,
    InspectorState,
    Step,
)
from repro.transforms.base import ReorderingFunction
from repro.transforms.fst import TilingFunction


@dataclass(frozen=True)
class Fault:
    """One named corruptor.

    ``kind`` describes what it tampers with:

    * ``reordering`` — the σ/δ index array a stage hands to the state;
    * ``tiling`` — the tiling function a stage installs;
    * ``step`` — the stage object itself (crash it, or make it lie);

    ``expect`` is the contract the test suite enforces:

    * ``caught`` — the pipeline must raise a typed ``ReproError``
      (or degrade under a permissive policy);
    * ``benign`` — the corruption is *legal* (e.g. swapping two entries
      of a permutation yields another permutation) and the pipeline must
      complete with output still equivalent to the untransformed kernel.
    """

    name: str
    kind: str
    expect: str
    description: str
    corrupt_array: Optional[Callable] = None
    corrupt_tiling: Optional[Callable] = None
    transform_step: Optional[Callable] = None


# -- array corruptors ---------------------------------------------------------------


def _swap_entries(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = arr.copy()
    if len(out) >= 2:
        i, j = rng.choice(len(out), size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def _clobber_entry(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = arr.copy()
    if len(out) >= 2:
        i, j = rng.choice(len(out), size=2, replace=False)
        out[i] = out[j]  # duplicate value -> not a bijection
    return out


def _truncate_array(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return arr[:-1].copy() if len(arr) else arr.copy()


def _drop_entry(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = arr.copy()
    if len(out):
        out[rng.integers(len(out))] = -1  # "dropped" slot -> out of range
    return out


def _out_of_range_entry(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = arr.copy()
    if len(out):
        out[rng.integers(len(out))] = len(out) + 7
    return out


# -- tiling corruptors --------------------------------------------------------------


def _scramble_tiling(
    tiling: TilingFunction, rng: np.random.Generator
) -> TilingFunction:
    """Send one loop's iterations to the last tile — dependence-violating
    whenever any of their destinations landed in an earlier tile."""
    tiles = [t.copy() for t in tiling.tiles]
    tiles[0][:] = max(tiling.num_tiles - 1, 0)
    return TilingFunction(tiles, tiling.num_tiles)


def _truncate_tiling(
    tiling: TilingFunction, rng: np.random.Generator
) -> TilingFunction:
    tiles = [t.copy() for t in tiling.tiles]
    tiles[0] = tiles[0][:-1]
    return TilingFunction(tiles, tiling.num_tiles)


# -- step transformers --------------------------------------------------------------


class _WrappedStep(Step):
    """A stage standing in for ``inner``: it forwards the stage's name,
    symbolic names, preconditions, identity fallback and compile-time
    transformations, and overrides only ``run``.

    A wrapper is not the step it wraps: it keeps the conservative traits
    and carries no ``delta``, so a delta-bind never patches it.
    """

    delta = None

    def __init__(self, inner: Step):
        self.inner = inner
        self.name = inner.name

    @property
    def symbol_prefix(self):
        return self.inner.symbol_prefix

    @property
    def symbol_domain(self):
        return self.inner.symbol_domain

    def identity_fallback(self, state: InspectorState) -> None:
        self.inner.identity_fallback(state)

    def check_preconditions(self, state: InspectorState) -> None:
        self.inner.check_preconditions(state)

    def symbolic(self, kernel, index):
        return self.inner.symbolic(kernel, index)


class _CrashingStep(_WrappedStep):
    """Wrap a step so its inspector raises mid-run."""

    def run(self, state: InspectorState) -> None:
        raise RuntimeError(
            f"injected crash in stage {self.name!r} (fault harness)"
        )

    def __repr__(self):
        return f"_CrashingStep({self.inner!r})"


class _LyingSymmetryStep(FullSparseTilingStep):
    """FST that reuses the symmetric edge set *without* transposing it.

    The paper's Section 6 optimization shares one edge traversal between
    the (earlier loop -> interaction) and (interaction -> later loop)
    dependence sets — but the reuse must swap source/destination roles.
    This step "lies" by reusing the arrays as-is, growing a tiling that
    satisfies the mirrored constraints instead of the real ones; the
    bind-time tiling guard must catch the violation.
    """

    def __init__(self, inner: FullSparseTilingStep):
        super().__init__(inner.seed_block_size, use_symmetry=True)

    def _edges(self, state: InspectorState):
        edges, symmetric, p_j = super()._edges(state)
        if edges and symmetric:
            ((base_pair, base_oriented),) = edges.items()
            for pair in symmetric:
                # The lie: same orientation as the base pair, no swap.
                edges[pair] = base_oriented
            symmetric = {}
        return edges, symmetric, p_j


# -- the injection proxy ------------------------------------------------------------


class _CorruptingState:
    """Proxy over :class:`InspectorState` that corrupts a stage's output.

    Intercepts the two application entry points (σ/δ) and assignments to
    ``tiling``; everything else forwards to the real state, so the inner
    step runs its genuine inspector algorithm and only its *product* is
    tampered with — exactly the "malformed index array from an earlier
    stage" scenario the pipeline must survive.
    """

    def __init__(self, inner: InspectorState, fault: Fault, rng):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_fault", fault)
        object.__setattr__(self, "_rng", rng)

    def apply_data_reordering(self, sigma, step_name: str) -> None:
        if self._fault.corrupt_array is not None:
            sigma = ReorderingFunction(
                f"{sigma.name}!{self._fault.name}",
                self._fault.corrupt_array(sigma.array, self._rng),
            )
        self._inner.apply_data_reordering(sigma, step_name)

    def apply_iteration_reordering(self, pos, delta, step_name: str) -> None:
        if self._fault.corrupt_array is not None:
            delta = ReorderingFunction(
                f"{delta.name}!{self._fault.name}",
                self._fault.corrupt_array(delta.array, self._rng),
            )
        self._inner.apply_iteration_reordering(pos, delta, step_name)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        if (
            name == "tiling"
            and value is not None
            and self._fault.corrupt_tiling is not None
        ):
            value = self._fault.corrupt_tiling(value, self._rng)
        setattr(self._inner, name, value)


class FaultyStep(_WrappedStep):
    """A step whose output is corrupted by a :class:`Fault`."""

    def __init__(self, inner: Step, fault: Fault, seed: int = 0):
        super().__init__(inner)
        self.fault = fault
        self.seed = seed

    def run(self, state: InspectorState) -> None:
        rng = np.random.default_rng(self.seed)
        self.inner.run(_CorruptingState(state, self.fault, rng))

    def __repr__(self):
        return f"FaultyStep({self.inner!r}, fault={self.fault.name!r})"


# -- registry -----------------------------------------------------------------------

CORRUPTORS: Dict[str, Fault] = {
    f.name: f
    for f in [
        Fault(
            "swap-entries", "reordering", "benign",
            "swap two entries of a σ/δ — still a permutation, so the "
            "pipeline must complete with equivalent output",
            corrupt_array=_swap_entries,
        ),
        Fault(
            "clobber-entry", "reordering", "caught",
            "overwrite one entry with another's value (duplicate)",
            corrupt_array=_clobber_entry,
        ),
        Fault(
            "truncate-array", "reordering", "caught",
            "drop the last entry of a σ/δ index array",
            corrupt_array=_truncate_array,
        ),
        Fault(
            "drop-sigma-entry", "reordering", "caught",
            "mark one σ slot as dropped (-1)",
            corrupt_array=_drop_entry,
        ),
        Fault(
            "out-of-range-entry", "reordering", "caught",
            "point one entry past the end of the space",
            corrupt_array=_out_of_range_entry,
        ),
        Fault(
            "scramble-tiling", "tiling", "caught",
            "send one loop's iterations to the last tile",
            corrupt_tiling=_scramble_tiling,
        ),
        Fault(
            "truncate-tiling", "tiling", "caught",
            "drop one iteration from a tiling function",
            corrupt_tiling=_truncate_tiling,
        ),
        Fault(
            "lie-about-symmetry", "step", "caught",
            "reuse the symmetric dependence edge set without transposing",
            transform_step=lambda step: _LyingSymmetryStep(step),
        ),
        Fault(
            "fail-stage", "step", "caught",
            "make the stage's inspector raise mid-run",
            transform_step=lambda step: _CrashingStep(step),
        ),
    ]
}


def applicable(fault: Fault, step: Step) -> bool:
    """Can this fault target this step at all?"""
    if fault.kind == "reordering":
        # Tiling steps never call the σ/δ application entry points.
        return step.symbol_domain != "tiles"
    if fault.kind == "tiling":
        return step.symbol_domain == "tiles"
    if fault.name == "lie-about-symmetry":
        # The lie re-grows tiles over a shared symmetric edge set.
        return step.traits.symmetric_dependences and getattr(
            step, "use_symmetry", False
        )
    return True  # fail-stage


def inject(
    steps: Sequence[Step],
    stage: int,
    fault: str,
    seed: int = 0,
) -> List[Step]:
    """A copy of ``steps`` with ``fault`` injected at position ``stage``."""
    try:
        spec = CORRUPTORS[fault]
    except KeyError:
        raise ValidationError(
            f"unknown fault {fault!r}",
            hint=f"choose one of {sorted(CORRUPTORS)}",
        ) from None
    if not 0 <= stage < len(steps):
        raise ValidationError(
            f"stage {stage} out of range for {len(steps)} steps"
        )
    target = steps[stage]
    if not applicable(spec, target):
        raise ValidationError(
            f"fault {fault!r} does not apply to step {target!r}",
            stage=f"{stage}:{target.name}",
            hint=f"fault kind {spec.kind!r} targets a different stage type",
        )
    out = list(steps)
    if spec.transform_step is not None:
        out[stage] = spec.transform_step(target)
    else:
        out[stage] = FaultyStep(target, spec, seed=seed)
    return out


# -- dataset drift corruptors -------------------------------------------------------
#
# Where the corruptors above attack a *stage's output*, the drift family
# attacks the *dataset between epochs*: seeded edge churn and payload
# motion, packaged as a validated
# :class:`~repro.incremental.DatasetDelta`.  These are the workload
# generators for the delta-bind subsystem — tests and the streaming
# benchmark drive `CompositionPlan.rebind` with exactly these, so every
# drift scenario is reproducible from ``(dataset, rates, seed)``.


def drift_edge_churn(data, rate: float, seed: int = 0):
    """Balanced edge add/remove churn totalling ``rate * num_inter`` rows.

    Removed rows are sampled uniformly; added endpoint pairs are sampled
    uniformly and then filtered so the mutated dataset stays valid under
    the strict bind policy: no self-loops, no duplicate of a surviving
    edge, no duplicate among the additions themselves (both checked on
    *unordered* endpoint pairs, matching the validator).  Deterministic
    given ``seed``.
    """
    from repro.incremental import DatasetDelta

    if not 0.0 <= rate < 1.0:
        raise ValidationError(
            f"edge churn rate must be in [0, 1), got {rate}", stage="drift"
        )
    rng = np.random.default_rng(seed)
    n = np.int64(data.num_nodes)
    half = int(data.num_inter * rate / 2)
    if half == 0:
        return DatasetDelta()
    removed = np.sort(rng.choice(data.num_inter, size=half, replace=False))
    lo = np.minimum(data.left, data.right)
    hi = np.maximum(data.left, data.right)
    existing = np.sort(lo * n + hi)
    # Oversample 3x, then keep the first `half` candidates that are
    # fresh: not self-loops, not present (unordered) in the parent, and
    # not duplicating an earlier candidate.
    al = rng.integers(0, n, size=3 * half)
    ar = rng.integers(0, n, size=3 * half)
    cand = np.minimum(al, ar) * n + np.maximum(al, ar)
    fresh = (~np.isin(cand, existing)) & (al != ar)
    _, first = np.unique(cand[fresh], return_index=True)
    pick = np.flatnonzero(fresh)[np.sort(first)][:half]
    return DatasetDelta(
        added_left=al[pick], added_right=ar[pick], removed=removed
    )


def drift_node_motion(data, rate: float, seed: int = 0, scale: float = 1e-3):
    """Payload motion over ``rate * num_nodes`` nodes (indices untouched).

    Every float payload array gets a relative Gaussian perturbation of
    magnitude ``scale`` on the moved nodes — the neighbor-list-still-
    valid particle motion regime the paper's moldyn workload implies.
    """
    from repro.incremental import DatasetDelta

    if not 0.0 <= rate <= 1.0:
        raise ValidationError(
            f"node motion rate must be in [0, 1], got {rate}", stage="drift"
        )
    rng = np.random.default_rng(seed)
    count = int(data.num_nodes * rate)
    if count == 0:
        return DatasetDelta()
    moved = np.sort(rng.choice(data.num_nodes, size=count, replace=False))
    moved_arrays = {}
    for name, values in data.arrays.items():
        if not np.issubdtype(values.dtype, np.floating):
            continue
        jitter = 1.0 + scale * rng.standard_normal(values[moved].shape)
        moved_arrays[name] = values[moved] * jitter
    if not moved_arrays:
        return DatasetDelta()
    return DatasetDelta(moved_nodes=moved, moved_arrays=moved_arrays)


def make_drift_delta(
    data,
    edge_rate: float = 0.0,
    move_rate: float = 0.0,
    seed: int = 0,
):
    """The combined drift corruptor: edge churn plus payload motion.

    One validated :class:`~repro.incremental.DatasetDelta` carrying both
    mutation kinds, deterministic given ``seed`` (the two sub-generators
    draw from derived seeds so the combination is stable under changing
    either rate alone)."""
    from repro.incremental import DatasetDelta

    edges = drift_edge_churn(data, edge_rate, seed=seed * 8191 + 1)
    nodes = drift_node_motion(data, move_rate, seed=seed * 8191 + 2)
    combined = DatasetDelta(
        added_left=edges.added_left,
        added_right=edges.added_right,
        removed=edges.removed,
        moved_nodes=nodes.moved_nodes,
        moved_arrays=nodes.moved_arrays,
    )
    return combined.validate(data)


__all__ = [
    "CORRUPTORS",
    "Fault",
    "FaultyStep",
    "applicable",
    "drift_edge_churn",
    "drift_node_motion",
    "inject",
    "make_drift_delta",
]
