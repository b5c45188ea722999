"""The ordered rewrite pipeline over the executor loop-nest IR.

Modeled on Devito's ``DevitoRewriter._pipeline`` of staged ``dle_pass``
rewrites (fission -> blocking -> simdize -> parallelize): each pass is a
small, inspectable rewrite of the :class:`~repro.lowering.ir.Program`,
applied in a fixed order by :class:`LoweringRewriter`, with every
application recorded in the :class:`RewriteState` log.

* **fission** — split each interaction loop's statements into a pure
  *gather* of the hoisted common subexpression and per-statement signed
  *commits*.  This is the legality keystone: once the payload is
  computed from arrays the loop never writes, commits can be applied
  array-by-array in index order — the exact operation sequence of the
  library executor's ``np.add.at`` calls — so the batched backends stay
  bit-identical.  A loop whose statements share no common payload (or
  whose payload reads a committed array) is left in scalar form.
* **blocking** — mark the program sparse-tiled: the emitted executor
  iterates a tile schedule outermost (Figure 14's ``do t / do x in
  sched(t, l)``), tiles in ascending id order (the atomic-tile condition
  ``theta(src) <= theta(dst)`` makes ascending ids a legal
  linearization).
* **vectorize** — mark loops for batched emission: node sweeps become
  whole-array (or fancy-indexed) updates, fissioned interaction loops
  become gather/scatter batches over the sigma/delta-remapped index
  arrays.  Only legal on node loops whose statements address every array
  directly, and on fissioned interaction loops.
* **parallelize** — enable wavefront grouping on tiled programs: the
  executor accepts the static wave schedule and runs each wave
  phase-by-phase (all gathers, then commits in the wave's tile order)
  — the loop :func:`repro.lowering.schedule.run_wave_phases` runs over a
  phase table and ``emit_c_tiled`` renders in C.  The static wavefront
  stays the legality skeleton ("Hybrid Static/Dynamic Schedules for
  Tiled Polyhedral Programs"): the C tier's counter pool may change
  *when* a tile's pure gather runs, never the commit order.

There is no scheduler pass: whether tiles run under the wave loop or
the dependence-counter pool is a run-time choice of driver over one
emitted artifact (``scheduler=`` / ``REPRO_EXECUTOR_SCHEDULER``), and
whether a program *can* run under counters is computed from what these
four passes left (:func:`repro.analysis.irverify.
counter_schedule_obligations`), not configured.

``PassConfig`` toggles individual passes (the benchmark's ablation
knob); its digest is part of the compiled-artifact fingerprint.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.lowering.ir import (
    Commit,
    GatherCommit,
    LoopIR,
    Neg,
    Program,
    expr_loads,
)


@dataclass(frozen=True)
class PassConfig:
    """Which pipeline passes run (all on by default)."""

    fission: bool = True
    blocking: bool = True
    vectorize: bool = True
    parallelize: bool = True

    def to_dict(self):
        return {
            "fission": self.fission,
            "blocking": self.blocking,
            "vectorize": self.vectorize,
            "parallelize": self.parallelize,
        }

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


@dataclass
class PassRecord:
    """One pipeline stage's outcome, for reports and tests.

    ``before``/``after`` snapshot the (immutable) program around the
    pass, so the IR verifier (:mod:`repro.analysis.irverify`) can
    translation-validate each rewrite independently; ``proof`` is filled
    by the verifier with that pass's validation artifact.
    """

    name: str
    applied: bool
    notes: List[str] = field(default_factory=list)
    before: Optional[Program] = None
    after: Optional[Program] = None
    proof: Optional[dict] = None


@dataclass
class RewriteState:
    """The program threading through the pipeline, plus the pass log."""

    program: Program
    config: PassConfig = field(default_factory=PassConfig)
    log: List[PassRecord] = field(default_factory=list)

    def record(
        self,
        name: str,
        applied: bool,
        notes: List[str],
        before: Optional[Program] = None,
        after: Optional[Program] = None,
    ):
        self.log.append(PassRecord(name, applied, notes, before, after))


def rewrite_pass(fn: Callable) -> Callable:
    """Mark a method as one pipeline stage: it receives the state, returns
    ``(program, applied, notes)``, and the wrapper threads + logs it."""

    @functools.wraps(fn)
    def wrapper(self, state: RewriteState):
        before = state.program
        program, applied, notes = fn(self, state)
        state.program = program
        state.record(
            fn.__name__.lstrip("_"), applied, notes, before, program
        )
        return state

    wrapper.__is_rewrite_pass__ = True
    return wrapper


class LoweringRewriter:
    """Run the ordered pass pipeline over a lowered program.

    ``tiled`` selects the sparse-tiled executor shape (the blocking and
    parallelize passes are no-ops without it).
    """

    def __init__(self, config: Optional[PassConfig] = None, tiled: bool = False):
        self.config = config or PassConfig()
        self.tiled = tiled

    def run(self, program: Program) -> RewriteState:
        state = RewriteState(program=program, config=self.config)
        self._pipeline(state)
        return state

    def _pipeline(self, state: RewriteState) -> None:
        self._loop_fission(state)
        self._loop_blocking(state)
        self._vectorize(state)
        self._parallelize(state)

    # -- passes ---------------------------------------------------------------

    @rewrite_pass
    def _loop_fission(self, state: RewriteState):
        if not self.config.fission:
            return state.program, False, ["disabled by config"]
        notes: List[str] = []
        loops: List[LoopIR] = []
        changed = False
        for loop in state.program.loops:
            if loop.domain != "inters":
                loops.append(loop)
                continue
            split = _fission_gather_commit(loop)
            if split is None:
                notes.append(f"{loop.label}: no common payload, kept scalar")
                loops.append(loop)
                continue
            changed = True
            notes.append(
                f"{loop.label}: hoisted payload, "
                f"{len(split.commits)} commit pass(es)"
            )
            loops.append(replace(loop, fissioned=split))
        return replace(state.program, loops=tuple(loops)), changed, notes

    @rewrite_pass
    def _loop_blocking(self, state: RewriteState):
        if not self.tiled:
            return state.program, False, ["untiled executor"]
        if not self.config.blocking:
            return state.program, False, ["disabled by config"]
        return (
            replace(state.program, tiled=True),
            True,
            ["tile schedule outermost, ascending tile order"],
        )

    @rewrite_pass
    def _vectorize(self, state: RewriteState):
        if not self.config.vectorize:
            return state.program, False, ["disabled by config"]
        notes: List[str] = []
        loops: List[LoopIR] = []
        changed = False
        for loop in state.program.loops:
            if loop.domain == "nodes":
                legal = all(
                    load.index.direct
                    for stmt in loop.stmts
                    for load in [
                        *expr_loads(stmt.increment),
                    ]
                ) and all(stmt.index.direct for stmt in loop.stmts)
                if legal:
                    loops.append(replace(loop, vector=True))
                    changed = True
                    notes.append(f"{loop.label}: whole-array update")
                else:  # pragma: no cover - no such kernel today
                    loops.append(loop)
                    notes.append(f"{loop.label}: indirect node access, scalar")
            else:
                if loop.fissioned is not None:
                    loops.append(replace(loop, vector=True))
                    changed = True
                    notes.append(f"{loop.label}: batched gather/scatter")
                else:
                    loops.append(loop)
                    notes.append(
                        f"{loop.label}: not fissioned, kept scalar "
                        "(bit-identity requires the gather/commit split)"
                    )
        return replace(state.program, loops=tuple(loops)), changed, notes

    @rewrite_pass
    def _parallelize(self, state: RewriteState):
        if not state.program.tiled:
            return state.program, False, ["untiled executor"]
        if not self.config.parallelize:
            return state.program, False, ["disabled by config"]
        return (
            replace(state.program, wave_parallel=True),
            True,
            [
                "wavefront grouping honored; commits stay in ascending "
                "tile order (static legality skeleton)"
            ],
        )


def _strip_sign(expr) -> Tuple[object, int]:
    if isinstance(expr, Neg):
        return expr.operand, -1
    return expr, 1


def _fission_gather_commit(loop: LoopIR) -> Optional[GatherCommit]:
    """Find the loop's common payload and per-statement commit signs.

    All statements must be indirect updates whose increments are the
    same expression up to sign, and that payload must not read any array
    a commit writes (so hoisting cannot change any operand value).
    """
    if not loop.stmts:
        return None
    commits: List[Commit] = []
    payload = None
    for stmt in loop.stmts:
        if stmt.index.direct:
            return None
        base, sign = _strip_sign(stmt.increment)
        if payload is None:
            payload = base
        elif base != payload:
            return None
        commits.append(Commit(stmt.array, stmt.index.via, sign, stmt.label))
    written = {c.array for c in commits}
    if any(load.array in written for load in expr_loads(payload)):
        return None
    return GatherCommit(payload=payload, commits=tuple(commits))


__all__ = [
    "LoweringRewriter",
    "PassConfig",
    "PassRecord",
    "RewriteState",
    "rewrite_pass",
]
