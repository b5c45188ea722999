"""The ordered rewrite pipeline over the executor loop-nest IR.

Modeled on Devito's ``DevitoRewriter._pipeline`` of staged ``dle_pass``
rewrites (fission -> blocking -> simdize): each pass is a small,
inspectable rewrite of the :class:`~repro.lowering.ir.Program`, applied
in a fixed order by :class:`LoweringRewriter`, with every application
recorded in the :class:`RewriteState` log.

* **fission** — split each interaction loop's statements into a pure
  *gather* of the hoisted common subexpression and per-statement signed
  *commits*.  This is the legality keystone: once the payload is
  computed from arrays the loop never writes, commits can be applied
  array-by-array in index order — the exact operation sequence of one
  ``np.add.at`` call per commit — so the batched backends stay
  bit-identical.  A loop whose statements share no common payload (or
  whose payload reads a committed array) is left in scalar form.
* **blocking** — mark the program sparse-tiled: the emitted executor
  iterates a tile schedule outermost (Figure 14's ``do t / do x in
  sched(t, l)``), tiles in ascending id order (the atomic-tile condition
  ``theta(src) <= theta(dst)`` makes ascending ids a legal
  linearization).  It always applies: an untiled executor is this one
  program run under the trivial tiling ``theta(i) = 0`` (one tile, every
  loop over its whole range), a choice of schedule at run time, not a
  second program.
* **vectorize** — mark loops for batched emission: node sweeps become
  whole-array (or fancy-indexed) updates, fissioned interaction loops
  become gather/scatter batches over the sigma/delta-remapped index
  arrays.  Only legal on node loops whose statements address every array
  directly, and on fissioned interaction loops.

Blocking fixes the one loop order every tier runs — tiles in ascending
id (:func:`repro.lowering.schedule.tile_walk`, and
``emit_c_tiled``'s loop in C) — so no pass groups tiles; the Section 4
wavefronts stay a parallelism inspector (:mod:`repro.transforms.
parallel`).  There are no pass toggles: every bind runs all three
passes, so each (kernel, tier, sanitize) has one emitted source and one
proof.
"""

from __future__ import annotations

import functools
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
    """Run the ordered pass pipeline over a lowered program."""

    def run(self, program: Program) -> RewriteState:
        state = RewriteState(program=program)
        self._pipeline(state)
        return state

    def _pipeline(self, state: RewriteState) -> None:
        self._loop_fission(state)
        self._loop_blocking(state)
        self._vectorize(state)

    # -- passes ---------------------------------------------------------------

    @rewrite_pass
    def _loop_fission(self, state: RewriteState):
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
        return (
            replace(state.program, tiled=True),
            True,
            ["tile schedule outermost, ascending tile order"],
        )

    @rewrite_pass
    def _vectorize(self, state: RewriteState):
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
    "PassRecord",
    "RewriteState",
    "rewrite_pass",
]
