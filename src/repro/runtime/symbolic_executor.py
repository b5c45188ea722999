"""Execute straight from the symbolic specifications (the acid test).

The framework's semantic core is one sentence: *the transformed program
executes its iterations in lexicographic order of the transformed unified
iteration space*.  This module makes that sentence executable:

* :func:`symbolic_execution_order` — bind the final
  :class:`~repro.uniform.state.ProgramState`'s iteration space to the
  concrete index arrays and the inspector's generated stage functions,
  enumerate it, and sort lexicographically;
* :func:`executor_execution_order` — reconstruct the same sequence from
  the *run-time* artifacts (the inspector's plan / tile schedule, i.e.
  what the executor actually does);
* :func:`symbolic_locations_touched` — apply the final data mappings
  ``M_{I'->a}`` point by point.

The test suite asserts the two orders coincide for every composition,
which ties the compile-time algebra to the run-time executor with no
modeling gap.  Small instances only — symbolic enumeration is a scan.

The second half of the module is a **symbolic interpreter for lowering-IR
programs** (:func:`symbolic_program_state`), used by the IR verifier's
translation validation (:mod:`repro.analysis.irverify`): it executes a
:class:`~repro.lowering.ir.Program` on a tiny canonical instance with
*symbolic* array elements — every reduction is recorded as an ordered
list of signed contributions instead of a float — so two programs can be
compared up to the documented FP-grouping freedom (reduction
contributions form a multiset per element; everything else, including
the grouping inside each contribution, must match exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.data import KernelData
from repro.lowering.schedule import tile_walk, walk_indices
from repro.runtime.inspector import InspectorResult
from repro.runtime.plan import CompositionPlan
from repro.runtime.verify import _bind_environment
from repro.transforms.tile_schedule import trivial_schedule


def symbolic_execution_order(
    original: KernelData,
    result: InspectorResult,
    plan: CompositionPlan,
    num_steps: int = 1,
) -> List[Tuple[int, ...]]:
    """Lexicographic enumeration of the final transformed iteration space."""
    env = _bind_environment(original, result, num_steps)
    final_state = plan.final_state
    return list(env.enumerate_set(final_state.iteration_space))


def executor_execution_order(
    data: KernelData,
    result: InspectorResult,
    num_steps: int = 1,
) -> List[Tuple[int, ...]]:
    """The unified tuples in the order the run-time executor visits them,
    walked by :func:`~repro.lowering.schedule.tile_walk`: 4-tuples for an
    untiled plan, 5-tuples with the tile coordinate second for a tiled
    one."""
    sizes = result.transformed.loop_sizes()
    stmt_counts = _statements_per_loop(data)
    schedule = result.plan.schedule
    tiled = schedule is not None
    if not tiled:
        schedule = trivial_schedule(tuple(sizes))
    tuples: List[Tuple[int, ...]] = []
    for s in range(num_steps):
        for t, l, iters in tile_walk(schedule):
            outer = (s, t, l) if tiled else (s, l)
            for x in walk_indices(iters).tolist():
                for q in range(stmt_counts[l]):
                    tuples.append(outer + (x, q))
    return tuples


def _statements_per_loop(data: KernelData) -> List[int]:
    from repro.kernels.specs import kernel_by_name

    kernel = kernel_by_name(data.kernel_name)
    return [len(loop.statements) for loop in kernel.loops]


def symbolic_locations_touched(
    original: KernelData,
    result: InspectorResult,
    plan: CompositionPlan,
    point: Sequence[int],
    num_steps: int = 1,
) -> Dict[str, List[Tuple[int, ...]]]:
    """Image of one transformed iteration point under every final ``M``."""
    env = _bind_environment(original, result, num_steps)
    final_state = plan.final_state
    return {
        array: sorted(env.apply_relation(mapping, point))
        for array, mapping in final_state.data_mappings.items()
    }


# ---------------------------------------------------------------------------
# Symbolic interpretation of lowering-IR programs (translation validation)
#
# Values are hashable nested tuples:
#
#   ("init", array, i)        the element's initial (opaque) value
#   ("const", "0.5")          a literal (repr'd, like the emitters)
#   ("neg", v)                exact float negation
#   ("op", "+", l, r)         one arithmetic node, grouping preserved
#   ("acc", base, ((sign, payload), ...))
#                             a reduction cell: base value plus the
#                             *ordered* signed contributions applied
#
# Reads snapshot the current cell value (tuples are immutable), so a
# payload evaluated before a commit embeds the pre-commit state exactly
# as a real execution would.


@dataclass(frozen=True)
class SymbolicInstance:
    """One tiny concrete instance to interpret a Program on.

    ``schedule[t][pos]`` lists loop ``pos``'s iterations in tile ``t``
    (ignored by untiled programs).
    """

    num_nodes: int
    num_inter: int
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    schedule: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None


def canonical_instance(program) -> SymbolicInstance:
    """A fixed small instance with a dependence-legal two-tile schedule.

    The tiling is built the way full sparse tiling would: nodes split in
    half seeds the node-loop tiles, each interaction inherits the max
    tile of its endpoints, and node loops *after* an interaction loop
    inherit the max tile of any interaction touching the node — exactly
    the atomic-tile condition ``theta(src) <= theta(dst)``, so ascending
    tile order is a legal linearization.
    """
    num_nodes, num_inter = 4, 4
    left = (0, 1, 2, 0)
    right = (1, 2, 3, 2)
    num_tiles = 2
    floor = [0 if v < num_nodes // 2 else 1 for v in range(num_nodes)]
    per_loop: List[List[int]] = []
    for loop in program.loops:
        if loop.domain == "nodes":
            per_loop.append(list(floor))
        else:
            tiles_j = [
                max(floor[left[j]], floor[right[j]]) for j in range(num_inter)
            ]
            per_loop.append(tiles_j)
            for j in range(num_inter):
                for v in (left[j], right[j]):
                    floor[v] = max(floor[v], tiles_j[j])
    schedule = tuple(
        tuple(
            tuple(
                x
                for x in range(len(assignment))
                if assignment[x] == t
            )
            for assignment in per_loop
        )
        for t in range(num_tiles)
    )
    return SymbolicInstance(
        num_nodes=num_nodes,
        num_inter=num_inter,
        left=left,
        right=right,
        schedule=schedule,
    )


def _sym_eval(expr, idx: int, state, inst: SymbolicInstance):
    from repro.lowering import ir as lir

    if isinstance(expr, lir.Const):
        return ("const", repr(expr.value))
    if isinstance(expr, lir.Load):
        if expr.index.direct:
            return state[expr.array][idx]
        via = inst.left if expr.index.via == "left" else inst.right
        return state[expr.array][via[idx]]
    if isinstance(expr, lir.Neg):
        return ("neg", _sym_eval(expr.operand, idx, state, inst))
    if isinstance(expr, lir.BinOp):
        return (
            "op",
            expr.op,
            _sym_eval(expr.left, idx, state, inst),
            _sym_eval(expr.right, idx, state, inst),
        )
    raise TypeError(f"unknown expression {expr!r}")


def _strip_neg(value) -> Tuple[object, int]:
    sign = 1
    while isinstance(value, tuple) and value and value[0] == "neg":
        sign = -sign
        value = value[1]
    return value, sign


def _sym_apply(state, array: str, idx: int, sign: int, payload) -> None:
    cur = state[array][idx]
    if isinstance(cur, tuple) and cur and cur[0] == "acc":
        state[array][idx] = ("acc", cur[1], cur[2] + ((sign, payload),))
    else:
        state[array][idx] = ("acc", cur, ((sign, payload),))


def _sym_update(state, stmt, idx: int, target_idx: int, inst) -> None:
    payload, sign = _strip_neg(_sym_eval(stmt.increment, idx, state, inst))
    _sym_apply(state, stmt.array, target_idx, sign, payload)


def _target_index(stmt, idx: int, inst: SymbolicInstance) -> int:
    if stmt.index.direct:
        return idx
    via = inst.left if stmt.index.via == "left" else inst.right
    return via[idx]


def _run_node_loop(state, loop, iters, inst) -> None:
    if loop.vector:
        # Whole-array form: per statement, evaluate every increment
        # against the pre-statement snapshot, then apply (numpy's
        # ``a += e`` semantics).
        for stmt in loop.stmts:
            incs = [
                _strip_neg(_sym_eval(stmt.increment, i, state, inst))
                for i in iters
            ]
            for i, (payload, sign) in zip(iters, incs):
                _sym_apply(state, stmt.array, i, sign, payload)
    else:
        for i in iters:
            for stmt in loop.stmts:
                _sym_update(state, stmt, i, i, inst)


def _run_inter_scalar(state, loop, iters, inst) -> None:
    for j in iters:
        for stmt in loop.stmts:
            _sym_update(state, stmt, j, _target_index(stmt, j, inst), inst)


def _run_inter_fissioned(state, gc, iters, inst) -> None:
    payloads = [_sym_eval(gc.payload, j, state, inst) for j in iters]
    for commit in gc.commits:
        via = inst.left if commit.via == "left" else inst.right
        for j, payload in zip(iters, payloads):
            _sym_apply(state, commit.array, via[j], commit.sign, payload)


def symbolic_program_state(
    program, inst: SymbolicInstance, num_steps: int = 2
) -> Dict[str, List[object]]:
    """Interpret a lowering-IR Program symbolically on ``inst``.

    Mirrors the emitters' operation order construct by construct
    (scalar loops interleave statements per iteration; fissioned loops
    gather every payload then commit array-by-array; tiled programs
    take the executor's :func:`~repro.lowering.schedule.tile_walk`, and
    an untiled program is the one tile holding every iteration), so the
    final state reflects what the generated code actually does.
    """
    state: Dict[str, List[object]] = {
        name: [("init", name, i) for i in range(inst.num_nodes)]
        for name in program.data_arrays
    }
    if not program.tiled:
        extent = {"nodes": inst.num_nodes, "inters": inst.num_inter}
        schedule = trivial_schedule(
            tuple(extent[loop.domain] for loop in program.loops)
        )
    elif inst.schedule is None:
        raise ValueError("tiled program needs an instance schedule")
    else:
        schedule = inst.schedule
    for _t, pos, iters in tile_walk(schedule, num_steps):
        loop = program.loops[pos]
        iters = walk_indices(iters).tolist()
        if loop.domain == "nodes":
            _run_node_loop(state, loop, iters, inst)
        elif loop.fissioned is not None:
            _run_inter_fissioned(state, loop.fissioned, iters, inst)
        else:
            _run_inter_scalar(state, loop, iters, inst)
    return state


def normalize_symbolic_value(value):
    """Canonicalize a symbolic value up to the documented FP freedom:
    reduction contributions become a sorted multiset (their application
    order may differ between legal schedules); everything inside a
    contribution is preserved exactly (its grouping is semantic)."""
    if not isinstance(value, tuple) or not value:
        return value
    tag = value[0]
    if tag == "acc":
        contribs = tuple(
            sorted(
                (
                    (sign, normalize_symbolic_value(payload))
                    for sign, payload in value[2]
                ),
                key=repr,
            )
        )
        return ("acc", normalize_symbolic_value(value[1]), contribs)
    if tag == "neg":
        return ("neg", normalize_symbolic_value(value[1]))
    if tag == "op":
        return (
            "op",
            value[1],
            normalize_symbolic_value(value[2]),
            normalize_symbolic_value(value[3]),
        )
    return value


def normalize_symbolic_state(state) -> Dict[str, Tuple[object, ...]]:
    """Normalized (comparable) form of a full symbolic array state."""
    return {
        name: tuple(normalize_symbolic_value(v) for v in cells)
        for name, cells in state.items()
    }
