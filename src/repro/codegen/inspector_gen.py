"""Generate composed-inspector source specialized to a step list.

This is the Python analog of the paper's Figure 11/15: one phase per
planned transformation, with the traversals specialized to the current
(already adjusted) index arrays, the index-array adjustments emitted after
every phase, and the data-payload remap scheduled per the chosen policy
(``once`` — Figure 11 — or ``each`` — Figure 15).

The generated function returns a dict with the adjusted index arrays, the
relocated payload, the total data reordering ``sigma``, and (for tiled
compositions) the ``schedule``; its outputs are asserted equal to the
library :class:`~repro.runtime.inspector.ComposedInspector` in the tests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.codegen.emit import SourceWriter
from repro.errors import ValidationError
from repro.runtime.steps import Step, interaction_loop_pos, node_loop_positions
from repro.uniform.kernel import Kernel


def generate_inspector_source(
    kernel: Kernel,
    steps: Sequence[Step],
    remap: str = "once",
    function_name: str = "",
) -> str:
    """Emit the composed inspector for ``kernel`` + ``steps`` as source."""
    if remap not in ("once", "each"):
        raise ValueError("remap must be 'once' or 'each'")
    name = function_name or f"{kernel.name}_inspector"
    p_j = interaction_loop_pos(kernel)
    node_loops = node_loop_positions(kernel)
    needs_coords = any("coords" in step.traits.reads for step in steps)

    w = SourceWriter()
    w.comment(f"Generated composed inspector for kernel {kernel.name!r}")
    w.comment(
        "composition: "
        + (", ".join(step.name for step in steps) or "(empty)")
        + f"; data remap policy: {remap}"
    )
    w.line("import numpy as np")
    w.line(
        "from repro.transforms import (cpack, gpart, lexgroup, lexsort, "
        "bucket_tiling, reverse_cuthill_mckee, block_partition, "
        "full_sparse_tiling, cache_block_tiling, tilepack, AccessMap)"
    )
    w.line("from repro.transforms.fst import TilingFunction")
    if needs_coords:
        w.line("from repro.transforms.spacefill import space_filling_order")
    w.line("from repro.errors import ValidationError")
    w.line()
    signature = "num_nodes, num_inter, left, right, arrays"
    if needs_coords:
        signature += ", coords"
    with w.block(f"def {name}({signature}):"):
        w.comment("bind-time guard: same check the library inspector performs")
        with w.block("def _guard(name, arr, n):"):
            w.line("arr = np.asarray(arr, dtype=np.int64)")
            with w.block("if len(arr) != n:"):
                w.line(
                    "raise ValidationError(f'index array {name} has "
                    "{len(arr)} entries, expected {n}', stage=name)"
                )
            w.line("bad = np.flatnonzero((arr < 0) | (arr >= n))")
            with w.block("if len(bad):"):
                w.line(
                    "raise ValidationError(f'index array {name} has "
                    "{len(bad)} out-of-range values', stage=name, "
                    "indices=bad[:5].tolist())"
                )
            w.line("dup = np.flatnonzero(np.bincount(arr, minlength=n) > 1)")
            with w.block("if len(dup):"):
                w.line(
                    "raise ValidationError(f'index array {name} is not a "
                    "permutation: {len(dup)} duplicated values', stage=name, "
                    "indices=np.flatnonzero(np.isin(arr, dup))[:5].tolist())"
                )
            w.line("return arr")
        w.line("left = np.asarray(left, dtype=np.int64).copy()")
        w.line("right = np.asarray(right, dtype=np.int64).copy()")
        w.line("sigma_total = np.arange(num_nodes, dtype=np.int64)")
        if remap == "each":
            w.line("arrays = {k: v.copy() for k, v in arrays.items()}")
        w.line("tiling = None")
        w.line("num_tiles = 0")
        w.line()
        for index, step in enumerate(steps):
            _emit_step(w, step, index, kernel, p_j, node_loops, remap)
        w.comment("finalize: relocate the payload")
        if remap == "once":
            with w.block("def _move(arr):"):
                w.line("out = np.empty_like(arr)")
                w.line("out[sigma_total] = arr")
                w.line("return out")
            w.line("arrays = {k: _move(v) for k, v in arrays.items()}")
        w.line("schedule = None")
        with w.block("if tiling is not None:"):
            w.line(
                "schedule = [[np.flatnonzero(t == tt) for t in tiling] "
                "for tt in range(num_tiles)]"
            )
        w.line(
            "return dict(left=left, right=right, arrays=arrays, "
            "sigma=sigma_total, schedule=schedule)"
        )
    return w.source()


def _emit_data_reordering(
    w: SourceWriter, sigma_var: str, node_loops: List[int], remap: str
) -> None:
    """Index-array adjustment + payload policy after a data reordering."""
    w.line(f"{sigma_var} = _guard({sigma_var!r}, {sigma_var}, num_nodes)")
    w.comment("adjust index arrays (always immediate)")
    w.line(f"left = {sigma_var}[left]")
    w.line(f"right = {sigma_var}[right]")
    w.line(f"sigma_total = {sigma_var}[sigma_total]")
    with w.block("if tiling is not None:"):
        for pos in node_loops:
            w.line(f"_t = np.empty_like(tiling[{pos}])")
            w.line(f"_t[{sigma_var}] = tiling[{pos}]")
            w.line(f"tiling[{pos}] = _t")
    if remap == "each":
        w.comment("remap policy 'each': move the payload now (Figure 15)")
        with w.block("for _name in list(arrays):"):
            w.line("_out = np.empty_like(arrays[_name])")
            w.line(f"_out[{sigma_var}] = arrays[_name]")
            w.line("arrays[_name] = _out")
    else:
        w.comment("remap policy 'once': defer the payload move (Figure 11)")


def _emit_iteration_reordering(w: SourceWriter, var: str, p_j: int) -> None:
    """Guard + row permutation after an interaction-loop reordering."""
    w.line(f"{var} = _guard({var!r}, {var}, num_inter)")
    w.comment("permute the interaction loop's rows")
    w.line(f"_order = np.empty_like({var})")
    w.line(f"_order[{var}] = np.arange(num_inter, dtype=np.int64)")
    w.line("left = left[_order]")
    w.line("right = right[_order]")
    with w.block("if tiling is not None:"):
        w.line(f"_t = np.empty_like(tiling[{p_j}])")
        w.line(f"_t[{var}] = tiling[{p_j}]")
        w.line(f"tiling[{p_j}] = _t")


def _emit_step(
    w: SourceWriter,
    step: Step,
    index: int,
    kernel: Kernel,
    p_j: int,
    node_loops: List[int],
    remap: str,
) -> None:
    """The step's own ``emit`` hook, then the index-array adjustment its
    traits' ``kind`` calls for (a tiling step installs ``tiling``)."""
    w.comment(f"--- phase {index}: {step!r}")
    if step.emit is None:
        raise ValidationError(
            f"no code generator for step {step!r}",
            stage=f"{index}:{step.name}",
            hint="give the step class an emit hook (repro.runtime.steps)",
        )
    var = step.emit(w, index, kernel)
    if step.traits.kind == "data":
        _emit_data_reordering(w, var, node_loops, remap)
    elif step.traits.kind == "iteration":
        _emit_iteration_reordering(w, var, p_j)
    w.line()
