"""The step table: every reordering step, defined once.

The paper pairs each run-time inspector with the compile-time relation
(``R`` or ``T``) of the reordering it produces, and composition is sound
only because the two agree.  Here one :class:`Step` class is that whole
definition: its stage ``name`` (stage labels, plan names and the UFS
``lg0``/``theta2`` derive from it), plan-spec ``spec_type`` (``None``:
no spec syntax), typed ``params`` with their defaults, dataflow
``traits``, inspector (``run``) and relation (``symbolic``), and the
optional ``delta`` rule (:mod:`repro.incremental.rules`) and ``emit``
code-generator hook (:mod:`repro.codegen.inspector_gen`).

:func:`register` enters a class into the table explicitly, by exact
class: a subclass is a different step until it is registered itself, so
plan specs neither build nor serialize it.  :data:`STEP_TYPES` is the
live spec-type view of the table.
"""

from __future__ import annotations

import numbers
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.incremental.rules import (
    DeltaRule,
    UnsupportedDelta,
    merge_key_limit,
    patch_first_touch,
    patch_merge,
    patch_recompute,
)
from repro.kernels.data import KernelData
from repro.transforms import (
    block_partition,
    bucket_tiling,
    cache_block_tiling,
    cpack,
    full_sparse_tiling,
    gpart,
    lexgroup,
    lexsort,
    reverse_cuthill_mckee,
    tilepack,
)
from repro.transforms.base import (
    CONSERVATIVE_TRAITS,
    ReorderingFunction,
    TransformTraits,
    permute_loops_relation,
    tile_insert_relation,
    tile_permute_relation,
)
from repro.uniform.kernel import Kernel
from repro.uniform.state import DataReordering, IterationReordering

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runtime.inspector import InspectorState


def dependence_edges(data: KernelData) -> Dict[Tuple[int, int], Tuple]:
    """The concrete cross-loop dependence edge sets of a kernel instance.

    ``edges[(la, lb)] = (src, dst)``: iteration ``src`` of loop ``la``
    must run no later than iteration ``dst`` of loop ``lb`` (atomic-tile
    condition).  This is what sparse-tiling inspectors traverse and what
    the bind-time tiling guard re-checks.
    """
    p_j = data.interaction_loop_position()
    j = np.arange(data.num_inter, dtype=np.int64)
    endpoints = np.concatenate([data.left, data.right])
    jj = np.concatenate([j, j])
    edges: Dict[Tuple[int, int], Tuple] = {}
    for pos in data.node_loop_positions():
        pair = (pos, p_j) if pos < p_j else (p_j, pos)
        edges[pair] = (endpoints, jj) if pos < p_j else (jj, endpoints)
    return edges


def interaction_loop_pos(kernel: Kernel) -> int:
    """Position of the loop subscripting through index arrays (UFS)."""
    for pos, loop in enumerate(kernel.loops):
        for stmt in loop.statements:
            if any(acc.index.uf_names() for acc in stmt.accesses):
                return pos
    raise ValueError(f"kernel {kernel.name!r} has no interaction loop")


def node_loop_positions(kernel: Kernel) -> List[int]:
    p = interaction_loop_pos(kernel)
    return [i for i in range(len(kernel.loops)) if i != p]


# ---------------------------------------------------------------------------
# The definition


class Param(NamedTuple):
    """One step parameter: ``(name, type, default)``.

    ``int`` parameters take any ``numbers.Integral`` but ``bool``, must be
    positive and are stored as ``int``; ``bool`` parameters take ``bool``
    only; any other type is an ``isinstance`` check.
    """

    name: str
    type: type
    default: object

    def check(self, value, stage: str):
        """``value`` validated and normalized for a step of ``stage``."""
        if self.type is int:
            ok = (
                isinstance(value, numbers.Integral)
                and not isinstance(value, bool)
                and value > 0
            )
            want = "a positive integer"
        else:
            ok = isinstance(value, self.type)
            want = f"a {self.type.__name__}"
        if not ok:
            raise ValidationError(
                f"bad parameters for step {stage!r}: {self.name!r} must be "
                f"{want}, got {value!r}",
                stage=stage,
            )
        return int(value) if self.type is int else value


class Step:
    """One planned run-time reordering transformation (see the module
    docstring for what a definition declares)."""

    name: str = "step"
    spec_type: Optional[str] = None
    params: Tuple[Param, ...] = ()
    #: Prefix of the symbolic UFS this step introduces (``cp``, ``lg``,
    #: ``theta``, ...); used by :meth:`identity_fallback` to register
    #: identity functions under the names the plan's relations reference.
    symbol_prefix: Optional[str] = None
    #: Space the step's reordering covers: ``nodes``, ``inters``, ``tiles``.
    symbol_domain: str = "nodes"
    #: Declarative dataflow metadata (:class:`~repro.transforms.base.TransformTraits`)
    #: consumed by the static analyzer; defaults to the conservative
    #: read-everything/write-everything traits so third-party steps lint
    #: without declaring anything.
    traits = CONSERVATIVE_TRAITS
    #: How a delta-bind patches this stage; ``None``: it never does.
    delta: Optional[DeltaRule] = None
    #: ``emit(w, index, kernel)`` writes the stage into a generated
    #: inspector and returns the variable holding its reordering (data
    #: and iteration kinds); ``None``: the step has no code generator.
    emit = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass naming a new stage is a new step: it keeps the
        # parent's inspector but not a delta rule argued for the parent.
        if "name" in cls.__dict__ and "delta" not in cls.__dict__:
            cls.delta = None

    def __init__(self, *args, **kwargs):
        names = [p.name for p in self.params]
        extra = [repr(k) for k in sorted(set(kwargs) - set(names[len(args):]))]
        if len(args) > len(names):
            extra.append(f"{len(args) - len(names)} positional argument(s)")
        if extra:
            raise ValidationError(
                f"bad parameters for step {self.name!r}: unexpected "
                + ", ".join(extra),
                stage=self.name,
                hint=f"accepted parameters: {names}",
            )
        given = {**dict(zip(names, args)), **kwargs}
        for param in self.params:
            value = given.get(param.name, param.default)
            setattr(self, param.name, param.check(value, self.name))

    def run(self, state: InspectorState) -> None:
        raise NotImplementedError

    def symbolic(self, kernel: Kernel, index: int):
        """Compile-time transformations this step realizes (a list)."""
        raise NotImplementedError

    def check_preconditions(self, state: InspectorState) -> None:
        """Validate the state this step requires; raise ValidationError.

        Called by the composed inspector before :meth:`run`, so precondition
        violations are typed, name the stage, and are degradable under a
        permissive ``on_stage_failure`` policy.
        """

    def identity_fallback(self, state: InspectorState) -> None:
        """Register identity stage functions under this step's UFS names.

        Used by the ``identity`` failure policy: the stage's effect on the
        data is rolled back, but the symbolic names the plan references
        (``cp0``, ``lg1``, ``theta2``, ...) still bind — to the identity
        reordering (or the trivial one-tile tiling), keeping the degraded
        plan's relations evaluable.
        """
        if self.symbol_prefix is None:
            return
        if self.symbol_domain == "tiles":
            state.register(
                self.symbol_prefix,
                [
                    np.zeros(size, dtype=np.int64)
                    for size in state.data.loop_sizes()
                ],
            )
            return
        size = (
            state.data.num_nodes
            if self.symbol_domain == "nodes"
            else state.data.num_inter
        )
        state.register(self.symbol_prefix, np.arange(size, dtype=np.int64))

    def __repr__(self):
        args = ", ".join(
            f"{p.name}={getattr(self, p.name)!r}" for p in self.params
        )
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# The table


#: Stage name -> step class, in registration order.
_BY_NAME: Dict[str, type] = {}
#: Spec ``type`` -> step class, for the classes with a ``spec_type``.
_BY_SPEC_TYPE: Dict[str, type] = {}
#: Spec ``type`` -> step class: the live, read-only view plan specs use.
STEP_TYPES = MappingProxyType(_BY_SPEC_TYPE)


def register(cls: type) -> type:
    """Enter ``cls`` into the step table (usable as a class decorator)."""
    clash = _BY_NAME.get(cls.name) or _BY_SPEC_TYPE.get(cls.spec_type)
    if clash is not None:
        raise ValidationError(
            f"step {cls.__name__} clashes with registered {clash.__name__} "
            f"(stage {cls.name!r}, spec type {cls.spec_type!r})",
            stage="steps",
        )
    _BY_NAME[cls.name] = cls
    if cls.spec_type is not None:
        _BY_SPEC_TYPE[cls.spec_type] = cls
    return cls


def unregister(cls: type) -> None:
    """Remove a class :func:`register` entered."""
    if _BY_NAME.get(cls.name) is not cls:
        raise ValidationError(
            f"step {cls.__name__} is not registered", stage="steps"
        )
    del _BY_NAME[cls.name]
    _BY_SPEC_TYPE.pop(cls.spec_type, None)


def registered() -> Tuple[type, ...]:
    """Every registered step class, in registration order."""
    return tuple(_BY_NAME.values())


# ---------------------------------------------------------------------------
# Data reorderings


#: What a stable row sort (and CPACK's first-touch walk) traverses.
_ROW_SORT_READS = ("index_values", "iteration_order")


def _am_call(w, var: str, call: str) -> str:
    """Generated code calling a transform on the current access map."""
    w.line("_am = AccessMap.from_columns([left, right], num_nodes)")
    w.line(f"{var} = {call}.array")
    return var


class DataReorderStep(Step):
    """Shared shell for data reorderings of the node space.

    A subclass supplies :meth:`reorder` — the inspector proper, charging
    its element touches to ``counter["touches"]``; the shell registers the
    result under ``symbol_prefix``, adjusts the index arrays, moves the
    payload per the remap policy, and plans ``R`` plus the node loops'
    implied ``T``.  On a stage-memo replay (:meth:`InspectorState.inspect`)
    :meth:`reorder` does not run and the shell applies the memoised
    function instead.
    """

    def reorder(self, state: InspectorState, counter: dict) -> ReorderingFunction:
        raise NotImplementedError

    def run(self, state: InspectorState) -> None:
        sigma = state.inspect(self, lambda counter: self.reorder(state, counter))
        state.register(self.symbol_prefix, sigma.array)
        state.apply_data_reordering(sigma, self.name)

    def symbolic(self, kernel: Kernel, index: int):
        """R on every data array, plus the implied T on node loops."""
        func = f"{self.symbol_prefix}{index}"
        nodes = node_loop_positions(kernel)
        transformations = [
            DataReordering(func, tuple(kernel.data_arrays), label=func)
        ]
        if nodes:
            T = permute_loops_relation(
                len(kernel.loops), {pos: func for pos in nodes}
            )
            transformations.append(
                IterationReordering(T, label=f"{func}@nodes", introduces=(func,))
            )
        return transformations


@register
class CPackStep(DataReorderStep):
    """Consecutive packing of the node data (paper Figure 10)."""

    name = "cpack"
    spec_type = "cpack"
    symbol_prefix = "cp"
    traits = TransformTraits("data", _ROW_SORT_READS, ("node_space",))
    delta = DeltaRule(0.10, patch_first_touch, first_stage_only=True)

    def reorder(self, state, counter):
        return cpack(
            state.data.interaction_access_map().flat_locations(),
            state.data.num_nodes,
            name=f"cp{state.current_index}",
            counter=counter,
        )

    def emit(self, w, index, kernel):
        w.comment("CPACK traverses the current data mapping of the j loop")
        return _am_call(w, f"cp{index}", "cpack(_am.flat_locations(), num_nodes)")


@register
class GPartStep(DataReorderStep):
    """Graph-partitioning data reordering (GPART)."""

    name = "gpart"
    spec_type = "gpart"
    params = (Param("partition_size", int, 128),)
    symbol_prefix = "gp"
    traits = TransformTraits("data", ("index_values",), ("node_space",))
    # Global traversals (this, RCM, SFC, cache blocking): no local key
    # model covers them, so any structural drift means re-bind.
    delta = DeltaRule(0.0)

    def reorder(self, state, counter):
        return gpart(
            state.data.interaction_access_map(),
            self.partition_size,
            counter=counter,
        )

    def emit(self, w, index, kernel):
        return _am_call(w, f"gp{index}", f"gpart(_am, {self.partition_size})")


@register
class RCMStep(DataReorderStep):
    """Reverse Cuthill--McKee data reordering."""

    name = "rcm"
    spec_type = "rcm"
    symbol_prefix = "rcm"
    traits = TransformTraits("data", ("index_values",), ("node_space",))
    delta = DeltaRule(0.0)

    def reorder(self, state, counter):
        return reverse_cuthill_mckee(
            state.data.interaction_access_map(), counter=counter
        )

    def emit(self, w, index, kernel):
        return _am_call(w, f"rcm{index}", "reverse_cuthill_mckee(_am)")


@register
class SpaceFillingStep(DataReorderStep):
    """Space-filling-curve data reordering (paper Section 8, refs [20,28]).

    Requires the node coordinates — the paper's point that these
    reorderings "can not be fully automated" because the data-to-space
    mapping must be supplied.  ``coords`` are in the *original* node
    numbering; the step tracks prior reorderings via ``sigma_total``.
    """

    name = "sfc"
    params = (Param("curve", str, "hilbert"), Param("order", int, 10))
    symbol_prefix = "sfc"
    traits = TransformTraits(
        "data", ("coords", "node_space"), ("node_space",), order_sensitive=False
    )
    delta = DeltaRule(0.0)

    def __init__(self, coords, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.coords = np.asarray(coords, dtype=np.float64)

    def check_preconditions(self, state: InspectorState) -> None:
        if len(self.coords) != state.data.num_nodes:
            raise ValidationError(
                f"coords must cover every node: got {len(self.coords)} "
                f"coordinates for {state.data.num_nodes} nodes",
                stage=self.name,
                hint="supply one spatial coordinate per node in the "
                "original numbering",
            )

    def reorder(self, state, counter):
        from repro.transforms.spacefill import space_filling_order

        self.check_preconditions(state)
        # Express the coordinates in the current numbering.
        current_coords = np.empty_like(self.coords)
        current_coords[state.sigma_total.array] = self.coords
        return space_filling_order(
            current_coords, curve=self.curve, order=self.order, counter=counter
        )

    def emit(self, w, index, kernel):
        w.comment(
            "space-filling-curve reordering over programmer-supplied "
            "coordinates, expressed in the current numbering"
        )
        w.line("_cur = np.empty_like(coords)")
        w.line("_cur[sigma_total] = coords")
        w.line(
            f"sfc{index} = space_filling_order(_cur, curve={self.curve!r}, "
            f"order={self.order}).array"
        )
        return f"sfc{index}"


# ---------------------------------------------------------------------------
# Iteration reorderings of the interaction loop


class _InteractionReorderStep(Step):
    """Shared shell for iteration reorderings of the interaction loop.

    A subclass supplies ``reorder(state, counter)``, the inspector, and
    ``merge_key(data)``: each is a stable row sort, so a delta-bind
    merges the changed rows in (:data:`_ROW_MERGE`) by these per-row keys
    over ``data``'s index arrays (returned with whether both endpoints
    feed them).  A stage-memo replay skips ``reorder`` as in
    :class:`DataReorderStep`.
    """

    symbol_domain = "inters"

    @property
    def symbol_prefix(self) -> str:
        return self.name

    def run(self, state: InspectorState) -> None:
        delta = state.inspect(self, lambda counter: self.reorder(state, counter))
        state.register(self.name, delta.array)
        state.apply_iteration_reordering(
            state.data.interaction_loop_position(), delta, self.name
        )

    def symbolic(self, kernel: Kernel, index: int):
        func = f"{self.name}{index}"
        pos = interaction_loop_pos(kernel)
        T = permute_loops_relation(len(kernel.loops), {pos: func})
        return [IterationReordering(T, label=self.name, introduces=(func,))]


_ROW_MERGE = DeltaRule(0.10, patch_merge, merges_rows=True)


@register
class LexGroupStep(_InteractionReorderStep):
    """Lexicographical grouping of the interaction loop."""

    name = "lg"
    spec_type = "lexgroup"
    traits = TransformTraits("iteration", _ROW_SORT_READS, ("inter_order",))
    delta = _ROW_MERGE

    def reorder(self, state, counter):
        return lexgroup(state.data.interaction_access_map(), counter=counter)

    def merge_key(self, data):
        return data.left, False

    def emit(self, w, index, kernel):
        return _am_call(w, f"lg{index}", "lexgroup(_am)")


@register
class LexSortStep(_InteractionReorderStep):
    """Lexicographical sorting of the interaction loop."""

    name = "ls"
    spec_type = "lexsort"
    traits = TransformTraits(
        "iteration", ("index_values",), ("inter_order",), order_sensitive=False
    )
    delta = _ROW_MERGE

    def reorder(self, state, counter):
        return lexsort(state.data.interaction_access_map(), counter=counter)

    def merge_key(self, data):
        n = np.int64(data.num_nodes)
        if len(data.left) and n * n >= merge_key_limit(len(data.left)):
            raise UnsupportedDelta(
                "lexsort composite key would overflow int64", stage=self.name
            )
        return data.left * n + data.right, True

    def emit(self, w, index, kernel):
        return _am_call(w, f"ls{index}", "lexsort(_am)")


@register
class BucketTilingStep(_InteractionReorderStep):
    """Bucket tiling of the interaction loop."""

    name = "bt"
    spec_type = "bucket"
    params = (Param("bucket_size", int, 128),)
    traits = TransformTraits("iteration", _ROW_SORT_READS, ("inter_order",))
    delta = _ROW_MERGE

    def reorder(self, state, counter):
        return bucket_tiling(
            state.data.interaction_access_map(), self.bucket_size, counter=counter
        )

    def merge_key(self, data):
        return data.left // np.int64(self.bucket_size), False

    def emit(self, w, index, kernel):
        return _am_call(w, f"bt{index}", f"bucket_tiling(_am, {self.bucket_size})")


# ---------------------------------------------------------------------------
# Sparse tilings


class _TilingStep(Step):
    """Shared shell for sparse tilings grown over the dependence edges:
    a subclass supplies ``tile(state, counter)``, the inspector (which a
    stage-memo replay skips, as in :class:`DataReorderStep`), and
    ``_emit_tiling(w, kernel, sizes)``, its generated call."""

    symbol_prefix = "theta"
    symbol_domain = "tiles"
    params = (Param("seed_block_size", int, 128),)

    def run(self, state: InspectorState) -> None:
        tiling = state.inspect(self, lambda counter: self.tile(state, counter))
        state.register(self.symbol_prefix, [t.copy() for t in tiling.tiles])
        state.tiling = tiling

    def symbolic(self, kernel: Kernel, index: int):
        T = tile_insert_relation(f"theta{index}")
        return [
            IterationReordering(
                T,
                label=self.name,
                introduces=(f"theta{index}",),
                inspects_dependences=True,
            )
        ]

    def emit(self, w, index, kernel):
        # ``_edges`` as dependence_edges builds them.
        p_j = interaction_loop_pos(kernel)
        w.line("_j = np.arange(num_inter, dtype=np.int64)")
        w.line("_ends = np.concatenate([left, right])")
        w.line("_jj = np.concatenate([_j, _j])")
        items = []
        for pos in node_loop_positions(kernel):
            pair = (pos, p_j) if pos < p_j else (p_j, pos)
            oriented = "(_ends, _jj)" if pos < p_j else "(_jj, _ends)"
            items.append(f"{pair}: {oriented}")
        w.line("_edges = {" + ", ".join(items) + "}")
        sizes = ", ".join(
            "num_inter" if pos == p_j else "num_nodes"
            for pos in range(len(kernel.loops))
        )
        w.line(f"_tf = {self._emit_tiling(w, kernel, f'[{sizes}]')}")
        w.line("tiling = [t.copy() for t in _tf.tiles]")
        w.line("num_tiles = _tf.num_tiles")


_TILING_READS = ("index_values", "iteration_order", "dependences")


@register
class FullSparseTilingStep(_TilingStep):
    """Full sparse tiling seeded by a block partition of the interaction
    loop; tiles grow across the node loops by dependence traversal.

    ``use_symmetry`` enables the paper's Section 6 optimization: the
    (interaction -> later node loop) dependences satisfy the same
    constraints as the (earlier node loop -> interaction) ones, so the
    inspector traverses a single edge set.
    """

    name = "fst"
    spec_type = "fst"
    params = _TilingStep.params + (Param("use_symmetry", bool, True),)
    traits = TransformTraits(
        "tiling",
        _TILING_READS,
        ("tiling",),
        symmetric_dependences=True,
        inspects_dependences=True,
    )
    delta = DeltaRule(0.05, patch_recompute)

    def _edges(self, state: InspectorState):
        edges = {}
        symmetric: Dict[Tuple[int, int], Tuple[int, int]] = {}
        base_pair = None
        for pair, oriented in dependence_edges(state.data).items():
            if base_pair is None or not self.use_symmetry:
                edges[pair] = oriented
                base_pair = pair
                # Loading both endpoint arrays + seed traversal.
                state.charge(self.name, 2 * len(oriented[0]))
            else:
                symmetric[pair] = base_pair
        return edges, symmetric, state.data.interaction_loop_position()

    def tile(self, state, counter):
        data = state.data
        seed = block_partition(data.num_inter, self.seed_block_size)
        edges, symmetric, p_j = self._edges(state)
        return full_sparse_tiling(
            data.loop_sizes(),
            p_j,
            seed,
            edges,
            symmetric_with=symmetric or None,
            counter=counter,
        )

    def _emit_tiling(self, w, kernel, sizes):
        w.comment("full sparse tiling: seed the j loop, grow via dependences")
        if self.use_symmetry:
            w.comment(
                "section-6 optimization: the symmetric dependence sets "
                "share one traversal"
            )
        w.line(f"_seed = block_partition(num_inter, {self.seed_block_size})")
        p_j = interaction_loop_pos(kernel)
        return f"full_sparse_tiling({sizes}, {p_j}, _seed, _edges)"


@register
class CacheBlockStep(_TilingStep):
    """Cache blocking: seed the first loop, shrink tiles through the rest."""

    name = "cb"
    spec_type = "cacheblock"
    traits = TransformTraits(
        "tiling", _TILING_READS, ("tiling",), inspects_dependences=True
    )
    delta = DeltaRule(0.0)

    def tile(self, state, counter):
        edges = dependence_edges(state.data)
        for src, _ in edges.values():
            state.charge(self.name, 2 * len(src))
        sizes = state.data.loop_sizes()
        seed = block_partition(sizes[0], self.seed_block_size)
        return cache_block_tiling(sizes, seed, edges, counter=counter)

    def _emit_tiling(self, w, kernel, sizes):
        first = "num_inter" if interaction_loop_pos(kernel) == 0 else "num_nodes"
        w.line(f"_seed = block_partition({first}, {self.seed_block_size})")
        return f"cache_block_tiling({sizes}, _seed, _edges)"


@register
class TilePackStep(DataReorderStep):
    """Tile packing: pack node data in tile-visit order (needs a tiling)."""

    name = "tilepack"
    spec_type = "tilepack"
    symbol_prefix = "tp"
    traits = TransformTraits(
        "data",
        ("tiling",),
        ("node_space",),
        order_sensitive=False,
        inspects_dependences=True,
    )
    delta = DeltaRule(0.05, patch_recompute)

    def check_preconditions(self, state: InspectorState) -> None:
        if state.tiling is None:
            raise ValidationError(
                "tilePack requires a prior sparse tiling step",
                stage=self.name,
                hint="add FullSparseTilingStep or CacheBlockStep before "
                "TilePackStep in the composition",
            )

    def reorder(self, state, counter):
        # apply_data_reordering permutes the node-loop tiles to match.
        self.check_preconditions(state)
        data = state.data
        return tilepack(
            state.tiling,
            data.node_loop_positions()[0],
            data.num_nodes,
            counter=counter,
        )

    def symbolic(self, kernel: Kernel, index: int):
        func = f"tp{index}"
        arrays = tuple(kernel.data_arrays)
        nodes = node_loop_positions(kernel)
        T = tile_permute_relation(
            len(kernel.loops), {pos: func for pos in nodes}
        )
        # The tile coordinate is preserved by T, so legality reduces to the
        # tiling function's own guarantee; the tilePack inspector traverses
        # that tiling function (paper Section 5.4), inheriting its
        # dependence-derived legality — re-checked by the runtime verifier.
        return [
            DataReordering(func, arrays, label=self.name),
            IterationReordering(
                T,
                label=f"{func}@nodes",
                introduces=(func,),
                inspects_dependences=True,
            ),
        ]

    def emit(self, w, index, kernel):
        w.comment("tilePack traverses the tiling function (Section 5.4)")
        w.line(
            f"tp{index} = tilepack(TilingFunction(tiling, num_tiles), "
            f"{node_loop_positions(kernel)[0]}, num_nodes).array"
        )
        return f"tp{index}"

