"""The bounded-key primitives and every inspector routed through them.

Five layers, each against what it replaced:

* Hypothesis properties of :mod:`repro.transforms.sorting` against the
  NumPy formulations (``argsort(kind="stable")``, ``unique(return_index)``,
  ``argsort`` + ``add.at`` + ``cumsum``);
* differential tests, transform by transform, against reference
  implementations kept *in this file* — the comparison-sort expressions
  and the ``deque``-over-NumPy BFS the inspectors ran before;
* the modelled ``touches`` of the six evaluation compositions, recorded
  before the rewrite (the paper's Figure 8/9/16 accounting must not move
  when the running code gets faster);
* the out-of-range inputs that used to wrap silently;
* the visit orders that are not permutations, which used to return one.
"""

import time
from collections import deque
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cachesim.machines import machine_by_name
from repro.errors import ValidationError
from repro.eval.compositions import COMPOSITIONS, composition_steps
from repro.kernels import kernel_by_name
from repro.kernels.data import make_kernel_data
from repro.kernels.datasets import generate_dataset
from repro.lowering.schedule import tile_dag
from repro.runtime import CompositionPlan
from repro.runtime.inspector import (
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.runtime.validate import validate_kernel_data
from repro.transforms import (
    AccessMap,
    CSRGraph,
    bucket_tiling,
    cpack,
    cpack_from_access_map,
    gpart,
    lexgroup,
    lexsort,
    permutation_from_order,
    tilepack,
    wavefront_schedule,
)
from repro.transforms.gpart import _adjacency_from_access_map
from repro.transforms.parallel import tile_graph_edges
from repro.transforms.sorting import (
    bounded_keys,
    distinct_edges,
    first_touch_order,
    group_by,
    stable_argsort,
)
from repro.transforms.tile_schedule import CSRLists

# ---------------------------------------------------------------------------
# (a) The primitives against NumPy.

DTYPES = (np.int32, np.int64, np.uint32)
#: Around every digit boundary of the radix (one, two and three passes).
UPPERS = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 1)


@st.composite
def bounded_arrays(draw, uppers=UPPERS):
    """``(keys, upper)``: random / all-equal / already-sorted / empty
    arrays of every index dtype, keys crowding both ends of the range."""
    upper = draw(st.sampled_from(uppers))
    dtype = draw(st.sampled_from(DTYPES))
    top = min(upper - 1, int(np.iinfo(dtype).max))
    key = st.one_of(
        st.integers(0, top),
        st.sampled_from([0, top, top // 2, max(top - 1, 0)]),
        st.integers(max(top - 70_000, 0), top),
    )
    values = draw(st.lists(key, max_size=40))
    shape = draw(st.sampled_from(["random", "equal", "sorted"]))
    if shape == "equal" and values:
        values = [values[0]] * len(values)
    elif shape == "sorted":
        values = sorted(values)
    return np.array(values, dtype=dtype), upper


SMALL_UPPERS = tuple(u for u in UPPERS if u <= 2**16 + 1)


@given(bounded_arrays())
@settings(max_examples=300, deadline=None)
def test_stable_argsort_equals_numpy_stable_argsort(case):
    keys, upper = case
    order = stable_argsort(keys, upper)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


@given(bounded_arrays(SMALL_UPPERS))
@settings(max_examples=200, deadline=None)
def test_group_by_equals_argsort_add_at_cumsum(case):
    labels, num_groups = case
    order, offsets = group_by(labels, num_groups)
    ref_order = np.argsort(labels, kind="stable")
    ref_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.add.at(ref_offsets[1:], labels.astype(np.int64), 1)
    assert np.array_equal(order, ref_order)
    assert offsets.dtype == np.int64
    assert np.array_equal(offsets, np.cumsum(ref_offsets))


def ref_first_touch(values):
    uniq, first_pos = np.unique(values, return_index=True)
    return uniq[np.argsort(first_pos)]


@given(bounded_arrays(SMALL_UPPERS))
@settings(max_examples=200, deadline=None)
def test_first_touch_order_equals_unique_by_first_index(case):
    values, upper = case
    assert np.array_equal(
        first_touch_order(values, upper), ref_first_touch(values)
    )


def test_indexed_assignment_keeps_the_last_write():
    """What :func:`first_touch_order` leans on: with repeated indices an
    indexed assignment leaves the *last* value written, also when the
    repeats are far apart and the array is large."""
    slots = np.full(3, -1)
    slots[np.array([2, 0, 2, 0, 2])] = np.arange(5)
    assert slots.tolist() == [3, -1, 4]
    rng = np.random.default_rng(7)
    index = rng.integers(0, 1000, 200_000)
    slots = np.full(1000, -1)
    slots[index] = np.arange(len(index))
    last = np.full(1000, -1)
    np.maximum.at(last, index, np.arange(len(index)))
    assert np.array_equal(slots, last)


def test_radix_pass_count_follows_upper(monkeypatch):
    """One ``argsort`` per 16-bit digit of ``upper - 1``, and never on a
    key wider than 16 bits."""
    calls = []
    real_argsort = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(a.dtype)
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    for upper, passes in (
        (1, 1), (2**16, 1), (2**16 + 1, 2), (2**32, 2), (2**32 + 1, 3),
    ):
        del calls[:]
        stable_argsort(np.array([0, upper - 1, 0]), upper)
        assert calls == [np.uint16] * passes, (upper, calls)


def test_distinct_edges_sorted_and_duplicate_free():
    src = np.array([2, 0, 2, 1, 0, 2])
    dst = np.array([1, 3, 1, 1, 3, 0])
    out_src, out_dst = distinct_edges(src, dst, 4)
    assert list(zip(out_src.tolist(), out_dst.tolist())) == sorted(
        set(zip(src.tolist(), dst.tolist()))
    )
    empty = distinct_edges([], [], 4)
    assert len(empty[0]) == len(empty[1]) == 0
    with pytest.raises(ValidationError, match="must align"):
        distinct_edges([0, 1], [1], 4)


# ---------------------------------------------------------------------------
# (b) Every rewritten transform against the code it replaced.


def ref_permutation(order):
    sigma = np.empty(len(order), dtype=np.int64)
    sigma[order] = np.arange(len(order), dtype=np.int64)
    return sigma


def ref_cpack(accesses, num_locations):
    touched = ref_first_touch(np.asarray(accesses, dtype=np.int64))
    sigma = np.full(num_locations, -1, dtype=np.int64)
    sigma[touched] = np.arange(len(touched), dtype=np.int64)
    untouched = np.flatnonzero(sigma < 0)
    sigma[untouched] = np.arange(len(touched), num_locations, dtype=np.int64)
    return sigma


def ref_first_locations(access_map):
    return np.array(
        [
            row[0] if len(row) else access_map.num_locations
            for row in access_map
        ],
        dtype=np.int64,
    )


def ref_lexgroup(access_map):
    return ref_permutation(
        np.argsort(ref_first_locations(access_map), kind="stable")
    )


def ref_bucket_tiling(access_map, bucket_size):
    return ref_permutation(
        np.argsort(ref_first_locations(access_map) // bucket_size, kind="stable")
    )


def ref_lexsort(access_map):
    n_it = access_map.num_iterations
    max_w = int(np.diff(access_map.offsets).max()) if n_it else 0
    keys = np.full((n_it, max_w), access_map.num_locations, dtype=np.int64)
    for it in range(n_it):
        row = access_map.row(it)
        keys[it, : len(row)] = row
    if not max_w:
        return np.arange(n_it, dtype=np.int64)
    return ref_permutation(
        np.lexsort(tuple(keys[:, c] for c in range(max_w - 1, -1, -1)))
    )


def ref_csr(num_nodes, src, dst):
    """Edge list -> CSR the way all five builders wrote it out."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets[1:], src[order], 1)
    return np.cumsum(offsets), dst[order]


def ref_adjacency(access_map):
    """Co-access pairs in the order GPART lists them — column by column
    for fixed-width rows, row by row otherwise — then the CSR build."""
    widths = np.diff(access_map.offsets)
    srcs, dsts = [], []
    if widths.size and np.all(widths == widths[0]) and widths[0] >= 1:
        w = int(widths[0])
        rows = access_map.locations.reshape(-1, w)
        for a_idx in range(w):
            for b_idx in range(a_idx + 1, w):
                a_col, b_col = rows[:, a_idx], rows[:, b_idx]
                keep = a_col != b_col
                srcs += a_col[keep].tolist() + b_col[keep].tolist()
                dsts += b_col[keep].tolist() + a_col[keep].tolist()
    else:
        for row in access_map:
            for a_idx in range(len(row)):
                for b_idx in range(a_idx + 1, len(row)):
                    a, b = int(row[a_idx]), int(row[b_idx])
                    if a != b:
                        srcs += [a, b]
                        dsts += [b, a]
    return ref_csr(access_map.num_locations, srcs, dsts)


def ref_gpart(access_map, partition_size):
    """The BFS as it ran before: a ``deque`` over NumPy arrays."""
    n = access_map.num_locations
    offsets, neighbors = ref_adjacency(access_map)
    visit_order = np.empty(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    pos = 0
    current_count = 0
    queue = deque()
    for start in range(n):
        if assigned[start]:
            continue
        queue.append(start)
        assigned[start] = True
        while queue:
            node = queue.popleft()
            visit_order[pos] = node
            pos += 1
            current_count += 1
            if current_count >= partition_size:
                for spilled in queue:
                    assigned[spilled] = False
                queue.clear()
                current_count = 0
            for nb in neighbors[offsets[node] : offsets[node + 1]]:
                if not assigned[nb]:
                    assigned[nb] = True
                    queue.append(nb)
    return ref_permutation(visit_order)


def ref_wavefront(num_iterations, src, dst):
    """Longest-path levels by a one-node-at-a-time worklist."""
    offsets, succ = ref_csr(num_iterations, src, dst)
    indegree = np.bincount(dst, minlength=num_iterations)
    wave = np.zeros(num_iterations, dtype=np.int64)
    ready = deque(np.flatnonzero(indegree == 0).tolist())
    while ready:
        node = ready.popleft()
        for nxt in succ[offsets[node] : offsets[node + 1]]:
            wave[nxt] = max(wave[nxt], wave[node] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(int(nxt))
    return wave


def ref_tile_graph_edges(tiling, edges):
    pairs = set()
    for (la, lb), edge_sets in edges.items():
        for src, dst in edge_sets:
            t_src = tiling.tiles[la][np.asarray(src, dtype=np.int64)]
            t_dst = tiling.tiles[lb][np.asarray(dst, dtype=np.int64)]
            strict = t_src != t_dst
            pairs.update(zip(t_src[strict].tolist(), t_dst[strict].tolist()))
    return pairs


KERNELS = ("moldyn", "nbf", "irreg")
DATASETS = ("mol1", "foil")
SCALE = 128


def _instance(kernel, dataset):
    return make_kernel_data(kernel, generate_dataset(dataset, scale=SCALE))


@st.composite
def ragged_access_maps(draw):
    """Rows of 0-4 locations (empty rows and repeats included) over a
    space that also holds locations no row touches."""
    n = draw(st.integers(1, 20))
    rows = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=4), max_size=25)
    )
    return AccessMap.from_rows(rows, n)


def _check_access_map_transforms(access_map):
    n = access_map.num_locations
    assert np.array_equal(
        cpack_from_access_map(access_map).array,
        ref_cpack(access_map.flat_locations(), n),
    )
    assert np.array_equal(lexgroup(access_map).array, ref_lexgroup(access_map))
    assert np.array_equal(lexsort(access_map).array, ref_lexsort(access_map))
    for bucket_size in (1, 3, n, n + 1):
        assert np.array_equal(
            bucket_tiling(access_map, bucket_size).array,
            ref_bucket_tiling(access_map, bucket_size),
        )
    for built, ref in zip(
        _adjacency_from_access_map(access_map), ref_adjacency(access_map)
    ):
        assert np.array_equal(built, ref)
    for partition_size in (1, 2, 7, n, n + 1):
        assert np.array_equal(
            gpart(access_map, partition_size).array,
            ref_gpart(access_map, partition_size),
        ), partition_size


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_access_map_transforms_match_references(kernel, dataset):
    _check_access_map_transforms(
        _instance(kernel, dataset).interaction_access_map()
    )


@given(ragged_access_maps())
@settings(max_examples=120, deadline=None)
def test_access_map_transforms_match_references_on_ragged_maps(access_map):
    _check_access_map_transforms(access_map)


@st.composite
def pair_access_maps(draw):
    """Width-2 rows, the shape every kernel's interaction loop has (and
    the adjacency's fixed-width path): self-pairs, repeated pairs and
    untouched locations, over a reach that splits the graph into many
    components when small."""
    n = draw(st.integers(1, 40))
    reach = draw(st.integers(0, n - 1))  # 0: self-pairs only
    rows = [
        (a, min(n - 1, a + draw(st.integers(0, reach))))
        for a in draw(st.lists(st.integers(0, n - 1), max_size=40))
    ]
    rows = [row[::-1] if draw(st.booleans()) else row for row in rows]
    rows += draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
    left = np.array([a for a, _ in rows], dtype=np.int64)
    right = np.array([b for _, b in rows], dtype=np.int64)
    return AccessMap.from_columns([left, right], n)


@given(pair_access_maps())
@settings(max_examples=200, deadline=None)
def test_gpart_matches_reference_on_pair_maps(access_map):
    n = access_map.num_locations
    for built, ref in zip(
        _adjacency_from_access_map(access_map), ref_adjacency(access_map)
    ):
        assert np.array_equal(built, ref)
    for partition_size in (1, 2, 7, n, n + 1):
        assert np.array_equal(
            gpart(access_map, partition_size).array,
            ref_gpart(access_map, partition_size),
        ), partition_size


def test_gpart_visits_untouched_locations_in_bulk():
    """50k locations and four rows: a sweep that rescans the nodes for
    every root costs ``O(n ** 2)`` here."""
    n = 50_000
    access_map = AccessMap.from_columns(
        [np.array([3, 49_990, 7, 3]), np.array([4, 12, 49_999, 3])], n
    )
    for partition_size in (1, 7, n + 1):
        start = time.perf_counter()
        sigma = gpart(access_map, partition_size)
        assert time.perf_counter() - start < 1.0, partition_size
        assert np.array_equal(sigma.array, ref_gpart(access_map, partition_size))


def test_adjacency_of_one_wide_row_costs_its_own_pairs():
    """One row of width 300 among 50k narrow rows: the ragged pairs are
    built per distinct width, so the wide row costs its 44,850 pairs, not
    that many passes over every row."""
    n = 1_000
    rng = np.random.default_rng(11)
    rows = rng.integers(0, n, (50_000, 2)).tolist()
    rows[::7] = rng.integers(0, n, (len(rows[::7]), 3)).tolist()
    rows[:2] = [[], [5]]
    rows.insert(25_000, rng.integers(0, n, 300).tolist())
    access_map = AccessMap.from_rows(rows, n)
    start = time.perf_counter()
    built = _adjacency_from_access_map(access_map)
    assert time.perf_counter() - start < 1.0
    for got, ref in zip(built, ref_adjacency(access_map)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_tiling_consumers_match_references(kernel, dataset):
    """tilePack, the marshalled schedule, the tile graph, its wavefronts
    and the counter DAG, over the tiling a real bind produces."""
    data = _instance(kernel, dataset)
    result = CompositionPlan(
        kernel_by_name(kernel),
        [CPackStep(), LexGroupStep(), FullSparseTilingStep(64)],
    ).bind(data)
    tiling, bound = result.tiling, result.transformed
    edges = dependence_edges(bound)
    num_tiles = tiling.num_tiles

    data_loop = bound.node_loop_positions()[0]
    assert np.array_equal(
        tilepack(tiling, data_loop, bound.num_nodes).array,
        ref_cpack(
            np.argsort(tiling.tiles[data_loop], kind="stable"), bound.num_nodes
        ),
    )

    for labels in tiling.tiles:
        lists = CSRLists.from_labels(labels, num_tiles, "tiles")
        ref_offsets, _ = ref_csr(num_tiles, labels, labels)
        assert np.array_equal(lists.flat, np.argsort(labels, kind="stable"))
        assert np.array_equal(lists.offsets, ref_offsets)
        assert lists.is_range == bool(np.all(labels[1:] >= labels[:-1]))

    tile_src, tile_dst = tile_graph_edges(tiling, edges)
    pairs = list(zip(tile_src.tolist(), tile_dst.tolist()))
    assert pairs == sorted(ref_tile_graph_edges(tiling, edges))

    waves = wavefront_schedule(num_tiles, tile_src, tile_dst)
    assert np.array_equal(
        waves.wave, ref_wavefront(num_tiles, tile_src, tile_dst)
    )

    dag = tile_dag(num_tiles, tile_src, tile_dst)
    ref_indptr, ref_indices = ref_csr(num_tiles, tile_src, tile_dst)
    assert np.array_equal(dag.succ_indptr, ref_indptr)
    assert np.array_equal(dag.succ_indices, ref_indices)
    assert np.array_equal(
        dag.indegree, np.bincount(tile_dst, minlength=num_tiles)
    )
    assert np.array_equal(dag.wave, waves.wave)
    assert np.array_equal(dag.order, np.argsort(waves.wave, kind="stable"))


@given(st.integers(1, 25), st.integers(0, 80), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_wavefront_schedule_matches_worklist(n, m, seed):
    """Random DAGs with repeated edges: several frontier edges feed one
    node in one round, which is what the frontier dedup is for."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    src, dst = np.minimum(a, b), np.maximum(a, b)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    sched = wavefront_schedule(n, src, dst)
    assert np.array_equal(sched.wave, ref_wavefront(n, src, dst))
    assert sched.num_waves == int(sched.wave.max()) + 1


@given(st.integers(1, 20), st.integers(0, 60), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_csr_graph_from_edges_matches_reference(n, m, seed):
    rng = np.random.default_rng(seed)
    left, right = rng.integers(0, n, m), rng.integers(0, n, m)
    graph = CSRGraph.from_edges(n, left, right)
    keep = left != right
    ref_offsets, ref_neighbors = ref_csr(
        n,
        np.concatenate([left[keep], right[keep]]),
        np.concatenate([right[keep], left[keep]]),
    )
    assert np.array_equal(graph.offsets, ref_offsets)
    assert np.array_equal(graph.neighbors, ref_neighbors)


# -- the duplicate-edge scan ------------------------------------------------


def ref_duplicate_finding(left, right, num_nodes):
    """``(count, reported positions)`` the ``np.unique`` scan produced."""
    lo = np.minimum(left, right).astype(np.int64)
    hi = np.maximum(left, right).astype(np.int64)
    _, first_pos, counts = np.unique(
        lo * max(num_nodes, 1) + hi, return_index=True, return_counts=True
    )
    if not (counts > 1).any():
        return None
    return int((counts - 1).sum()), np.sort(first_pos[counts > 1])[:5].tolist()


def _duplicate_finding(left, right, num_nodes):
    data = SimpleNamespace(
        kernel_name="pairs",
        dataset_name="hand-built",
        num_nodes=num_nodes,
        left=left,
        right=right,
        arrays={},
    )
    report = validate_kernel_data(data, policy="permissive")
    found = [f for f in report.findings if f.check == "duplicate-edges"]
    if not found:
        return None
    (finding,) = found
    return int(finding.message.split()[0]), finding.indices


@pytest.mark.parametrize(
    "left, right",
    [
        ([0, 1, 2, 3], [1, 2, 3, 0]),  # none
        ([0, 1, 2, 0], [1, 2, 3, 1]),  # one repeat
        ([0, 1, 2, 1], [1, 2, 3, 0]),  # (a, b) then (b, a)
        ([3, 0, 1, 0, 1, 3, 0, 2, 1], [2, 1, 0, 1, 2, 2, 1, 3, 0]),  # many
        ([5, 5, 5, 5, 5, 5, 5], [4, 4, 4, 4, 4, 4, 4]),  # one long run
        ([0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0] * 2),  # > 5
    ],
)
def test_duplicate_edge_finding_unchanged(left, right):
    left, right = np.array(left), np.array(right)
    assert _duplicate_finding(left, right, 6) == ref_duplicate_finding(
        left, right, 6
    )


@given(st.integers(1, 12), st.integers(1, 60), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_duplicate_edge_finding_unchanged_on_random_pairs(n, m, seed):
    rng = np.random.default_rng(seed)
    left, right = rng.integers(0, n, m), rng.integers(0, n, m)
    assert _duplicate_finding(left, right, n) == ref_duplicate_finding(
        left, right, n
    )


# ---------------------------------------------------------------------------
# (c) The overhead model did not move.

#: ``InspectorResult.total_touches`` of moldyn on mol1 at scale 64
#: (pentium4 parameters, remap once / each), recorded at the last commit
#: whose inspectors ran comparison sorts.
TOUCHES_BEFORE_REWRITE = {
    "cpack": (278672, 278672),
    "gpart": (761148, 761148),
    "cpack2x": (520480, 557344),
    "cpack+fst": (558592, 595456),
    "gpart+fst": (1041068, 1077932),
    "cpack2x+fst": (800400, 874128),
}


@pytest.mark.parametrize("composition", COMPOSITIONS[1:])
def test_modelled_touches_unchanged(composition):
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    machine = machine_by_name("pentium4")
    touches = tuple(
        CompositionPlan(
            kernel_by_name("moldyn"),
            composition_steps(composition, data, machine),
            remap=remap,
        )
        .bind(data)
        .total_touches
        for remap in ("once", "each")
    )
    assert touches == TOUCHES_BEFORE_REWRITE[composition]


# ---------------------------------------------------------------------------
# (d) Out-of-range ids raise where the arrays are first indexed.


def _rows(*rows):
    return AccessMap.from_rows(rows, 4)


#: The stray id sits at position 2 of the access stream / edge list.
OUT_OF_RANGE_ENTRY_POINTS = {
    "stable_argsort": lambda bad: stable_argsort([0, 1, bad], 4),
    "group_by": lambda bad: group_by([0, 1, bad], 4),
    "first_touch_order": lambda bad: first_touch_order([0, 1, bad], 4),
    "bounded_keys": lambda bad: bounded_keys([0, 1, bad], 4),
    "distinct_edges": lambda bad: distinct_edges([0, 1, bad], [1, 2, 3], 4),
    "cpack": lambda bad: cpack([0, 1, bad, 2], 4),
    "gpart": lambda bad: gpart(_rows([0, 1], [bad, 2], [2, 3]), 2),
    "lexgroup": lambda bad: lexgroup(_rows([0, 1], [bad, 2], [2, 3])),
    "bucket_tiling": lambda bad: bucket_tiling(
        _rows([0, 1], [bad, 2], [2, 3]), 2
    ),
    "wavefront_schedule-source": lambda bad: wavefront_schedule(
        4, [0, 1, bad], [1, 2, 3]
    ),
    "wavefront_schedule-target": lambda bad: wavefront_schedule(
        4, [0, 1, 2], [1, 2, bad]
    ),
    "CSRGraph.from_edges-left": lambda bad: CSRGraph.from_edges(
        4, [0, 1, bad], [1, 2, 3]
    ),
    "CSRGraph.from_edges-right": lambda bad: CSRGraph.from_edges(
        4, [0, 1, 2], [1, 2, bad]
    ),
    "tile_dag": lambda bad: tile_dag(4, [0, 1, bad], [1, 2, 3]),
    "CSRLists.from_labels": lambda bad: CSRLists.from_labels(
        [0, 1, bad], 4, "tiles"
    ),
}


@pytest.mark.parametrize("bad", [-1, 4, -(2**40), 2**40])
@pytest.mark.parametrize("entry_point", sorted(OUT_OF_RANGE_ENTRY_POINTS))
def test_out_of_range_id_is_a_value_error(entry_point, bad):
    """Never a permutation or a schedule (a negative id used to index
    from the end), never a bare ``IndexError`` or NumPy's "negative
    dimensions"."""
    with pytest.raises(ValueError, match=rf"\] = {bad} is outside \[0, ") as info:
        OUT_OF_RANGE_ENTRY_POINTS[entry_point](bad)
    assert isinstance(info.value, ValidationError)
    assert not isinstance(info.value, IndexError)
    assert len(info.value.indices) == 1


def test_out_of_range_error_names_array_and_first_position():
    with pytest.raises(ValidationError) as info:
        wavefront_schedule(4, [0, -1, 2, -3], [1, 2, 3, 0])
    assert "dependence sources[1] = -1" in str(info.value)
    assert info.value.indices == [1]


def test_keys_must_be_one_dimensional_integers():
    with pytest.raises(ValidationError, match="must be 1-D"):
        stable_argsort(np.zeros((2, 2), dtype=np.int64), 4)
    with pytest.raises(ValidationError, match="must hold integers"):
        stable_argsort(np.array([0.0, 1.0]), 4)
    with pytest.raises(ValidationError, match="group count -1"):
        group_by([], -1)


# ---------------------------------------------------------------------------
# (e) A visit order that is not a permutation raises; it used to return
# one (a repeat left a slot of ``np.empty`` garbage, a negative entry
# wrapped) or raise a bare ``IndexError``.


@pytest.mark.parametrize(
    "order,message,position",
    [
        ([0, 0, 2], r"order\[1\] = 0 repeats order\[0\]", 1),
        ([2, 1, 2], r"order\[2\] = 2 repeats order\[0\]", 2),
        ([-1, 0, 1], r"order\[0\] = -1 is outside \[0, 3\)", 0),
        ([0, 1, 3], r"order\[2\] = 3 is outside \[0, 3\)", 2),
    ],
    ids=["repeat", "later-repeat", "negative", "past-the-end"],
)
def test_permutation_from_order_rejects_a_non_permutation(order, message, position):
    with pytest.raises(ValidationError, match=message) as info:
        permutation_from_order("s", order)
    assert info.value.indices == [position]


def test_permutation_from_order_rejects_a_short_order():
    with pytest.raises(ValidationError, match="2 entries for 3 slots"):
        permutation_from_order("s", [1, 0], n=3)


@pytest.mark.parametrize("partition_size", [0, -3])
def test_gpart_partition_size_must_be_positive(partition_size):
    with pytest.raises(ValidationError, match="partition_size must be positive"):
        gpart(_rows([0, 1], [2, 3]), partition_size)
