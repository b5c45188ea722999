"""GPART: graph-partitioning data reordering (Han & Tseng, LCR 2000).

The data locations form a graph with an edge wherever two locations are
touched by the same loop iteration.  GPART partitions the nodes so each
partition's data fits in (some level of) cache and numbers the data
consecutively within a partition, improving spatial locality.

This implementation grows partitions by breadth-first search — the
low-overhead strategy GPART is built around — and orders nodes by
(partition, BFS visit order).  The adjacency is one counting sort of the
co-access pairs (:func:`~repro.transforms.sorting.group_by`); the BFS
stays a per-edge loop — its FIFO order with partition cuts in the middle
of a level is sequential by nature — but walks plain Python lists and a
``bytearray``, not NumPy arrays one boxed scalar at a time.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

import numpy as np

from repro.transforms.base import (
    AccessMap,
    ReorderingFunction,
    permutation_from_order,
)
from repro.transforms.sorting import bounded_keys, group_by


def _adjacency_from_access_map(access_map: AccessMap) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency over data locations: an undirected edge per co-access."""
    n = access_map.num_locations
    bounded_keys(access_map.locations, n, "access map locations")
    widths = np.diff(access_map.offsets)
    if widths.size and np.all(widths == widths[0]) and widths[0] >= 1:
        # Fast path: fixed-width rows (our kernels touch a constant number
        # of locations per iteration, e.g. left/right endpoints).
        w = int(widths[0])
        rows = access_map.locations.reshape(-1, w)
        src_list = []
        dst_list = []
        for a_idx in range(w):
            for b_idx in range(a_idx + 1, w):
                a_col, b_col = rows[:, a_idx], rows[:, b_idx]
                keep = a_col != b_col
                src_list.extend([a_col[keep], b_col[keep]])
                dst_list.extend([b_col[keep], a_col[keep]])
        src = (
            np.concatenate(src_list) if src_list else np.empty(0, dtype=np.int64)
        )
        dst = (
            np.concatenate(dst_list) if dst_list else np.empty(0, dtype=np.int64)
        )
    else:
        srcs = []
        dsts = []
        for row in access_map:
            for a_idx in range(len(row)):
                for b_idx in range(a_idx + 1, len(row)):
                    a, b = int(row[a_idx]), int(row[b_idx])
                    if a == b:
                        continue
                    srcs.append(a)
                    dsts.append(b)
                    srcs.append(b)
                    dsts.append(a)
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
    order, offsets = group_by(src, n, "co-access pair endpoints")
    return offsets, dst[order]


def gpart(
    access_map: AccessMap,
    partition_size: int,
    name: str = "sigma_gp",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """Partition-then-pack data reordering.

    Parameters
    ----------
    access_map:
        Iterations -> data locations (defines the co-access graph).
    partition_size:
        Maximum number of data locations per partition; pick it so a
        partition's working set fits the targeted cache level (the paper's
        Figure 17 sweeps exactly this parameter).

    Returns ``sigma_gp`` ordering locations by (partition, BFS order).
    """
    if partition_size < 1:
        raise ValueError("partition_size must be positive")
    n = access_map.num_locations
    offsets, neighbors = _adjacency_from_access_map(access_map)

    bounds = offsets.tolist()
    adjacent = neighbors.tolist()
    visit_order = []
    assigned = bytearray(n)
    current_count = 0

    queue: deque = deque()
    for start in range(n):
        if assigned[start]:
            continue
        queue.append(start)
        assigned[start] = 1
        while queue:
            node = queue.popleft()
            visit_order.append(node)
            current_count += 1
            if current_count >= partition_size:
                # Partition full: spill the frontier back to unassigned so
                # the next partition can pick it up in its own BFS.
                for spilled in queue:
                    assigned[spilled] = 0
                queue.clear()
                current_count = 0
            for nb in adjacent[bounds[node] : bounds[node + 1]]:
                if not assigned[nb]:
                    assigned[nb] = 1
                    queue.append(nb)

    if counter is not None:
        # The model's GPART, as its authors cost it: building the CSR
        # adjacency reads every co-access pair and sorts the edge list
        # (~E log E), and the BFS walks every edge once more.  The counting
        # sort that runs here is cheaper; the charge stays the paper's.
        e = int(len(neighbors))
        sort_cost = int(e * np.log2(max(2, e)))
        counter["touches"] = counter.get("touches", 0) + (
            2 * e + sort_cost + 3 * n
        )

    return permutation_from_order(name, visit_order)
