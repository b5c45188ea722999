"""GPART: graph-partitioning data reordering (Han & Tseng, LCR 2000).

The data locations form a graph with an edge wherever two locations are
touched by the same loop iteration.  GPART partitions the nodes so each
partition's data fits in (some level of) cache and numbers the data
consecutively within a partition, improving spatial locality.

This implementation grows partitions by breadth-first search — the
low-overhead strategy GPART is built around — and orders nodes by
(partition, BFS visit order).  The adjacency is one counting sort of the
co-access pairs (:func:`~repro.transforms.sorting.group_by`).  The BFS
is level-synchronous: a FIFO queue's next level is the first touches of
the frontier's CSR rows, so each level is one gather, one filter and one
first-touch scatter, whatever its size.  A partition that fills in the
middle of a level cuts it: the FIFO walk would drop the rest of the
level and the half-grown next level back to unassigned and go on from
the cut node's unassigned neighbours, and so does the sweep.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.transforms.base import (
    AccessMap,
    ReorderingFunction,
    permutation_from_order,
)
from repro.transforms.sorting import bounded_keys, group_by


def _adjacency_from_access_map(access_map: AccessMap) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency over data locations: an undirected edge per co-access.

    The order of a node's neighbours is the BFS's order, so the order the
    pairs are listed in is part of the output.  Fixed-width rows (our
    kernels touch a constant number of locations per iteration, e.g.
    left/right endpoints) list them column pair by column pair: every
    ``a -> b`` of one pair of columns, then every ``b -> a``.  Ragged rows
    list them row by row, ``a -> b`` then ``b -> a`` for each pair.
    """
    n = access_map.num_locations
    locations = bounded_keys(access_map.locations, n, "access map locations")
    widths = np.diff(access_map.offsets)
    if widths.size and widths[0] >= 1 and np.all(widths == widths[0]):
        w = int(widths[0])
        a_idx, b_idx = np.triu_indices(w, 1)
        rows = locations.reshape(-1, w)
        a_cols, b_cols = rows[:, a_idx].T, rows[:, b_idx].T
        src = np.stack([a_cols, b_cols], axis=1).reshape(-1)
        dst = np.stack([b_cols, a_cols], axis=1).reshape(-1)
    else:
        # Pair k of a row of width w is (a, b) = np.triu_indices(w, 1)[k].
        # One pass per distinct width, over the rows of that width only.
        starts = access_map.offsets[:-1]
        pair_counts = widths * (widths - 1) // 2
        pair_starts = np.cumsum(pair_counts) - pair_counts
        src = np.empty(2 * int(pair_counts.sum()), dtype=np.int64)
        dst = np.empty_like(src)
        max_width = int(widths.max()) if widths.size else 0
        by_width, width_offsets = group_by(
            widths, max_width + 1, "access map row widths"
        )
        present = np.flatnonzero(np.diff(width_offsets))
        for w in present[present >= 2].tolist():
            of_width = by_width[width_offsets[w] : width_offsets[w + 1]]
            a_idx, b_idx = np.triu_indices(w, 1)
            cells = starts[of_width][:, None]
            a_col, b_col = locations[cells + a_idx], locations[cells + b_idx]
            rank = pair_starts[of_width][:, None] + np.arange(len(a_idx))
            src[2 * rank], dst[2 * rank] = a_col, b_col
            src[2 * rank + 1], dst[2 * rank + 1] = b_col, a_col
    keep = src != dst
    if not keep.all():
        # A row that pairs a location with itself adds no edge.
        src, dst = src[keep], dst[keep]
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
        raise ValidationError(
            f"gpart partition_size must be positive, got {partition_size}"
        )
    n = access_map.num_locations
    offsets, neighbors = _adjacency_from_access_map(access_map)

    starts, ends = offsets[:-1], offsets[1:]
    iota = np.arange(max(n, len(neighbors)), dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    first = np.empty(n, dtype=np.int64)

    def next_level(frontier):
        """The unassigned first touches of ``frontier``'s rows, in row
        order, marked assigned: what a FIFO queue holds once the
        frontier is popped.  One CSR gather, one filter, and a back-to-
        front scatter into ``first`` that leaves each node's first
        position (only the entries just written are read): O(level)."""
        lo = starts[frontier]
        counts = ends[frontier] - lo
        stops = counts.cumsum()
        touched = neighbors[iota[: stops[-1]] + (lo - stops + counts).repeat(counts)]
        touched = touched[~assigned[touched]]
        positions = iota[: len(touched)]
        first[touched[::-1]] = positions[::-1]
        level = touched[first[touched] == positions]
        assigned[level] = True
        return level

    # next_linked[v]: the first node >= v with a neighbour (n if none).
    # A node without one is never reached, so it is visited only as a
    # root, alone: a run of them is one slice of the visit order.
    next_linked = np.where(ends > starts, iota[:n], n)
    next_linked = np.minimum.accumulate(next_linked[::-1])[::-1]
    visit_order = []
    count = 0  # nodes in the partition being grown, always < partition_size
    root = 0  # every node below the root has been visited
    while root < n:
        linked = int(next_linked[root])
        if linked > root:
            visit_order.append(iota[root:linked])
            count = (count + linked - root) % partition_size
            root = linked
        elif assigned[root]:
            # argmin of a bool array stops at the first False (and is 0,
            # an assigned node, when there is none).
            skip = int(np.argmin(assigned[root:]))
            root = root + skip if skip else n
        else:
            assigned[root] = True
            frontier = iota[root : root + 1]
            while len(frontier):
                room = partition_size - count
                if len(frontier) < room:
                    visit_order.append(frontier)
                    count += len(frontier)
                    frontier = next_level(frontier)
                else:
                    # The partition fills at frontier[room - 1]: the rest
                    # of the level goes back to unassigned, and the next
                    # partition grows from the cut node's unassigned
                    # neighbours.
                    visit_order.append(frontier[:room])
                    assigned[frontier[room:]] = False
                    count = 0
                    frontier = next_level(frontier[room - 1 : room])

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

    return permutation_from_order(name, np.concatenate([iota[:0], *visit_order]))
