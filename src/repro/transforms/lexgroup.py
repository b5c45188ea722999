"""Lexicographical grouping and sorting — iteration reorderings.

Both follow a data reordering: they reorder the iterations of a loop based
on the (already renumbered) data locations each iteration touches, so that
iterations touching the same or adjacent data execute consecutively
(paper Figure 4).

* ``lexgroup`` (Ding & Kennedy's lexicographic grouping): stable sort of
  iterations by the *first* location each touches.  Cheap — one counting
  sort, :func:`~repro.transforms.sorting.stable_argsort` over keys below
  ``num_locations + 1`` — and the paper's consistent best performer.
* ``lexsort`` (Han & Tseng's lexicographic sorting): full lexicographic
  sort over every location the iteration touches.

Both are only legal on loops whose iterations carry no non-reduction
dependences (paper Section 4); the runtime verifier re-checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.transforms.base import (
    AccessMap,
    ReorderingFunction,
    permutation_from_order,
)
from repro.transforms.sorting import bounded_keys, stable_argsort


def _first_locations(access_map: AccessMap) -> np.ndarray:
    """First touched location per iteration (num_locations if none)."""
    bounded_keys(
        access_map.locations, access_map.num_locations, "access map locations"
    )
    n_it = access_map.num_iterations
    first = np.full(n_it, access_map.num_locations, dtype=np.int64)
    has_any = np.diff(access_map.offsets) > 0
    first[has_any] = access_map.locations[access_map.offsets[:-1][has_any]]
    return first


def lexgroup(
    access_map: AccessMap,
    name: str = "delta_lg",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """Group iterations by their first touched data location.

    Returns ``delta_lg`` with ``delta_lg[old_iteration] = new_position``.
    The sort is stable, so iterations sharing a first location keep their
    relative order.
    """
    order = stable_argsort(  # order[new] = old
        _first_locations(access_map), access_map.num_locations + 1
    )
    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + 3 * access_map.num_iterations
    return permutation_from_order(name, order)


def lexsort(
    access_map: AccessMap,
    name: str = "delta_ls",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """Sort iterations lexicographically by their full location tuples.

    Rows are padded with ``num_locations`` so shorter rows sort before
    longer ones sharing a prefix.
    """
    n_it = access_map.num_iterations
    widths = np.diff(access_map.offsets)
    max_w = int(widths.max()) if n_it else 0
    if n_it and int(widths.min()) == max_w:
        keys = access_map.locations.reshape(n_it, max_w)
    else:
        keys = np.full((n_it, max_w), access_map.num_locations, dtype=np.int64)
        for it in range(n_it):
            row = access_map.row(it)
            keys[it, : len(row)] = row
    # np.lexsort sorts by the last key first: feed columns reversed.
    order = (
        np.lexsort(tuple(keys[:, c] for c in range(max_w - 1, -1, -1)))
        if max_w
        else np.arange(n_it, dtype=np.int64)
    )
    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + int(widths.sum()) + 2 * n_it
    return permutation_from_order(name, order)
