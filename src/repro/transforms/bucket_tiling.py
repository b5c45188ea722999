"""Bucket tiling (Mitchell, Carter, Ferrante, PACT'99) — iteration reordering.

Iterations are binned by which *range* of the data space they touch: the
data space is cut into equal buckets (sized to the target cache) and each
iteration goes to the bucket of its first touched location.  Executing
bucket by bucket localizes the loop's working set — the shift-and-mask
version of lexGroup, trading precision for an O(n) inspector.
"""

from __future__ import annotations

from typing import Optional

from repro.transforms.base import (
    AccessMap,
    ReorderingFunction,
    permutation_from_order,
)
from repro.transforms.lexgroup import _first_locations
from repro.transforms.sorting import stable_argsort


def bucket_tiling(
    access_map: AccessMap,
    bucket_size: int,
    name: str = "delta_bt",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """Reorder iterations by data bucket (stable within a bucket).

    ``bucket_size`` is in data locations; choose it so a bucket's worth of
    data fits the targeted cache level.
    """
    if bucket_size < 1:
        raise ValueError("bucket_size must be positive")
    order = stable_argsort(
        _first_locations(access_map) // bucket_size,
        access_map.num_locations // bucket_size + 1,
    )
    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + 3 * access_map.num_iterations
    return permutation_from_order(name, order)
