"""Tile packing: data (+ iteration) reordering derived from a tiling.

After sparse tiling, data touched within one tile is scattered across the
data arrays; tilePack walks the tiles in execution order and packs the
data first-touch, so each tile's working set is contiguous (the paper's
Section 2.3 example: ordering 4,2,5,6,3,1 for the highlighted tile).

The inspector traverses the *tiling function*: it visits ``sched(t, l)``
for the loop whose iterations identity-map to the data (the i loop in
moldyn) and CPACKs the locations in that order — one counting sort by
tile id, since the walk mentions every location once.  Loops that
identity-map to data are then reordered by the same function
(``T_{I3->I4}`` applies ``Otp`` to the i and k loops but leaves j fixed).
"""

from __future__ import annotations

from typing import Optional

from repro.transforms.base import ReorderingFunction, permutation_from_order
from repro.transforms.fst import TilingFunction
from repro.transforms.sorting import stable_argsort


def tilepack(
    tiling: TilingFunction,
    data_loop: int,
    num_locations: int,
    name: str = "sigma_tp",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """Pack data locations in tile-visit order.

    Parameters
    ----------
    tiling:
        The tiling function produced by full sparse tiling / cache blocking.
    data_loop:
        A loop whose iteration ``x`` touches exactly data location ``x``
        (moldyn's i or k loop); its tile-ordered traversal defines the pack.
    num_locations:
        Size of the data space.

    Returns ``sigma_tp`` (old location -> new location).
    """
    loop_tiles = tiling.tiles[data_loop]
    if len(loop_tiles) != num_locations:
        raise ValueError(
            "data_loop must identity-map to the data space "
            f"({len(loop_tiles)} iterations vs {num_locations} locations)"
        )
    # Visit order: stable sort by tile — within a tile, current iteration
    # order (== sched(t, data_loop) concatenated over t).  It mentions
    # every location once, so first-touch packing it is inverting it.
    order = stable_argsort(
        loop_tiles, tiling.num_tiles, f"tiles[{data_loop}]"
    )
    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + 2 * num_locations
    return permutation_from_order(name, order)
