"""CPACK: consecutive packing (Ding & Kennedy, PLDI'99).

The inspector walks the data mapping in iteration order and packs each
location the first time it is touched (paper Figure 10).  Locations never
touched keep their relative order at the end.  The result is the data
reordering function ``sigma_cp`` with ``sigma_cp[old] = new``.

Like the figure it is linear in the length of the walk — two scatters
over the access stream (:func:`~repro.transforms.sorting.first_touch_order`,
the ``alreadyOrdered`` bit vector in array form) and one pass over the
data space — which is what the ``touches`` it charges have always said.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.transforms.base import AccessMap, ReorderingFunction
from repro.transforms.sorting import first_touch_order


def cpack(
    accesses: np.ndarray,
    num_locations: int,
    name: str = "sigma_cp",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """First-touch packing of ``num_locations`` slots.

    Parameters
    ----------
    accesses:
        Data locations in traversal order (e.g. ``left[0], right[0],
        left[1], right[1], ...`` for the moldyn j loop).
    num_locations:
        Size of the data space being reordered.
    counter:
        Optional dict; ``counter["touches"]`` is incremented by the number
        of array elements the inspector reads/writes (overhead accounting).

    Returns the permutation ``sigma_cp`` (old location -> new location).
    """
    accesses = np.asarray(accesses)
    touched_in_order = first_touch_order(accesses, num_locations, "accesses")

    sigma = np.full(num_locations, -1, dtype=np.int64)
    sigma[touched_in_order] = np.arange(len(touched_in_order), dtype=np.int64)
    untouched = np.flatnonzero(sigma < 0)
    sigma[untouched] = np.arange(
        len(touched_in_order), num_locations, dtype=np.int64
    )

    if counter is not None:
        # Inspector reads every access once and writes sigma once per slot
        # (plus the alreadyOrdered bit vector, one probe per access).
        counter["touches"] = counter.get("touches", 0) + (
            2 * int(accesses.size) + num_locations
        )
    return ReorderingFunction(name, sigma)


def cpack_from_access_map(
    access_map: AccessMap,
    name: str = "sigma_cp",
    counter: Optional[dict] = None,
) -> ReorderingFunction:
    """CPACK over an :class:`AccessMap` (traverses rows in iteration order)."""
    return cpack(
        access_map.flat_locations(), access_map.num_locations, name, counter
    )
