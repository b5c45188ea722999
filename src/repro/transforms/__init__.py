"""Run-time data and iteration-reordering transformation library.

Each module implements one reordering heuristic from the paper (or its
cited related work) as a pure algorithm over index arrays:

========================  =====================================================
:mod:`.cpack`             consecutive packing (Ding & Kennedy) — data
:mod:`.gpart`             graph-partitioning reordering (Han & Tseng) — data
:mod:`.rcm`               (reverse) Cuthill--McKee — data (related work [4])
:mod:`.lexgroup`          lexicographical grouping / sorting — iteration
:mod:`.bucket_tiling`     bucket tiling (Mitchell et al.) — iteration
:mod:`.block_partition`   block seed partitioning for sparse tiling
:mod:`.fst`               full sparse tiling (Strout et al.) — iteration
:mod:`.cache_block`       cache blocking (Douglas et al.) — iteration
:mod:`.tilepack`          tile packing — data (+ matching iteration reorder)
:mod:`.sorting`           the bounded-key sort / group / first-touch passes
                          every inspector above is built from
========================  =====================================================

The shared vocabulary lives in :mod:`.base`: a :class:`ReorderingFunction`
is a permutation stored as an index array (``sigma[old] = new``), and an
:class:`AccessMap` is a CSR structure mapping loop iterations to the data
locations they touch (a concrete, bound counterpart of the compile-time
data mapping ``M_{I->a}``).
"""

from repro.transforms.base import (
    CONSERVATIVE_TRAITS,
    RESOURCES,
    AccessMap,
    ReorderingFunction,
    TransformTraits,
    identity_reordering,
    permutation_from_order,
    permute_loops_relation,
    tile_insert_relation,
    tile_permute_relation,
)
from repro.transforms.cpack import cpack, cpack_from_access_map
from repro.transforms.gpart import gpart
from repro.transforms.rcm import cuthill_mckee, reverse_cuthill_mckee
from repro.transforms.lexgroup import lexgroup, lexsort
from repro.transforms.bucket_tiling import bucket_tiling
from repro.transforms.block_partition import block_partition
from repro.transforms.fst import check_tiling, full_sparse_tiling
from repro.transforms.cache_block import cache_block_tiling
from repro.transforms.tilepack import tilepack
from repro.transforms.fst_sweeps import (
    CSRGraph,
    full_sparse_tiling_sweeps,
    sweep_edges,
)
from repro.transforms.parallel import (
    CyclicDependenceError,
    WavefrontSchedule,
    tile_wavefronts,
    wavefront_schedule,
)

__all__ = [
    "AccessMap",
    "ReorderingFunction",
    "TransformTraits",
    "CONSERVATIVE_TRAITS",
    "RESOURCES",
    "identity_reordering",
    "permutation_from_order",
    "permute_loops_relation",
    "tile_insert_relation",
    "tile_permute_relation",
    "cpack",
    "cpack_from_access_map",
    "gpart",
    "cuthill_mckee",
    "reverse_cuthill_mckee",
    "lexgroup",
    "lexsort",
    "bucket_tiling",
    "block_partition",
    "full_sparse_tiling",
    "check_tiling",
    "cache_block_tiling",
    "tilepack",
    "CSRGraph",
    "full_sparse_tiling_sweeps",
    "sweep_edges",
    "CyclicDependenceError",
    "WavefrontSchedule",
    "wavefront_schedule",
    "tile_wavefronts",
]
