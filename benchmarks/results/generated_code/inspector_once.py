# Generated composed inspector for kernel 'moldyn'
# composition: cpack, lg, cpack, lg, fst, tilepack; data remap policy: once
import numpy as np
from repro.transforms import (cpack, gpart, lexgroup, lexsort, bucket_tiling, reverse_cuthill_mckee, block_partition, full_sparse_tiling, cache_block_tiling, tilepack, AccessMap)
from repro.transforms.fst import TilingFunction
from repro.errors import ValidationError

def moldyn_inspector(num_nodes, num_inter, left, right, arrays):
    # bind-time guard: same check the library inspector performs
    def _guard(name, arr, n):
        arr = np.asarray(arr, dtype=np.int64)
        if len(arr) != n:
            raise ValidationError(f'index array {name} has {len(arr)} entries, expected {n}', stage=name)
        bad = np.flatnonzero((arr < 0) | (arr >= n))
        if len(bad):
            raise ValidationError(f'index array {name} has {len(bad)} out-of-range values', stage=name, indices=bad[:5].tolist())
        dup = np.flatnonzero(np.bincount(arr, minlength=n) > 1)
        if len(dup):
            raise ValidationError(f'index array {name} is not a permutation: {len(dup)} duplicated values', stage=name, indices=np.flatnonzero(np.isin(arr, dup))[:5].tolist())
        return arr
    left = np.asarray(left, dtype=np.int64).copy()
    right = np.asarray(right, dtype=np.int64).copy()
    sigma_total = np.arange(num_nodes, dtype=np.int64)
    tiling = None
    num_tiles = 0

    # --- phase 0: CPackStep()
    # CPACK traverses the current data mapping of the j loop
    _am = AccessMap.from_columns([left, right], num_nodes)
    cp0 = cpack(_am.flat_locations(), num_nodes).array
    cp0 = _guard('cp0', cp0, num_nodes)
    # adjust index arrays (always immediate)
    left = cp0[left]
    right = cp0[right]
    sigma_total = cp0[sigma_total]
    if tiling is not None:
        _t = np.empty_like(tiling[0])
        _t[cp0] = tiling[0]
        tiling[0] = _t
        _t = np.empty_like(tiling[2])
        _t[cp0] = tiling[2]
        tiling[2] = _t
    # remap policy 'once': defer the payload move (Figure 11)

    # --- phase 1: LexGroupStep()
    _am = AccessMap.from_columns([left, right], num_nodes)
    lg1 = lexgroup(_am).array
    lg1 = _guard('lg1', lg1, num_inter)
    # permute the interaction loop's rows
    _order = np.empty_like(lg1)
    _order[lg1] = np.arange(num_inter, dtype=np.int64)
    left = left[_order]
    right = right[_order]
    if tiling is not None:
        _t = np.empty_like(tiling[1])
        _t[lg1] = tiling[1]
        tiling[1] = _t

    # --- phase 2: CPackStep()
    # CPACK traverses the current data mapping of the j loop
    _am = AccessMap.from_columns([left, right], num_nodes)
    cp2 = cpack(_am.flat_locations(), num_nodes).array
    cp2 = _guard('cp2', cp2, num_nodes)
    # adjust index arrays (always immediate)
    left = cp2[left]
    right = cp2[right]
    sigma_total = cp2[sigma_total]
    if tiling is not None:
        _t = np.empty_like(tiling[0])
        _t[cp2] = tiling[0]
        tiling[0] = _t
        _t = np.empty_like(tiling[2])
        _t[cp2] = tiling[2]
        tiling[2] = _t
    # remap policy 'once': defer the payload move (Figure 11)

    # --- phase 3: LexGroupStep()
    _am = AccessMap.from_columns([left, right], num_nodes)
    lg3 = lexgroup(_am).array
    lg3 = _guard('lg3', lg3, num_inter)
    # permute the interaction loop's rows
    _order = np.empty_like(lg3)
    _order[lg3] = np.arange(num_inter, dtype=np.int64)
    left = left[_order]
    right = right[_order]
    if tiling is not None:
        _t = np.empty_like(tiling[1])
        _t[lg3] = tiling[1]
        tiling[1] = _t

    # --- phase 4: FullSparseTilingStep(seed_block_size=10, use_symmetry=True)
    _j = np.arange(num_inter, dtype=np.int64)
    _edges = {(0, 1): ((left, _j), (right, _j)), (1, 2): ((_j, left), (_j, right))}
    # full sparse tiling: seed the j loop, grow via dependences
    # section-6 optimization: the symmetric dependence sets share one traversal
    _seed = block_partition(num_inter, 10)
    _tf = full_sparse_tiling([num_nodes, num_inter, num_nodes], 1, _seed, {(0, 1): _edges[(0, 1)]}, symmetric_with={(1, 2): (0, 1)})
    tiling = [t.copy() for t in _tf.tiles]
    num_tiles = _tf.num_tiles

    # --- phase 5: TilePackStep()
    # tilePack traverses the tiling function (Section 5.4)
    tp5 = tilepack(TilingFunction(tiling, num_tiles), 0, num_nodes).array
    tp5 = _guard('tp5', tp5, num_nodes)
    # adjust index arrays (always immediate)
    left = tp5[left]
    right = tp5[right]
    sigma_total = tp5[sigma_total]
    if tiling is not None:
        _t = np.empty_like(tiling[0])
        _t[tp5] = tiling[0]
        tiling[0] = _t
        _t = np.empty_like(tiling[2])
        _t[tp5] = tiling[2]
        tiling[2] = _t
    # remap policy 'once': defer the payload move (Figure 11)

    # finalize: relocate the payload
    def _move(arr):
        out = np.empty_like(arr)
        out[sigma_total] = arr
        return out
    arrays = {k: _move(v) for k, v in arrays.items()}
    schedule = None
    if tiling is not None:
        schedule = [[np.flatnonzero(t == tt) for t in tiling] for tt in range(num_tiles)]
    return dict(left=left, right=right, arrays=arrays, sigma=sigma_total, schedule=schedule)
