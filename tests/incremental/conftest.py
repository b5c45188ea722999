"""Fixtures for the streaming (delta-bind) suite: tiny epochs + helpers."""

import numpy as np
import pytest

from repro.plancache import PlanCache
from repro.runtime.verify import clear_verification_memo

from tests.plancache.conftest import tiny_data

__all__ = [
    "tiny_data",
    "assert_bit_identical",
    "small_delta",
    "stage_function_bytes",
]


def small_delta(data, *, removed=2, added=2, moved=0, seed=0):
    """A hand-rolled structural+payload delta valid against ``data``.

    Added edges are sampled from the unordered pairs *not* present in the
    parent (the validator rejects duplicate unordered endpoint pairs).
    """
    from repro.incremental import DatasetDelta

    rng = np.random.default_rng(seed)
    n = data.num_nodes
    lo = np.minimum(data.left, data.right)
    hi = np.maximum(data.left, data.right)
    existing = set((lo * n + hi).tolist())
    pairs = []
    while len(pairs) < added:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = int(min(a, b)) * n + int(max(a, b))
        if key in existing:
            continue
        existing.add(key)
        pairs.append((int(a), int(b)))
    removed_rows = (
        rng.choice(data.num_inter, size=removed, replace=False)
        if removed
        else np.empty(0, np.int64)
    )
    moved_nodes = (
        rng.choice(n, size=moved, replace=False) if moved else np.empty(0, np.int64)
    )
    return DatasetDelta(
        added_left=np.array([p[0] for p in pairs], dtype=np.int64),
        added_right=np.array([p[1] for p in pairs], dtype=np.int64),
        removed=np.asarray(removed_rows, dtype=np.int64),
        moved_nodes=np.asarray(moved_nodes, dtype=np.int64),
        moved_arrays=(
            {name: rng.random(moved) for name in data.arrays} if moved else {}
        ),
    ).validate(data)


def assert_bit_identical(patched, cold):
    """Every realized array of two binds compares equal via ``tobytes``."""
    assert patched.transformed.left.tobytes() == cold.transformed.left.tobytes()
    assert (
        patched.transformed.right.tobytes() == cold.transformed.right.tobytes()
    )
    assert patched.sigma_nodes.array.tobytes() == cold.sigma_nodes.array.tobytes()
    for name in cold.transformed.arrays:
        assert (
            patched.transformed.arrays[name].tobytes()
            == cold.transformed.arrays[name].tobytes()
        ), name
    assert (patched.tiling is None) == (cold.tiling is None)
    if cold.tiling is not None:
        assert patched.tiling.num_tiles == cold.tiling.num_tiles
        for mine, theirs in zip(patched.tiling.tiles, cold.tiling.tiles):
            assert mine.tobytes() == theirs.tobytes()
    # Each loop's iteration reordering: a node loop's is sigma (above),
    # the interaction loop's composes the iteration reorderings' stage
    # functions.  A hit ran no stage and carries none.
    if patched.stage_functions is not None and cold.stage_functions is not None:
        assert stage_function_bytes(patched) == stage_function_bytes(cold)


def stage_function_bytes(result):
    """Each stage function's bytes (a tiling's loop by loop)."""
    return {
        name: (
            [part.tobytes() for part in value]
            if isinstance(value, list)
            else value.tobytes()
        )
        for name, value in result.stage_functions.items()
    }


@pytest.fixture
def memory_cache():
    return PlanCache(use_disk=False)


@pytest.fixture(autouse=True)
def _fresh_verification_memo():
    """Retire every recorded verdict around each test, so a verdict
    from one test never answers another's."""
    clear_verification_memo()
    yield
    clear_verification_memo()
