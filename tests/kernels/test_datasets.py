"""The geometric dataset generator: frozen output, the loop it replaced,
typed errors and a bounded working set.

``random_geometric_interactions`` used to loop in Python over every grid
cell and its neighbour offsets; it is array code now and must emit the
same interactions in the same order, because the ``rng.choice``
truncation and the label scramble consume that order.  Three checks hold
it there:

* ``dataset_sha256.json`` has the sha256 of ``(left, right, coords)`` of
  every named dataset at scales 2, 12 and 32 and at the paper's scale 1,
  recorded from the loop.  Scale 1 is marked ``paper_scale`` and runs only
  under ``-m paper_scale``.  ``PYTHONPATH=src python
  tests/kernels/test_datasets.py`` rewrites the file after a deliberate
  change to what the generator produces.
* :func:`reference_interactions` is the loop, kept as the oracle, and a
  Hypothesis property compares the two bit for bit on small inputs.
* tracemalloc peaks stay under the loop's on the input where it peaked
  hardest (one cell) and on mol1 at scale 2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import BindError
from repro.kernels.datasets import (
    DATASETS,
    generate_dataset,
    random_geometric_interactions,
)

DATASET_SHA256 = Path(__file__).with_name("dataset_sha256.json")
SCALES = (2, 12, 32)
PAPER_SCALE = 1

MiB = 1 << 20


def reference_interactions(num_nodes, target_edges, dim, seed):
    """The generator as a loop over cells and neighbour offsets, as it
    was written before it became array code.  Returns ``(left, right,
    pts)``."""
    rng = np.random.default_rng(seed)
    pts = rng.random((num_nodes, dim))

    density = num_nodes
    want_degree = 2.0 * target_edges / num_nodes
    if dim == 2:
        r = float(np.sqrt(want_degree / (np.pi * density)))
    else:
        r = float((want_degree / (4.0 / 3.0 * np.pi * density)) ** (1.0 / 3.0))

    cells = max(1, int(1.0 / r))
    cell_of = np.minimum((pts * cells).astype(np.int64), cells - 1)
    cell_key = cell_of[:, 0]
    for d in range(1, dim):
        cell_key = cell_key * cells + cell_of[:, d]
    order = np.argsort(cell_key, kind="stable")

    buckets = {}
    sorted_keys = cell_key[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    for chunk, key in zip(
        np.split(order, boundaries), sorted_keys[np.r_[0, boundaries]]
    ):
        buckets[int(key)] = chunk

    neighbor_offsets = list(itertools.product(*[range(-1, 2)] * dim))

    lefts = []
    rights = []
    r2 = r * r
    for key, members in buckets.items():
        coords = []
        k = key
        for _ in range(dim):
            coords.append(k % cells)
            k //= cells
        coords = coords[::-1]
        for offs in neighbor_offsets:
            ncoords = [c + o for c, o in zip(coords, offs)]
            if any(c < 0 or c >= cells for c in ncoords):
                continue
            nkey = 0
            for c in ncoords:
                nkey = nkey * cells + c
            if nkey < key:
                continue  # handle each cell pair once
            others = buckets.get(int(nkey))
            if others is None:
                continue
            d2 = ((pts[members][:, None, :] - pts[others][None, :, :]) ** 2).sum(
                axis=2
            )
            a_idx, b_idx = np.nonzero(d2 <= r2)
            a = members[a_idx]
            b = others[b_idx]
            if nkey == key:
                keep = a < b
            else:
                keep = np.ones(len(a), dtype=bool)
            lefts.append(a[keep])
            rights.append(b[keep])

    left = np.concatenate(lefts) if lefts else np.empty(0, dtype=np.int64)
    right = np.concatenate(rights) if rights else np.empty(0, dtype=np.int64)
    if len(left) > target_edges:
        keep = np.sort(
            rng.choice(len(left), size=target_edges, replace=False)
        )
        left, right = left[keep], right[keep]
    return left.astype(np.int64), right.astype(np.int64), pts


def grid_cells(num_nodes, target_edges, dim):
    """Cells per side of the generator's grid (its radius formula)."""
    want_degree = 2.0 * target_edges / num_nodes
    if dim == 2:
        r = float(np.sqrt(want_degree / (np.pi * num_nodes)))
    else:
        r = float((want_degree / (4.0 / 3.0 * np.pi * num_nodes)) ** (1.0 / 3.0))
    return max(1, int(1.0 / r))


def _same(args):
    got = random_geometric_interactions(*args, return_points=True)
    want = reference_interactions(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return want


# -- frozen output ----------------------------------------------------------


def digest(case_id: str) -> str:
    name, scale = case_id.split("@")
    ds = generate_dataset(name, scale=int(scale))
    h = hashlib.sha256()
    for array in (ds.left, ds.right, ds.coords):
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def case_ids(scales=SCALES + (PAPER_SCALE,)):
    return [f"{name}@{scale}" for scale in scales for name in DATASETS]


def _freeze_params():
    return [pytest.param(c, id=c) for c in case_ids(SCALES)] + [
        pytest.param(c, id=c, marks=pytest.mark.paper_scale)
        for c in case_ids((PAPER_SCALE,))
    ]


def test_every_case_is_frozen():
    assert sorted(json.loads(DATASET_SHA256.read_text())) == sorted(case_ids())


@pytest.mark.parametrize("case_id", _freeze_params())
def test_dataset_is_frozen(case_id):
    frozen = json.loads(DATASET_SHA256.read_text())
    assert digest(case_id) == frozen[case_id], (
        f"{case_id}: the generated dataset moved; if deliberate, regenerate "
        "with `PYTHONPATH=src python tests/kernels/test_datasets.py`"
    )


# -- the loop as oracle -----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    num_nodes=st.integers(1, 300),
    target_edges=st.integers(1, 3000),
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_nodes=40, target_edges=3000, dim=3, seed=0)  # one cell
@example(num_nodes=300, target_edges=3000, dim=2, seed=1)  # no truncation
@example(num_nodes=20, target_edges=1, dim=2, seed=2)  # a point per cell
@example(num_nodes=1, target_edges=1, dim=3, seed=3)  # nothing to emit
def test_matches_the_loop_bit_for_bit(num_nodes, target_edges, dim, seed):
    _same((num_nodes, target_edges, dim, seed))


def test_examples_cover_their_edge_cases():
    """The explicit examples above exercise what their comments say."""
    assert grid_cells(40, 3000, 3) == 1
    left, _, _ = reference_interactions(300, 3000, 2, 1)
    assert 0 < len(left) < 3000
    _, _, pts = reference_interactions(20, 1, 2, 2)
    cells = grid_cells(20, 1, 2)
    cell_of = np.minimum((pts * cells).astype(np.int64), cells - 1)
    assert len({tuple(c) for c in cell_of}) == 20
    left, _, _ = reference_interactions(1, 1, 3, 3)
    assert len(left) == 0


def test_one_crowded_cell_crosses_many_chunks():
    """3,000 points in one cell: 9M candidate pairs, hundreds of chunks."""
    left, _, _ = _same((3000, 3_000_000, 3, 7))
    assert grid_cells(3000, 3_000_000, 3) == 1
    assert len(left) > 1_000_000


# -- typed errors -----------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [(0, 10, 3, 1), (10, 0, 3, 1), (-5, 10, 2, 1), (10, 10, 1, 1), (10, 10, 4, 1)],
    ids=["no-nodes", "no-edges", "negative-nodes", "dim-1", "dim-4"],
)
def test_bad_arguments_are_typed_errors(args):
    with pytest.raises(BindError) as err:
        random_geometric_interactions(*args)
    assert err.value.stage == "generate_dataset"


# -- bounded memory ---------------------------------------------------------


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fn, loop_peak",
    [
        # The loop's tracemalloc peaks, measured before the rewrite.
        (lambda: random_geometric_interactions(3000, 3_000_000, 3, 7), 276 * MiB),
        (lambda: generate_dataset("mol1", scale=2), 74 * MiB),
    ],
    ids=["one-cell", "mol1@2"],
)
def test_peak_memory_stays_under_the_loops(fn, loop_peak):
    assert _peak(fn) <= loop_peak


if __name__ == "__main__":
    frozen = {case_id: digest(case_id) for case_id in case_ids()}
    DATASET_SHA256.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} digests to {DATASET_SHA256}", file=sys.stderr)
