"""Synthetic datasets standing in for mol1, mol2, foil, auto.

The paper's inputs (Section 2.4):

=======  =======  =========  ===========  =================================
name     nodes    edges      edges/node   origin
=======  =======  =========  ===========  =================================
mol1     131072   1179648    9.0          molecular dynamics neighbor list
mol2     442368   3981312    9.0          molecular dynamics neighbor list
foil     144649   1074393    7.4          unstructured 2-D CFD mesh
auto     448695   3314611    7.4          unstructured 3-D mesh
=======  =======  =========  ===========  =================================

The originals are not distributed, so we generate graphs with the same
node:edge ratios from the same geometric processes — random-geometric
cutoff graphs in 3-D for the mol* neighbor lists, and 2-D for the meshes —
and **scramble the node labels**, which is the state the paper's baselines
start from (the whole point of the run-time data reorderings is to recover
the locality the labeling lost).  Locality transformations only ever see
the index arrays, so this preserves the exercised behavior.

Sizes are scaled down by ``DEFAULT_SCALE`` by default; the machine models
in :mod:`repro.cachesim.machines` are scaled by the same factor,
preserving the data-size : cache-size ratios that drive the paper's
results, and the smaller inputs keep the test suite and the experiment
grid quick.  Scale 1 is the paper's size and takes seconds to generate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import BindError
from repro.transforms.sorting import group_by

#: Linear scale factor applied to the paper's dataset sizes.  The scaled
#: machine models keep the paper's data : cache ratios at this size, and
#: 32 keeps the node payloads well above the (unscaled) L1 sizes of both
#: while holding traces, tests and the experiment grid small.
DEFAULT_SCALE = 32

#: Candidate pairs distance-tested at once.  Bounds the generator's working
#: set to a few MB however many points share a cell; 2**13-2**16 time the
#: same, larger slices spill out of L2 and run slower.
_PAIR_CHUNK = 1 << 15


@dataclass(frozen=True)
class Dataset:
    """A named input: interaction endpoints over a scrambled node space.

    ``coords`` (optional) are the generator's spatial coordinates per node
    — the "programmer-specified mapping of data to spatial coordinates"
    that space-filling-curve reorderings require (paper Section 8).
    """

    name: str
    num_nodes: int
    left: np.ndarray
    right: np.ndarray
    coords: Optional[np.ndarray] = None

    @property
    def num_interactions(self) -> int:
        return len(self.left)

    @property
    def edges_per_node(self) -> float:
        return self.num_interactions / self.num_nodes

    def __repr__(self):
        return (
            f"Dataset({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_interactions})"
        )


def random_geometric_interactions(
    num_nodes: int,
    target_edges: int,
    dim: int,
    seed: int,
    return_points: bool = False,
):
    """Cutoff-neighbor interactions of points in the unit ``dim``-cube.

    With ``return_points`` set, also returns the point coordinates.

    Points are binned on a grid whose cell size approximates the cutoff
    radius needed for ``target_edges``; each pair within a cell or between
    adjacent cells and within the radius becomes one interaction.  The
    edge list is truncated/kept as generated to land near ``target_edges``
    (exactness is irrelevant — only the ratio matters).

    Interactions come out cell by cell in ascending cell key, then by
    neighbour offset (``itertools.product`` order), then row-major over
    the two cells' members (ascending point ids); the truncation and the
    label scramble consume that order, so it is part of the output.
    """
    if num_nodes < 1 or target_edges < 1:
        raise BindError(
            f"need num_nodes >= 1 and target_edges >= 1, got "
            f"{num_nodes} and {target_edges}",
            stage="generate_dataset",
        )
    if dim not in (2, 3):
        raise BindError(
            f"dim must be 2 or 3, got {dim}", stage="generate_dataset"
        )
    rng = np.random.default_rng(seed)
    pts = rng.random((num_nodes, dim))

    # Radius from the expected-neighbor count of a Poisson process:
    # E[deg] = density * V_ball(r); edges = nodes * E[deg] / 2.
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
    # Cell c holds points order[offsets[c]:offsets[c + 1]], ascending.
    grid = (cells,) * dim
    order, offsets = group_by(cell_key, cells**dim, "cell keys")
    counts = np.diff(offsets)

    # One block per (non-empty cell, non-empty neighbour at or after it),
    # read off a (cell, offset) mask in row-major order: the emission order.
    src = np.flatnonzero(counts)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
    near = np.stack(np.unravel_index(src, grid), axis=1)[:, None, :] + steps
    inside = ((near >= 0) & (near < cells)).all(axis=2)
    dst = np.ravel_multi_index(np.moveaxis(near, 2, 0), grid, mode="clip")
    cell_i, off_i = np.nonzero(
        inside & (dst >= src[:, None]) & (counts[dst] > 0)
    )
    a_cell, b_cell = src[cell_i], dst[cell_i, off_i]
    a_start, b_start, b_len = offsets[a_cell], offsets[b_cell], counts[b_cell]
    one_cell = a_cell == b_cell
    sizes = counts[a_cell] * b_len
    ends = np.cumsum(sizes)
    starts = ends - sizes

    # Candidate pairs are numbered block by block, row-major inside each
    # block, and distance-tested a fixed-size slice of that range at a time.
    cell_pts = pts[order]
    r2 = r * r
    a_kept = [np.empty(0, dtype=np.int64)]
    b_kept = [np.empty(0, dtype=np.int64)]
    total = int(sizes.sum())
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        span = sizes[first : last + 1].copy()  # pairs of each block in [lo, hi)
        span[0] -= lo - starts[first]
        span[-1] -= ends[last] - hi
        block = np.repeat(np.arange(first, last + 1), span)
        a_off, b_off = np.divmod(np.arange(lo, hi) - starts[block], b_len[block])
        a = a_start[block] + a_off
        b = b_start[block] + b_off
        d2 = ((cell_pts[a] - cell_pts[b]) ** 2).sum(axis=1)
        # Inside one cell, a < b by position is a < b by point id.
        keep = (d2 <= r2) & (~one_cell[block] | (a < b))
        a_kept.append(a[keep])
        b_kept.append(b[keep])
    left = order[np.concatenate(a_kept)]
    right = order[np.concatenate(b_kept)]

    if len(left) > target_edges:
        # The draws are distinct, so a mask keeps them in ascending order.
        keep = np.zeros(len(left), dtype=bool)
        keep[rng.choice(len(left), size=target_edges, replace=False)] = True
        left, right = left[keep], right[keep]
    if return_points:
        return left, right, pts
    return left, right


def mesh2d_interactions(
    num_nodes: int, target_edges: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unstructured-mesh-like interactions (2-D geometric graph)."""
    return random_geometric_interactions(num_nodes, target_edges, dim=2, seed=seed)


def scramble_labels(
    num_nodes: int, left: np.ndarray, right: np.ndarray, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Random node renumbering + interaction shuffle (destroys locality)."""
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(num_nodes)
    order = rng.permutation(len(left))
    return relabel[left][order], relabel[right][order]


#: name -> (paper nodes, paper edges, generator dim)
_PAPER_SIZES = {
    "mol1": (131072, 1179648, 3),
    "mol2": (442368, 3981312, 3),
    "foil": (144649, 1074393, 2),
    "auto": (448695, 3314611, 2),
}

DATASETS = tuple(_PAPER_SIZES)


def generate_dataset(
    name: str, scale: int = DEFAULT_SCALE, seed: int = 20030609
) -> Dataset:
    """Generate a scaled synthetic stand-in for one of the paper's inputs.

    ``scale`` divides both node and edge counts (default
    :data:`DEFAULT_SCALE`).  The seed is
    fixed so every benchmark run sees identical inputs.
    """
    if name not in _PAPER_SIZES:
        raise BindError(
            f"unknown dataset {name!r}",
            stage="generate_dataset",
            hint=f"choose from {DATASETS}",
        )
    if scale <= 0:
        raise BindError(
            f"scale must be positive, got {scale}",
            stage="generate_dataset",
        )
    nodes, edges, dim = _PAPER_SIZES[name]
    num_nodes = max(16, nodes // scale)
    target_edges = max(num_nodes, edges // scale)
    # Stable per-name seed offset (``hash()`` is randomized per process).
    name_seed = sum(ord(c) * 31**i for i, c in enumerate(name)) % 1000
    left, right, pts = random_geometric_interactions(
        num_nodes, target_edges, dim=dim, seed=seed + name_seed,
        return_points=True,
    )
    rng = np.random.default_rng(seed + 1)
    relabel = rng.permutation(num_nodes)
    order = rng.permutation(len(left))
    coords = np.empty_like(pts)
    coords[relabel] = pts  # node relabel[i] carries point i's coordinates
    return Dataset(
        name, num_nodes, relabel[left][order], relabel[right][order], coords
    )
