"""The marshalled tile schedule: ``sched(t, l)`` in CSR form, built once.

The paper's sparse-tiled executor (Figure 14) runs ``do t / do x in
sched(t, l)``.  Every tier here reads that schedule from one read-only
object, built when the tiling is bound and never re-shaped per call:

* :class:`CSRLists` — ``n`` index lists packed into one ``int64`` array
  ``flat`` plus ``n + 1`` ``offsets`` (list ``i`` is
  ``flat[offsets[i]:offsets[i + 1]]``).  One loop's iterations per tile,
  or a wavefront's iterations per wave.
* :class:`TileSchedule` — one :class:`CSRLists` per kernel loop, read as
  ``schedule[t][pos]`` by the Python consumers and as ``(flat, offsets)``
  pointers by the C marshaller.

Both are *partitions by construction*: ``flat`` is a permutation of
``[0, len(flat))``.  A counting sort of a label array produces one
(:meth:`CSRLists.from_labels`); index lists handed in from outside are
flattened and checked (:meth:`CSRLists.from_lists`, the only place lists
become ``(flat, offsets)``).  What is left to check per call is O(1):
``len(flat)`` against the extent of the loop the lists index.

**Range form.**  When a loop's labels are non-decreasing — which is what
``tilePack`` (and any packing that orders a loop by tile) leaves behind —
``flat`` is ``arange`` and tile ``t`` *is* the range ``[offsets[t],
offsets[t + 1])``: ``is_range`` records it, the C tier then iterates the
offsets alone and the Python tile driver slices by them.  The data
decides; index lists handed in from outside stay index lists.

**The trivial schedule** (:func:`trivial_schedule`) is the tiling
``theta(i) = 0``: one tile holding every iteration, every loop in range
form.  Run by the tiled executor it is the untiled one — each loop over
its whole range in the original order.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ExecutorBoundsError, ValidationError
from repro.transforms.sorting import group_by


def _frozen(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _lists_equal(ours, theirs) -> bool:
    return len(ours) == len(theirs) and all(
        np.array_equal(a, b) for a, b in zip(ours, theirs)
    )


class CSRLists(Sequence):
    """Read-only index lists in CSR form that partition ``[0, extent)``.

    A sequence of ``int64`` views (``lists[i]``, ``len``, iteration,
    slicing), so every consumer of a list of index arrays reads it
    unchanged.  Build one with :meth:`from_labels` or :meth:`from_lists`;
    the bare constructor trusts its arguments.
    """

    def __init__(
        self, flat: np.ndarray, offsets: np.ndarray, is_range: bool = False
    ) -> None:
        self.flat = _frozen(flat)
        self.offsets = _frozen(offsets)
        #: ``flat`` is ``arange``: list ``i`` is a contiguous range.
        self.is_range = is_range
        self._views: Optional[List[np.ndarray]] = None
        self._parts: Optional[list] = None

    @classmethod
    def from_labels(cls, labels, num_lists: int, what: str) -> "CSRLists":
        """Counting sort: list ``i`` holds the positions labelled ``i``,
        ascending.  Sorted labels leave ``flat == arange`` — the range
        form."""
        flat, offsets = group_by(labels, num_lists, what)
        labels = np.asarray(labels)
        return cls(flat, offsets, bool(np.all(labels[1:] >= labels[:-1])))

    @classmethod
    def from_lists(
        cls,
        lists,
        extent: Optional[int] = None,
        name: str = "lists",
        covers: str = "lists cover {count} entries, expected {extent}",
        stage: str = "executor",
    ) -> "CSRLists":
        """Flatten index lists and check that they partition
        ``[0, extent)`` (default: their own total length).

        An entry outside the range is an
        :class:`~repro.errors.ExecutorBoundsError` (it would address out
        of bounds); a missing or repeated entry is a
        :class:`~repro.errors.ValidationError` (``covers`` words the
        count mismatch)."""
        chunks = [np.asarray(chunk).ravel() for chunk in lists]
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum([len(chunk) for chunk in chunks], out=offsets[1:])
        # Empty lists carry no dtype worth checking (``[]`` is float64).
        filled = [chunk for chunk in chunks if len(chunk)]
        flat = np.concatenate(filled) if filled else np.empty(0, np.int64)
        if not np.issubdtype(flat.dtype, np.integer):
            raise ValidationError(f"{name} must hold integers")
        count = len(flat)
        if extent is None:
            extent = count
        if count and (int(flat.min()) < 0 or int(flat.max()) >= extent):
            bad = np.flatnonzero((flat < 0) | (flat >= extent))
            pos = int(bad[0])
            raise ExecutorBoundsError(
                f"{name}[{pos}] = {int(flat[pos])} outside [0, {extent})",
                array=name,
                bound=int(extent),
                stage=stage,
                indices=[int(i) for i in bad[:5]],
            )
        if count != extent:
            raise ValidationError(covers.format(count=count, extent=extent))
        if count:
            repeated = int(np.count_nonzero(np.bincount(flat) > 1))
            if repeated:
                raise ValidationError(
                    f"{name} lists {repeated} of {extent} entries more "
                    "than once"
                )
        return cls(flat, offsets)

    def views(self) -> List[np.ndarray]:
        """The lists as views of ``flat``, sliced once."""
        if self._views is None:
            bounds = self.offsets.tolist()
            self._views = [
                self.flat[bounds[i] : bounds[i + 1]]
                for i in range(len(bounds) - 1)
            ]
        return self._views

    def parts(self) -> list:
        """The lists as a driver indexes operands with them, built once:
        in range form a ``slice`` per list (basic indexing: a view, no
        gather; it clips exactly as slicing ``flat`` would), else its
        view of ``flat``; ``None`` for an empty list."""
        if self._parts is None:
            bounds = self.offsets.tolist()
            self._parts = [
                (slice(bounds[i], bounds[i + 1]) if self.is_range else view)
                if len(view)
                else None
                for i, view in enumerate(self.views())
            ]
        return self._parts

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def check_extent(self, extent: int, covers: str) -> None:
        """The per-call check, O(1): the lists partition ``[0,
        len(flat))`` by construction, so they partition ``[0, extent)``
        exactly when the lengths agree."""
        count = int(self.offsets[-1])
        if count != extent or count != len(self.flat):
            raise ValidationError(covers.format(count=count, extent=extent))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        return self.views()[index]

    def __iter__(self):
        return iter(self.views())

    def __eq__(self, other):
        if isinstance(other, CSRLists):
            return np.array_equal(
                self.offsets, other.offsets
            ) and np.array_equal(self.flat, other.flat)
        if isinstance(other, (list, tuple)):
            return _lists_equal(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        form = "range" if self.is_range else "index"
        return f"CSRLists({len(self)} lists, {len(self.flat)} entries, {form})"


def _loop_covers(pos: int) -> str:
    return (
        f"schedule covers {{count}} iterations of loop {pos}, "
        "expected {extent}"
    )


class TileSchedule(Sequence):
    """``schedule[t][pos]``: the iterations of loop ``pos`` in tile ``t``.

    One :class:`CSRLists` per loop (``loops[pos]``), every one with
    ``num_tiles`` lists; a tile reads as a tuple of per-loop views.
    """

    def __init__(self, loops: Sequence, num_tiles: int) -> None:
        self.loops: Tuple[CSRLists, ...] = tuple(loops)
        self.num_tiles = int(num_tiles)
        self._tiles: Optional[List[tuple]] = None

    @classmethod
    def from_tiling(cls, tiles, num_tiles: int) -> "TileSchedule":
        """From a tiling function: ``tiles[pos][x]`` is the tile of
        iteration ``x`` of loop ``pos``; iterations ascend within a
        tile.  ``O(sum loop sizes)``, no per-tile work."""
        return cls(
            [
                CSRLists.from_labels(loop_tiles, num_tiles, f"tiles[{pos}]")
                for pos, loop_tiles in enumerate(tiles)
            ],
            num_tiles,
        )

    @classmethod
    def from_tiles(
        cls,
        tiles,
        extents: Optional[Sequence[int]] = None,
        labels: Optional[Sequence[str]] = None,
        stage: str = "executor",
    ) -> "TileSchedule":
        """From a list of tiles, each a list of per-loop index lists —
        the hand-built form.  ``extents`` (one per loop) fixes the loop
        count and what each loop's lists must partition."""
        tiles = list(tiles)
        if extents is not None:
            num_loops = len(extents)
        else:
            num_loops = len(tiles[0]) if tiles else 0
        if any(len(tile) != num_loops for tile in tiles):
            raise ValidationError(
                f"schedule tiles must cover {num_loops} loops"
            )
        loops = []
        for pos in range(num_loops):
            label = labels[pos] if labels is not None else pos
            loops.append(
                CSRLists.from_lists(
                    [tile[pos] for tile in tiles],
                    extent=None if extents is None else int(extents[pos]),
                    name=f"schedule[{label}]",
                    covers=_loop_covers(pos),
                    stage=stage,
                )
            )
        return cls(loops, len(tiles))

    @property
    def is_range(self) -> Tuple[bool, ...]:
        return tuple(loop.is_range for loop in self.loops)

    def check_extents(self, extents: Sequence[int]) -> None:
        """The per-call check: O(1) per loop, everything else was
        established at construction."""
        if len(self.loops) != len(extents):
            raise ValidationError(
                f"schedule tiles must cover {len(extents)} loops"
            )
        for pos, (loop, extent) in enumerate(zip(self.loops, extents)):
            loop.check_extent(extent, _loop_covers(pos))

    def tiles(self) -> List[tuple]:
        """Every tile as a tuple of per-loop views, sliced once."""
        if self._tiles is None:
            if self.loops:
                self._tiles = list(zip(*(loop.views() for loop in self.loops)))
            else:
                self._tiles = [()] * self.num_tiles
        return self._tiles

    def __len__(self) -> int:
        return self.num_tiles

    def __getitem__(self, index):
        return self.tiles()[index]

    def __iter__(self):
        return iter(self.tiles())

    def __eq__(self, other):
        if isinstance(other, TileSchedule):
            return self.num_tiles == other.num_tiles and self.loops == other.loops
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                _lists_equal(ours, theirs) for ours, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        forms = ", ".join("range" if r else "index" for r in self.is_range)
        return f"TileSchedule({self.num_tiles} tiles, loops: {forms})"


@functools.lru_cache(maxsize=8)
def _whole_range(extent: int) -> CSRLists:
    return CSRLists(
        np.arange(extent, dtype=np.int64),
        np.array([0, extent], dtype=np.int64),
        is_range=True,
    )


@functools.lru_cache(maxsize=8)
def trivial_schedule(extents: Tuple[int, ...]) -> TileSchedule:
    """The one-tile schedule over loops of ``extents``, every loop in
    range form.  Built once per distinct extents; the cache is bounded
    (and shares one whole range per extent across loops and kernels), so
    a long-lived process binding many datasets cannot grow it."""
    return TileSchedule([_whole_range(int(n)) for n in extents], 1)


def as_tile_schedule(
    schedule,
    extents: Sequence[int],
    labels: Optional[Sequence[str]] = None,
    stage: str = "executor",
) -> TileSchedule:
    """``schedule`` as a checked partition of every loop's ``[0,
    extent)``: a marshalled one pays :meth:`TileSchedule.check_extents`,
    a list of tiles is flattened and checked in full."""
    if not isinstance(schedule, TileSchedule):
        return TileSchedule.from_tiles(schedule, extents, labels, stage)
    schedule.check_extents(extents)
    return schedule


__all__ = [
    "CSRLists",
    "TileSchedule",
    "as_tile_schedule",
    "trivial_schedule",
]
