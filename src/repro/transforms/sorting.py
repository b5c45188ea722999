"""Bounded-key sorting primitives: the inspectors' linear passes.

Every inspector in this package sorts or groups by keys that are ids
into a known space — node ids below ``num_nodes``, tile ids below
``num_tiles`` — so none of them needs a comparison sort.  The paper's
inspectors are written that way (Figure 10's CPACK is one walk of the
access stream with an ``alreadyOrdered`` bit vector, lexGroup is a
bucket sort) and the overhead model charges them that way; the three
functions here are what makes the running code match:

* :func:`stable_argsort` — LSD radix sort over 16-bit digits.  NumPy's
  stable sort of a 16-bit integer array *is* a radix sort, so each digit
  pass is one ``argsort`` call and the pass count comes from ``upper``.
* :func:`group_by` — the counting sort that turns a label array into
  CSR form (members of every group in ascending position + offsets):
  edge list -> adjacency, tile labels -> ``sched(t, l)``.
* :func:`first_touch_order` — distinct values in order of first
  occurrence in ``O(n + upper)``: Figure 10 itself.

:func:`distinct_edges` (sorted, duplicate-free edge pairs) sits beside
them because the two tile-graph builders share it.

All of them check ``0 <= key < upper`` once (one min / max) and raise a
:class:`~repro.errors.ValidationError` — a ``ValueError`` — naming the
array and the first offending position: a key outside the range would
otherwise wrap in the narrowing cast or index from the wrong end.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ValidationError

_DIGIT_BITS = 16


def bounded_keys(keys, upper: int, what: str = "keys") -> np.ndarray:
    """``keys`` as a 1-D ``int64`` array, every entry in ``[0, upper)``."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValidationError(f"{what} must be 1-D, got shape {keys.shape}")
    if not keys.size:
        return np.empty(0, dtype=np.int64)
    if not np.issubdtype(keys.dtype, np.integer):
        raise ValidationError(f"{what} must hold integers, got {keys.dtype}")
    # min / max in the array's own dtype: nothing has been narrowed yet.
    if int(keys.min()) < 0 or int(keys.max()) >= upper:
        pos = int(np.flatnonzero((keys < 0) | (keys >= upper))[0])
        raise ValidationError(
            f"{what}[{pos}] = {int(keys[pos])} is outside [0, {upper})",
            indices=[pos],
        )
    return keys.astype(np.int64, copy=False)


def _radix_argsort(keys: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of checked ``int64`` keys below ``upper``: one
    pass per 16-bit digit of ``upper - 1``, lowest first (the cast to
    ``uint16`` keeps a key's low 16 bits)."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while (upper - 1) >> shift > 0:
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += _DIGIT_BITS
    return order


def stable_argsort(keys, upper: int, what: str = "keys") -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, upper)``,
    in ``ceil(log2(upper) / 16)`` linear passes."""
    return _radix_argsort(bounded_keys(keys, upper, what), upper)


def group_by(
    labels, num_groups: int, what: str = "labels"
) -> Tuple[np.ndarray, np.ndarray]:
    """Counting sort of positions by label: ``(order, offsets)``.

    Group ``g`` is ``order[offsets[g]:offsets[g + 1]]`` — the positions
    labelled ``g``, ascending.  With ``labels`` the source endpoints of
    an edge list, ``targets[order]`` and ``offsets`` are its CSR
    adjacency.
    """
    if num_groups < 0:
        raise ValidationError(f"{what}: group count {num_groups} < 0")
    labels = bounded_keys(labels, num_groups, what)
    offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=num_groups), out=offsets[1:])
    return _radix_argsort(labels, num_groups), offsets


def first_touch_order(values, upper: int, what: str = "values") -> np.ndarray:
    """The distinct entries of ``values`` in order of first occurrence.

    Two scatters, no sort.  Writing positions back to front leaves every
    value's *first* position in ``first`` (an indexed assignment with
    repeated indices keeps the last write); the positions that survive
    are then marked and read off in stream order.
    """
    values = bounded_keys(values, upper, what)
    n = len(values)
    first = np.full(upper, n, dtype=np.int64)  # n: never touched
    first[values[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    is_first = np.zeros(n + 1, dtype=bool)
    is_first[first] = True
    return values[is_first[:n]]


def distinct_edges(
    src, dst, num_nodes: int, what: str = "edge"
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(src, dst)`` pairs, sorted by ``(src, dst)``.

    One sort of the packed ``src * num_nodes + dst`` keys plus an
    adjacent compare — the irredundant flows between tiles.  The keys
    reach ``num_nodes ** 2``, too wide for a few 16-bit digit passes to
    beat ``np.sort`` on them.
    """
    src = bounded_keys(src, num_nodes, f"{what} sources")
    dst = bounded_keys(dst, num_nodes, f"{what} targets")
    if src.shape != dst.shape:
        raise ValidationError(f"{what} endpoint arrays must align")
    if not len(src):
        return src, dst
    keys = np.sort(src * np.int64(num_nodes) + dst)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys // num_nodes, keys % num_nodes


__all__ = [
    "bounded_keys",
    "distinct_edges",
    "first_touch_order",
    "group_by",
    "stable_argsort",
]
