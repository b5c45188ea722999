"""Concrete run-time kernel instances.

A :class:`KernelData` bundles everything an inspector/executor needs at
run time: the index arrays (``left``/``right``), the node payload arrays,
extents, and layout metadata (record sizes after inter-array regrouping).
It deliberately mirrors the compile-time :class:`~repro.uniform.kernel.Kernel`
spec of the same name (:func:`repro.kernels.specs.kernel_by_name`), and
reads its loop shape and record bytes from that spec: they are facts of
the kernel, computed once per kernel name, not fields of an instance.

Facts that depend only on an instance's content — its content
fingerprints and its validation verdicts — are derived once per
instance through :meth:`KernelData.derived`, which freezes the arrays
they were derived from: nothing writes a ``KernelData`` in place once a
fact about it exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Hashable, List, Tuple

import numpy as np

from repro.kernels.datasets import Dataset
from repro.kernels.specs import INTERACTION_RECORD_BYTES, kernel_by_name
from repro.transforms.base import AccessMap


@dataclass(frozen=True)
class LoopDesc:
    """Run-time view of one loop: label and which space it iterates."""

    label: str
    domain: str  # "nodes" or "inters"


@functools.lru_cache(maxsize=None)
def _layout(kernel_name: str) -> Tuple[Tuple[LoopDesc, ...], int]:
    """A kernel's loops and the bytes of its regrouped node record, read
    from its spec once per kernel."""
    spec = kernel_by_name(kernel_name)
    loops = tuple(LoopDesc(loop.label, loop.domain) for loop in spec.loops)
    return loops, sum(a.element_bytes for a in spec.data_arrays.values())


#: ``KernelData._derived_from`` before any fact: (scalar fields, left,
#: right, payload dict) that match no instance.
_NOTHING_DERIVED = (None, None, None, {})


@dataclass
class KernelData:
    """A bound benchmark instance (index arrays + payload + layout)."""

    kernel_name: str
    dataset_name: str
    num_nodes: int
    left: np.ndarray
    right: np.ndarray
    #: Node payload arrays, keyed like the kernel spec's data arrays.
    arrays: Dict[str, np.ndarray]
    #: Bytes per interaction record, the same for every kernel.
    inter_record_bytes: ClassVar[int] = INTERACTION_RECORD_BYTES
    #: Derived facts (see :meth:`derived`) and what they were derived
    #: from; never copied, compared or pickled.
    _facts: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _derived_from: Tuple = field(
        default=_NOTHING_DERIVED, init=False, repr=False, compare=False
    )

    def derived(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The fact ``key`` about this instance, computed at most once.

        The first fact derived freezes ``left``, ``right`` and every
        payload array (``flags.writeable = False``), so an in-place write
        that would make a remembered fact stale raises instead.  Binding
        a new object to a field (``data.left = ...``, a changed
        ``arrays`` dict, another ``num_nodes``) drops every fact and
        freezes the new arrays.  ``compute`` reads nothing but this
        instance, so two threads that derive one fact at once may both
        compute it, and either result is the fact."""
        fields, left, right, payload = self._derived_from
        if not (
            fields == self._scalar_fields()
            and left is self.left
            and right is self.right
            and payload.keys() == self.arrays.keys()
            and all(self.arrays[name] is array for name, array in payload.items())
        ):
            self._facts = {}
            self._derived_from = (
                self._scalar_fields(), self.left, self.right, dict(self.arrays)
            )
            for array in (self.left, self.right, *self.arrays.values()):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def _scalar_fields(self) -> Tuple:
        return (self.kernel_name, self.dataset_name, self.num_nodes)

    def __getstate__(self):
        return {**self.__dict__, "_facts": {}, "_derived_from": _NOTHING_DERIVED}

    @property
    def loops(self) -> Tuple[LoopDesc, ...]:
        """The kernel's loops, in program order."""
        return _layout(self.kernel_name)[0]

    @property
    def node_record_bytes(self) -> int:
        """Bytes of one node record after inter-array regrouping."""
        return _layout(self.kernel_name)[1]

    @property
    def num_inter(self) -> int:
        return len(self.left)

    def interaction_access_map(self) -> AccessMap:
        """Iterations of the interaction loop -> node locations touched."""
        return AccessMap.from_columns([self.left, self.right], self.num_nodes)

    def loop_sizes(self) -> List[int]:
        return [
            self.num_nodes if l.domain == "nodes" else self.num_inter
            for l in self.loops
        ]

    def interaction_loop_position(self) -> int:
        for pos, loop in enumerate(self.loops):
            if loop.domain == "inters":
                return pos
        raise ValueError("kernel has no interaction loop")

    def node_loop_positions(self) -> List[int]:
        return [p for p, l in enumerate(self.loops) if l.domain == "nodes"]

    def copy(self) -> "KernelData":
        return KernelData(
            kernel_name=self.kernel_name,
            dataset_name=self.dataset_name,
            num_nodes=self.num_nodes,
            left=self.left.copy(),
            right=self.right.copy(),
            arrays={k: v.copy() for k, v in self.arrays.items()},
        )

    def symbols(self) -> Dict[str, int]:
        """Symbol bindings for the compile-time specs of this kernel."""
        return {"num_nodes": self.num_nodes, "num_inter": self.num_inter}

    def __repr__(self):
        return (
            f"KernelData({self.kernel_name!r}, {self.dataset_name!r}, "
            f"nodes={self.num_nodes}, inters={self.num_inter})"
        )


def make_kernel_data(
    kernel_name: str, dataset: Dataset, seed: int = 42
) -> KernelData:
    """Instantiate a benchmark on a dataset with random initial payload."""
    spec = kernel_by_name(kernel_name)
    rng = np.random.default_rng(seed)
    arrays = {
        name: rng.random(dataset.num_nodes)
        for name in spec.data_arrays
    }
    return KernelData(
        kernel_name=kernel_name,
        dataset_name=dataset.name,
        num_nodes=dataset.num_nodes,
        left=dataset.left.astype(np.int64),
        right=dataset.right.astype(np.int64),
        arrays=arrays,
    )
