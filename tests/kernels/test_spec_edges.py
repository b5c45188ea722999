"""A kernel's run-time edge sets are its spec's dependences.

The tiling guard and the sparse-tiling inspectors read the edge sets
``dependence_edges(data)`` and ``node_loop_edges(...)`` build by hand;
the planner reads the statement accesses of ``kernel_by_name(k)``.  This
test derives the edge sets from those accesses and holds the hand-built
ones to them, so a dependence the plan holds cannot go missing from the
edge sets a tiling is checked against.

The derivation: for loops ``la < lb``, each pair of accesses to one
array, with a write on either side, gives one edge set ``(src, dst)``
of the iterations of ``la`` and ``lb`` that touch one element.  Two
direct accesses touch element ``n`` in iteration ``n`` of both loops:
both sides are every iteration (``loop_iterations``).  A direct access
and an indirect one, through index array ``A`` in an interaction loop,
touch ``A[j]`` in iteration ``j`` of the interaction loop and in
iteration ``A[j]`` of the node loop: the indirect side is every
iteration, the direct side is ``A``.  Duplicates are dropped, each
pair's edge sets keep their first appearance, and the pairs are ordered
nearest first, by ``(lb - la, la)``.
"""

import numpy as np
import pytest

from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.specs import KERNEL_NAMES, kernel_by_name
from repro.runtime.steps import dependence_edges
from repro.transforms.fst import loop_iterations, node_loop_edges
from repro.uniform.mappings import build_dependences

EVERY = "every iteration"


def _side(access):
    """The index array an access reads through, or ``None`` (direct)."""
    names = access.index.uf_names()
    assert len(names) <= 1, access
    return next(iter(names), None)


def spec_edges(kernel):
    """``{(la, lb): [((src, dst), arrays)]}`` derived from the accesses;
    ``src`` / ``dst`` is :data:`EVERY` or an index array's name, and
    ``arrays`` the data arrays whose access pairs gave the edge set."""
    accesses = [
        [a for stmt in loop.statements for a in stmt.accesses]
        for loop in kernel.loops
    ]
    pairs = {}
    for la in range(len(kernel.loops)):
        for lb in range(la + 1, len(kernel.loops)):
            edge_sets = {}
            for a in accesses[la]:
                for b in accesses[lb]:
                    if a.array != b.array or not (a.kind.writes or b.kind.writes):
                        continue
                    via_a, via_b = _side(a), _side(b)
                    assert via_a is None or via_b is None, (a, b)
                    edge = (via_b or EVERY, via_a or EVERY)
                    edge_sets.setdefault(edge, []).append(a.array)
            if edge_sets:
                pairs[(la, lb)] = list(edge_sets.items())
    return {
        (la, lb): pairs[la, lb]
        for la, lb in sorted(pairs, key=lambda pair: (pair[1] - pair[0], pair[0]))
    }


def _materialize(side, data, size):
    return loop_iterations(size) if side == EVERY else getattr(data, side)


def _data(kernel):
    return make_kernel_data(kernel, generate_dataset("mol1", scale=256))


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_edge_sets_are_the_spec_dependences(kernel):
    data = _data(kernel)
    built = {
        **dependence_edges(data),
        **node_loop_edges(data.num_nodes, data.node_loop_positions()),
    }
    derived = spec_edges(kernel_by_name(kernel))
    assert list(built) == list(derived)
    sizes = data.loop_sizes()
    for (la, lb), edge_sets in derived.items():
        assert len(built[la, lb]) == len(edge_sets), (la, lb)
        for (src, dst), (sides, _) in zip(built[la, lb], edge_sets):
            want_src = _materialize(sides[0], data, sizes[la])
            want_dst = _materialize(sides[1], data, sizes[lb])
            for got, want in ((src, want_src), (dst, want_dst)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (
                    la, lb, sides,
                )


def test_moldyn_holds_its_node_pair():
    """``d(S1->S4:vx)``: ``Li`` reads ``vx[n]`` before ``Lk`` writes it."""
    derived = spec_edges(kernel_by_name("moldyn"))
    assert derived[(0, 2)] == [((EVERY, EVERY), ["vx"])]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_every_forward_dependence_is_derived(kernel):
    """Each non-reduction dependence the planner reports from an earlier
    loop to a later one is an array of a derived pair."""
    spec = kernel_by_name(kernel)
    loop_of = {
        stmt.label: pos
        for pos, loop in enumerate(spec.loops)
        for stmt in loop.statements
    }
    covered = {
        (la, lb, array)
        for (la, lb), edge_sets in spec_edges(spec).items()
        for _, arrays in edge_sets
        for array in arrays
    }
    forward = [
        dep
        for dep in build_dependences(spec)
        if not dep.is_reduction and loop_of[dep.src_stmt] < loop_of[dep.dst_stmt]
    ]
    assert forward
    for dep in forward:
        pair = (loop_of[dep.src_stmt], loop_of[dep.dst_stmt])
        assert (*pair, dep.array) in covered, dep.name
