#!/usr/bin/env python
"""Extending the framework: plug in a custom run-time data reordering.

A downstream user adds a new reordering heuristic by defining one step
class and registering it in the step table.  For a data reordering the
``DataReorderStep`` shell needs only the run-time inspector
(``reorder``); the class also declares its plan-spec name, its dataflow
traits and (optionally) a code generator.  Everything else — plan specs,
linting, legality checking, composition with the built-in
transformations, index-array adjustment, the remap policy, verification —
comes from that one definition.

The example heuristic is *degree-sorted packing*: order node data by
descending degree in the interaction graph (hub data first), a simple
cousin of the paper's space-filling-curve reorderings.
"""

import numpy as np

from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime import plan_from_spec
from repro.runtime.steps import DataReorderStep, register
from repro.runtime.verify import verify_dependences, verify_numeric_equivalence
from repro.transforms.base import TransformTraits, permutation_from_order


@register
class DegreeSortStep(DataReorderStep):
    """Data reordering: pack node records by descending degree."""

    name = "degsort"  # the stage name (reports, plan names)
    spec_type = "degsort"  # the plan-spec ``type``
    symbol_prefix = "ds"  # the symbolic UFS: ds0, ds1, ...
    # Reads only the index values (degrees do not depend on any order),
    # writes the node space: the linter and analyzer thread these.
    traits = TransformTraits(
        "data",
        reads=("index_values",),
        writes=("node_space",),
        order_sensitive=False,
    )

    def reorder(self, state, counter):
        data = state.data
        degree = np.bincount(
            np.concatenate([data.left, data.right]), minlength=data.num_nodes
        )
        counter["touches"] = 2 * 2 * data.num_inter + data.num_nodes
        order = np.argsort(-degree, kind="stable")  # order[new] = old
        return permutation_from_order(f"ds{state.current_index}", order)


def main() -> None:
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=256))

    plan = plan_from_spec(
        {"kernel": "moldyn", "steps": ["degsort", "lexgroup"]}
    )
    plan.plan()  # legality: data reorderings always pass, lexGroup checked
    print(plan.describe())
    print(plan.analyze().describe())

    result = plan.bind(data)
    verify_numeric_equivalence(data, result)
    checked = verify_dependences(data, result, plan, num_steps=2, max_pairs=500)
    print(f"numeric equivalence OK; {checked} dependence pairs verified")

    degree = np.bincount(
        np.concatenate([data.left, data.right]), minlength=data.num_nodes
    )
    new_degree = result.sigma_nodes.apply_to_data(degree)
    assert (np.diff(new_degree) <= 0).all(), "degrees must be non-increasing"
    print(
        "after degsort, node 0 has degree "
        f"{new_degree[0]} and node {data.num_nodes - 1} has degree "
        f"{new_degree[-1]}"
    )


if __name__ == "__main__":
    main()
