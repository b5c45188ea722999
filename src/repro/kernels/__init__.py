"""Benchmark kernels: moldyn, nbf, irreg (Han & Tseng's suite).

Each benchmark exists in two coupled forms:

* a **compile-time spec** (:mod:`repro.kernels.specs`) — the kernel IR fed
  to the unified-iteration-space framework, plus the statement bodies
  every executor tier is emitted from: the one definition of the kernel;
* a **run-time instance** (:mod:`repro.kernels.data`) — concrete index
  arrays, data arrays and extents; its loop shape and record bytes (after
  inter-array data regrouping) are read from the spec.

:mod:`repro.kernels.datasets` generates synthetic stand-ins for the paper's
four inputs (mol1, mol2, foil, auto) with matching node:edge ratios and
scrambled orderings; see DESIGN.md for the substitution rationale.
"""

from repro.kernels.specs import irreg_kernel, moldyn_kernel, nbf_kernel, kernel_by_name
from repro.kernels.data import KernelData, make_kernel_data
from repro.kernels.datasets import (
    DATASETS,
    Dataset,
    generate_dataset,
    mesh2d_interactions,
    random_geometric_interactions,
    scramble_labels,
)

__all__ = [
    "moldyn_kernel",
    "nbf_kernel",
    "irreg_kernel",
    "kernel_by_name",
    "KernelData",
    "make_kernel_data",
    "DATASETS",
    "Dataset",
    "generate_dataset",
    "random_geometric_interactions",
    "mesh2d_interactions",
    "scramble_labels",
]
