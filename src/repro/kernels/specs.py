"""Compile-time kernel IR for the three benchmarks.

All three share the irregular-kernel shape of the paper's Figure 1 — an
outer time loop around (i) a gather/update sweep over nodes, (ii) an
interaction loop indexing nodes through ``left``/``right`` index arrays,
and (iii) a second node sweep — but differ in how much data each node
carries (which is what separates their cache behavior, Section 2.4):

=========  ==========================  =======================
benchmark  node payload                record bytes (regrouped)
=========  ==========================  =======================
moldyn     x,y,z, vx,vy,vz, fx,fy,fz   72 (9 doubles)
nbf        position + force + charge    32 (4 doubles)
irreg      value + residual             16 (2 doubles)
=========  ==========================  =======================

The paper: "for each molecule 72 bytes of data are stored. On the Pentium
4, the cache line is only 64 bytes long. Therefore, the data reordering
transformations which improve spatial locality have less effect" — the
record-byte column is the knob that reproduces that observation.

Baseline and transformed executors both use inter-array data regrouping
(Ding & Kennedy [8]), so the node payload is modeled as one record; the
``element_bytes`` of each :class:`~repro.uniform.kernel.DataArraySpec`
carries the per-array share, and a record's bytes are their sum.
"""

from __future__ import annotations

from typing import Dict

from repro.presburger.terms import AffineExpr, var
from repro.uniform.kernel import (
    DataArraySpec,
    IndexArraySpec,
    Kernel,
    Loop,
    Statement,
    read,
    reduce_into,
    write,
)

#: Bytes per interaction record (two int32 endpoints).
INTERACTION_RECORD_BYTES = 8


def moldyn_kernel() -> Kernel:
    """The simplified moldyn kernel of the paper's Figure 1 (0-based).

    ``x`` stands for the regrouped position record (x,y,z + velocities
    feed in), ``fx`` for the force record::

        do s:
          do i: x[i] += vx[i] + fx[i]                         (S1)
          do j: fx[left[j]]  += g(x[left[j]], x[right[j]])    (S2)
                fx[right[j]] += g(x[left[j]], x[right[j]])    (S3)
          do k: vx[k] += fx[k]                                (S4)
    """
    xl = AffineExpr.ufs("left", var("j"))
    xr = AffineExpr.ufs("right", var("j"))
    return Kernel(
        "moldyn",
        loops=[
            Loop("Li", "i", "num_nodes", [
                Statement("S1", [reduce_into("x", "i"), read("vx", "i"), read("fx", "i")]),
            ]),
            Loop("Lj", "j", "num_inter", [
                Statement("S2", [reduce_into("fx", xl), read("x", xl), read("x", xr)]),
                Statement("S3", [reduce_into("fx", xr), read("x", xl), read("x", xr)]),
            ]),
            Loop("Lk", "k", "num_nodes", [
                Statement("S4", [reduce_into("vx", "k"), read("fx", "k")]),
            ]),
        ],
        data_arrays=[
            DataArraySpec("x", "num_nodes", element_bytes=24),
            DataArraySpec("vx", "num_nodes", element_bytes=24),
            DataArraySpec("fx", "num_nodes", element_bytes=24),
        ],
        index_arrays=[
            IndexArraySpec("left", "num_inter", "num_nodes"),
            IndexArraySpec("right", "num_inter", "num_nodes"),
        ],
    )


def nbf_kernel() -> Kernel:
    """Non-bonded force kernel (GROMOS-style partner lists).

    Partner list pairs ``(left[j], right[j])`` accumulate forces from
    pairwise interactions of charged particles; a node sweep then
    integrates.  Structurally the moldyn shape with a lighter payload and
    no leading node sweep::

        do s:
          do j: f[left[j]]  += q(x[left[j]], x[right[j]])    (S1)
                f[right[j]] -= q(x[left[j]], x[right[j]])    (S2)
          do k: x[k] += f[k]                                 (S3)
    """
    xl = AffineExpr.ufs("left", var("j"))
    xr = AffineExpr.ufs("right", var("j"))
    return Kernel(
        "nbf",
        loops=[
            Loop("Lj", "j", "num_inter", [
                Statement("S1", [reduce_into("f", xl), read("x", xl), read("x", xr)]),
                Statement("S2", [reduce_into("f", xr), read("x", xl), read("x", xr)]),
            ]),
            Loop("Lk", "k", "num_nodes", [
                Statement("S3", [reduce_into("x", "k"), read("f", "k")]),
            ]),
        ],
        data_arrays=[
            DataArraySpec("x", "num_nodes", element_bytes=16),
            DataArraySpec("f", "num_nodes", element_bytes=16),
        ],
        index_arrays=[
            IndexArraySpec("left", "num_inter", "num_nodes"),
            IndexArraySpec("right", "num_inter", "num_nodes"),
        ],
    )


def irreg_kernel() -> Kernel:
    """Irregular CFD mesh relaxation (the classic ``irreg`` kernel).

    Edge sweep computing fluxes into a residual, then a node sweep applying
    the residual::

        do s:
          do j: y[n1[j]] += w(x[n1[j]], x[n2[j]])            (S1)
                y[n2[j]] += w(x[n1[j]], x[n2[j]])            (S2)
          do k: x[k] += y[k]                                 (S3)
    """
    x1 = AffineExpr.ufs("left", var("j"))
    x2 = AffineExpr.ufs("right", var("j"))
    return Kernel(
        "irreg",
        loops=[
            Loop("Lj", "j", "num_inter", [
                Statement("S1", [reduce_into("y", x1), read("x", x1), read("x", x2)]),
                Statement("S2", [reduce_into("y", x2), read("x", x1), read("x", x2)]),
            ]),
            Loop("Lk", "k", "num_nodes", [
                Statement("S3", [reduce_into("x", "k"), read("y", "k")]),
            ]),
        ],
        data_arrays=[
            DataArraySpec("x", "num_nodes", element_bytes=8),
            DataArraySpec("y", "num_nodes", element_bytes=8),
        ],
        index_arrays=[
            IndexArraySpec("left", "num_inter", "num_nodes"),
            IndexArraySpec("right", "num_inter", "num_nodes"),
        ],
    )


#: Scalar statement bodies, written over the loop index variables of the
#: IR: each kernel's arithmetic, defined here and nowhere else.
#: :func:`repro.lowering.ir.lower_kernel` parses them, and every executor
#: tier is emitted from the result.
STATEMENT_CODE = {
    "moldyn": {
        "S1": "x[i] = x[i] + 0.01 * vx[i] + 0.0005 * fx[i]",
        "S2": "fx[left[j]] = fx[left[j]] + (x[left[j]] - x[right[j]])",
        "S3": "fx[right[j]] = fx[right[j]] - (x[left[j]] - x[right[j]])",
        "S4": "vx[k] = vx[k] + 0.5 * fx[k]",
    },
    "nbf": {
        "S1": "f[left[j]] = f[left[j]] + 0.25 * x[left[j]] * x[right[j]]",
        "S2": "f[right[j]] = f[right[j]] - 0.25 * x[left[j]] * x[right[j]]",
        "S3": "x[k] = x[k] + 0.1 * f[k]",
    },
    "irreg": {
        "S1": "y[left[j]] = y[left[j]] + 0.5 * (x[left[j]] + x[right[j]])",
        "S2": "y[right[j]] = y[right[j]] + 0.5 * (x[left[j]] + x[right[j]])",
        "S3": "x[k] = x[k] + 0.01 * y[k]",
    },
}

_BUILDERS = {
    "moldyn": moldyn_kernel,
    "nbf": nbf_kernel,
    "irreg": irreg_kernel,
}

#: Every benchmark kernel, in the paper's order.
KERNEL_NAMES = tuple(_BUILDERS)


#: The one built kernel of each name, built on first request.
_KERNELS: Dict[str, Kernel] = {}


def kernel_by_name(name: str) -> Kernel:
    """The benchmark kernel IR named ``name`` ('moldyn', 'nbf', 'irreg').

    One immutable :class:`~repro.uniform.kernel.Kernel` per name: the IR
    is built on the first request and every later one shares it."""
    from repro.errors import BindError

    kernel = _KERNELS.get(name)
    if kernel is not None:
        return kernel
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise BindError(
            f"unknown kernel {name!r}",
            stage="kernel_by_name",
            hint=f"choose from {sorted(_BUILDERS)}",
        ) from None
    return _KERNELS.setdefault(name, builder())
