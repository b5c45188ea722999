"""Stable content fingerprints for datasets, steps, and plans.

The plan cache is *content-addressed*: a cache key is the SHA-256 digest
of everything the composed inspector's output depends on —

* the **dataset** — the index arrays (``left``/``right``), their dtype,
  the extents, the loop structure, and the record layout.  The node
  *payload values* are deliberately excluded: inspectors only ever
  traverse index arrays, and a cached result is re-applied to whatever
  payload the caller binds (see :mod:`repro.plancache.memo`);
* the **composition** — each step's class and parameters (including any
  embedded arrays, e.g. a space-filling step's coordinates), the data
  remap policy, and the stage-failure policy;
* a **code-version salt** — a digest of the transform, inspector and
  entry-layout sources, so editing an inspector algorithm or the layout
  silently invalidates every entry it produced (the stale entry's key
  simply becomes unreachable).

Fingerprints are hex strings, stable across processes and machines for
identical content.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Optional

import numpy as np

#: Extra salt mixed into :func:`code_version_salt`.  Tests assign the
#: module attribute to force a cold cache without touching source files.
SALT_EXTRA = ""

#: Modules whose source feeds the code-version salt: the reordering
#: algorithms, the step table and composed inspector that drive them,
#: the entry layout cached binds are stored in, and the lowering tier
#: whose compiled executors cached binds rehydrate into.
_SALT_MODULE_NAMES = (
    "repro.transforms",
    "repro.runtime.steps",
    "repro.runtime.inspector",
    "repro.plancache.memo",
    "repro.lowering",
)

_code_salt_cache: Optional[str] = None


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def _update(h, *fields) -> None:
    """Feed tagged, length-prefixed fields so boundaries are unambiguous."""
    for field in fields:
        if isinstance(field, np.ndarray):
            arr = np.ascontiguousarray(field)
            blob = arr.tobytes()
            tag = f"ndarray:{arr.dtype.str}:{arr.shape}:{len(blob)}:"
            h.update(tag.encode())
            h.update(blob)
        else:
            text = str(field)
            h.update(f"str:{len(text)}:{text}".encode())


def array_fingerprint(array: np.ndarray) -> str:
    """Digest of one array's dtype, shape, and raw bytes."""
    h = _hasher()
    _update(h, array)
    return h.hexdigest()


def index_digests(left, right, sigma) -> Dict[str, str]:
    """Digests of a bind's served index state: the transformed
    ``left``/``right`` and the total node data reordering ``sigma``."""
    return {
        "left": array_fingerprint(left),
        "right": array_fingerprint(right),
        "sigma": array_fingerprint(sigma),
    }


def payload_digests(arrays) -> Dict[str, str]:
    """Digests of a bind's reordered payload arrays, ``payload:<name>``
    in name order."""
    return {
        f"payload:{name}": array_fingerprint(arrays[name])
        for name in sorted(arrays)
    }


def _module_sources() -> Iterable[bytes]:
    """Source bytes of every salt module (submodules of packages too)."""
    import importlib
    import pkgutil

    for name in _SALT_MODULE_NAMES:
        module = importlib.import_module(name)
        paths = getattr(module, "__path__", None)
        names = [name]
        if paths is not None:  # a package: walk its submodules
            names += sorted(
                f"{name}.{info.name}"
                for info in pkgutil.iter_modules(paths)
            )
        for sub in names:
            sub_module = importlib.import_module(sub)
            source_file = getattr(sub_module, "__file__", None)
            if source_file and os.path.exists(source_file):
                with open(source_file, "rb") as fh:
                    yield sub.encode()
                    yield fh.read()


def _executor_backend_tag() -> str:
    """The active executor backend plus (for ``c``) the toolchain id.

    Mixed into the salt *fresh on every call* — ``REPRO_EXECUTOR_BACKEND``
    can change between binds within one process, and a plan cached under
    the C backend must never rehydrate into a mismatched interpreter-
    backend bind (their executors are bit-identical by construction, but
    the bind carries backend-specific artifacts and provenance).
    """
    from repro.lowering.executor import resolve_executor_backend

    backend = resolve_executor_backend(warn=False).backend
    if backend == "c":
        from repro.lowering import toolchain

        return f"executor:{backend}:{toolchain.toolchain_fingerprint()}"
    return f"executor:{backend}"


def code_version_salt() -> str:
    """Digest of the transform/inspector/lowering sources, the active
    executor backend (+ toolchain fingerprint), and ``SALT_EXTRA``.

    The source digest is computed once per process; a source edit changes
    it in the next process, so every previously cached plan
    self-invalidates (its key is never generated again).  The backend tag
    is re-read every call so flipping ``REPRO_EXECUTOR_BACKEND``
    mid-process also misses.
    """
    global _code_salt_cache
    if _code_salt_cache is None:
        h = _hasher()
        for blob in _module_sources():
            h.update(blob)
        _code_salt_cache = h.hexdigest()
    h = _hasher()
    _update(h, _code_salt_cache, _executor_backend_tag(), SALT_EXTRA)
    return h.hexdigest()


def dataset_fingerprint(data, include_payload: bool = False) -> str:
    """Digest of a :class:`~repro.kernels.data.KernelData` instance.

    Covers the index arrays, extents, dtypes, loop structure, and record
    layout.  With ``include_payload`` the node payload *values* are mixed
    in too — required by the verification memo (executor output depends
    on payload), not by the inspector cache (inspectors do not).

    Each digest is a derived fact of the instance
    (:meth:`~repro.kernels.data.KernelData.derived`): a served handle is
    hashed on every request, but each instance is hashed once.  Both
    digests continue one derived hash state over everything but the
    payload (:func:`_structure_hash`), so a delta-bind's verification
    memo key does not hash again the multi-megabyte index arrays its
    bind key hashed.  Deriving a digest freezes the instance's arrays,
    so an in-place write raises instead of leaving a stale digest behind.
    """
    return data.derived(
        ("fingerprint", include_payload),
        lambda: _dataset_digest(data, include_payload),
    )


def _dataset_digest(data, include_payload: bool) -> str:
    h = data.derived("structure-hash", lambda: _structure_hash(data)).copy()
    for name in sorted(data.arrays):
        _update(h, "payload-name", name)
        if include_payload:
            _update(h, data.arrays[name])
    return h.hexdigest()


def _structure_hash(data) -> "hashlib._Hash":
    """The hash state after the extents, loop structure, record layout
    and index arrays: the common prefix of both dataset digests, which
    each continues on a copy."""
    h = _hasher()
    _update(
        h,
        "kernel", data.kernel_name,
        "num_nodes", data.num_nodes,
        "node_record_bytes", data.node_record_bytes,
        "inter_record_bytes", data.inter_record_bytes,
    )
    for loop in data.loops:
        _update(h, "loop", loop.label, loop.domain)
    _update(h, "left", data.left, "right", data.right)
    return h


def step_fingerprint(step) -> str:
    """Digest of one step: its class plus every constructor parameter.

    Parameters are discovered generically from the instance ``__dict__``
    (sorted), so new step types participate without registration; ndarray
    parameters (e.g. space-filling coordinates) hash by content.
    """
    h = _hasher()
    _update(h, "step", type(step).__module__, type(step).__qualname__)
    for key in sorted(vars(step)):
        value = vars(step)[key]
        _update(h, "param", key)
        if isinstance(value, np.ndarray):
            _update(h, value)
        else:
            _update(h, repr(value))
    return h.hexdigest()


def inspector_fingerprint(
    steps, remap: str, on_stage_failure: str, salt: Optional[str] = None
) -> str:
    """Digest of a composed inspector: steps + policies + code salt
    (``salt``, when the caller already read :func:`code_version_salt`)."""
    h = _hasher()
    _update(h, "remap", remap, "on_stage_failure", on_stage_failure)
    _update(h, "salt", code_version_salt() if salt is None else salt)
    for step in steps:
        _update(h, step_fingerprint(step))
    return h.hexdigest()


def stage_fingerprints(
    steps, data, remap: str, on_stage_failure: str
) -> List[str]:
    """The stage-memo key of each stage: one chain over the step prefix.

    Stage ``k``'s inspector walks the index arrays as steps ``0..k-1``
    left them, so its output depends on the dataset, the failure policy
    and steps ``0..k`` alone: ``fp[k+1] = combine(fp[k], step k)``.  The
    remap policy only decides when the payload moves, so it joins the
    chain at the first step whose declared ``traits.reads`` name the
    payload — none of the built-in steps, every step that declares
    nothing (:data:`~repro.transforms.base.CONSERVATIVE_TRAITS`).
    """
    fp = combine(
        "stages", code_version_salt(), dataset_fingerprint(data), on_stage_failure
    )
    keys = []
    for step in steps:
        link = step_fingerprint(step)
        if "payload" in step.traits.reads:
            link = combine(link, "remap", remap)
        fp = combine(fp, link)
        keys.append(fp)
    return keys


def plan_fingerprint(plan) -> str:
    """Digest of a :class:`~repro.runtime.plan.CompositionPlan`,
    memoised on the plan per code-version salt
    (:meth:`~repro.runtime.plan.CompositionPlan.fingerprint`)."""
    return plan.fingerprint()


def plan_digest(plan, salt: str) -> str:
    """Hash ``plan``'s kernel, steps and policies under ``salt``."""
    h = _hasher()
    _update(h, "kernel", plan.kernel.name)
    _update(
        h,
        inspector_fingerprint(
            plan.steps, plan.remap, plan.on_stage_failure, salt
        ),
    )
    return h.hexdigest()


def combine(*fingerprints: str) -> str:
    """Combine digests into one key (order-sensitive)."""
    h = _hasher()
    _update(h, "combine", *fingerprints)
    return h.hexdigest()


def bind_fingerprint(plan, data) -> str:
    """The cache key of ``plan.bind(data)``: plan x dataset content."""
    return combine(plan_fingerprint(plan), dataset_fingerprint(data))


def verification_fingerprint(plan, data, num_steps: int) -> str:
    """Memo key for the numeric verifier — payload-sensitive.

    The verifier compares actual executor *outputs*, which depend on the
    payload values, so — unlike the inspector cache key — this digest
    includes them.
    """
    return combine(
        plan_fingerprint(plan),
        dataset_fingerprint(data, include_payload=True),
        str(num_steps),
    )


__all__ = [
    "array_fingerprint",
    "bind_fingerprint",
    "code_version_salt",
    "combine",
    "dataset_fingerprint",
    "index_digests",
    "inspector_fingerprint",
    "payload_digests",
    "plan_digest",
    "plan_fingerprint",
    "stage_fingerprints",
    "step_fingerprint",
    "verification_fingerprint",
    "SALT_EXTRA",
]
