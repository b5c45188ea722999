"""Bind-time validation of datasets and index arrays.

The composed inspector trusts its inputs completely: ``left``/``right``
index straight into the payload arrays, and every stage's σ/δ is applied
to all downstream state.  This module is the gate in front of that trust —
it checks a dataset (or a bound :class:`~repro.kernels.data.KernelData`)
*before* any inspector touches it, and individual index arrays as stages
produce them.

Checks and their severity:

==========================  ========  =======================================
check                       severity  meaning
==========================  ========  =======================================
index arrays not 1-D        fatal     cannot be interpreted at all
ragged left/right           fatal     interactions must pair endpoints
out-of-range / negative     fatal     reads/writes outside the payload
non-integer index dtype     error*    float/object endpoints (``*`` coerced
                                      under ``permissive`` when integral)
empty node domain           error*    no nodes (``*`` warning when there are
                                      also no interactions — empty but
                                      consistent)
empty interaction domain    warning   legal, but every reordering is a no-op
duplicate edges             warning   legal (multigraph) but usually a bug
self-loop edges             warning   legal; noted for diagnostics
non-finite payload          warning   NaN/Inf propagate through executors
==========================  ========  =======================================

Under the ``strict`` policy every *error or warning* raises a
:class:`~repro.errors.ValidationError`; under ``permissive`` only fatals
and errors raise, warnings are collected in the returned
:class:`ValidationReport` (and integral float index arrays are accepted).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.transforms.sorting import stable_argsort

#: Recognised validation policies.
POLICIES = ("strict", "permissive")

#: How many offending positions a finding names.
MAX_REPORTED = 5


def _check_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise ValidationError(
            f"unknown validation policy {policy!r}",
            hint=f"choose one of {POLICIES}",
        )
    return policy


@dataclass
class Finding:
    """One validation issue: what, where, and how bad."""

    check: str  #: machine-readable check name, e.g. "out-of-range"
    severity: str  #: "fatal" | "error" | "warning"
    message: str
    array: Optional[str] = None  #: offending array name
    indices: List[int] = field(default_factory=list)

    def __str__(self) -> str:
        where = f" in {self.array!r}" if self.array else ""
        idx = f" at indices {self.indices}" if self.indices else ""
        return f"[{self.severity}] {self.check}{where}: {self.message}{idx}"


@dataclass
class ValidationReport:
    """Everything validation found, plus the policy verdict."""

    subject: str
    policy: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def fatal(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fatal"]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """Does the subject pass under the report's policy?"""
        if self.policy == "strict":
            return not self.findings
        return not (self.fatal or self.errors)

    def describe(self) -> str:
        lines = [
            f"validation of {self.subject} under policy {self.policy!r}: "
            + ("OK" if self.ok else "FAILED")
        ]
        for finding in self.findings:
            lines.append(f"  {finding}")
        if not self.findings:
            lines.append("  no findings")
        return "\n".join(lines)

    def raise_if_failed(self, stage: Optional[str] = None) -> "ValidationReport":
        """Raise a :class:`ValidationError` summarizing the decisive findings."""
        if self.ok:
            return self
        decisive = (
            self.findings
            if self.policy == "strict"
            else (self.fatal + self.errors)
        )
        first = decisive[0]
        more = f" (+{len(decisive) - 1} more findings)" if len(decisive) > 1 else ""
        raise ValidationError(
            f"{self.subject} failed {self.policy} validation: {first.check}"
            + (f" in {first.array!r}" if first.array else "")
            + f": {first.message}{more}",
            stage=stage,
            indices=first.indices,
            hint="run `python -m repro doctor` for the full report, or "
            "rerun with --permissive to downgrade warnings",
        )


def _positions(mask: np.ndarray) -> List[int]:
    return np.flatnonzero(mask)[:MAX_REPORTED].tolist()


def check_index_array(
    values,
    upper: int,
    name: str,
    policy: str = "strict",
) -> List[Finding]:
    """Findings for one index array whose values must lie in ``[0, upper)``."""
    _check_policy(policy)
    findings: List[Finding] = []
    arr = np.asarray(values)
    if arr.ndim != 1:
        findings.append(
            Finding(
                "bad-shape", "fatal",
                f"index array must be 1-D, got shape {arr.shape}", name,
            )
        )
        return findings
    if not np.issubdtype(arr.dtype, np.integer):
        integral = np.issubdtype(arr.dtype, np.floating) and bool(
            np.all(np.isfinite(arr)) and np.all(arr == np.floor(arr))
        )
        severity = "warning" if (integral and policy == "permissive") else "error"
        findings.append(
            Finding(
                "dtype-mismatch", severity,
                f"index dtype {arr.dtype} is not an integer type"
                + (" (integral values, coercible)" if integral else ""),
                name,
            )
        )
        if severity == "error":
            return findings
        arr = arr.astype(np.int64)
    bad = (arr < 0) | (arr >= upper)
    if bad.any():
        positions = _positions(bad)
        sample = [int(arr[p]) for p in positions]
        findings.append(
            Finding(
                "out-of-range", "fatal",
                f"{int(bad.sum())} values outside [0, {upper}), "
                f"first offenders {sample}", name, positions,
            )
        )
    return findings


def check_permutation(
    values, n: int, name: str, policy: str = "strict"
) -> List[Finding]:
    """Findings for an array that must be a permutation of ``[0, n)``."""
    from repro.transforms.base import ReorderingFunction

    findings = check_index_array(values, n, name, policy)
    if any(f.severity == "fatal" for f in findings):
        return findings
    arr = np.asarray(values).astype(np.int64, copy=False)
    if len(arr) != n:
        findings.append(
            Finding(
                "bad-length", "fatal",
                f"permutation over {n} slots has {len(arr)} entries", name,
            )
        )
        return findings
    kind, positions = ReorderingFunction(name, arr).permutation_defects(
        MAX_REPORTED
    )
    if kind is not None:
        sample = [int(arr[p]) for p in positions]
        findings.append(
            Finding(
                kind, "fatal",
                f"not a permutation: {kind} values {sample}", name, positions,
            )
        )
    return findings


def validate_kernel_data(
    data,
    policy: str = "strict",
    subject: Optional[str] = None,
) -> ValidationReport:
    """Validate a bound :class:`~repro.kernels.data.KernelData` instance.

    The findings under each policy are a derived fact of the instance
    (:meth:`~repro.kernels.data.KernelData.derived`): they read nothing
    but the dataset, so a dataset bound under many compositions, or
    served on every warm request, is validated once, and deriving them
    freezes its arrays.  Every call returns a fresh report, so what a
    caller does to one cannot change the next.  Any other object with
    the same fields is validated afresh on every call.
    """
    from repro.kernels.data import KernelData

    _check_policy(policy)
    if isinstance(data, KernelData):
        findings = data.derived(
            ("validation", policy), lambda: _kernel_data_findings(data, policy)
        )
    else:
        findings = _kernel_data_findings(data, policy)
    return ValidationReport(
        subject=subject
        or f"KernelData({data.kernel_name!r}, {data.dataset_name!r})",
        policy=policy,
        findings=[replace(f, indices=list(f.indices)) for f in findings],
    )


def _kernel_data_findings(data, policy: str) -> Tuple[Finding, ...]:
    findings: List[Finding] = []
    left = np.asarray(data.left)
    right = np.asarray(data.right)

    if left.ndim == 1 and right.ndim == 1 and len(left) != len(right):
        findings.append(
            Finding(
                "ragged-endpoints", "fatal",
                f"left has {len(left)} entries but right has {len(right)}",
                "left/right",
            )
        )
    num_nodes = int(data.num_nodes)
    if num_nodes < 0:
        findings.append(
            Finding("bad-extent", "fatal", f"num_nodes = {num_nodes} < 0")
        )
    elif num_nodes == 0:
        severity = "warning" if len(left) == 0 else "error"
        findings.append(
            Finding(
                "empty-domain", severity,
                "node domain is empty"
                + ("" if severity == "warning" else " but interactions exist"),
            )
        )
    if num_nodes > 0 or len(left) or len(right):
        upper = max(num_nodes, 1)
        for name, arr in (("left", left), ("right", right)):
            findings.extend(check_index_array(arr, upper, name, policy))
    if len(left) == 0:
        findings.append(
            Finding(
                "empty-domain", "warning",
                "interaction domain is empty; every reordering is a no-op",
            )
        )
    fatal_endpoints = any(
        f.severity == "fatal" and f.array in ("left", "right", "left/right")
        for f in findings
    )
    if not fatal_endpoints and len(left) and len(left) == len(right):
        li = left.astype(np.int64, copy=False)
        ri = right.astype(np.int64, copy=False)
        lo = np.minimum(li, ri)
        hi = np.maximum(li, ri)
        # Sort the unordered pairs (stable, so a run of equal pairs
        # starts at its earliest interaction) and compare neighbours.
        upper = max(num_nodes, 1)
        key = lo * upper + hi
        order = stable_argsort(key, upper * upper, "interaction pairs")
        sorted_key = key[order]
        repeats = sorted_key[1:] == sorted_key[:-1]
        if repeats.any():
            run_starts = repeats & ~np.concatenate(([False], repeats[:-1]))
            first_of_run = np.zeros(len(key), dtype=bool)
            first_of_run[order[:-1][run_starts]] = True
            findings.append(
                Finding(
                    "duplicate-edges", "warning",
                    f"{int(repeats.sum())} duplicate interactions "
                    "(same endpoint pair)",
                    "left/right", _positions(first_of_run),
                )
            )
        loops = li == ri
        if loops.any():
            findings.append(
                Finding(
                    "self-loops", "warning",
                    f"{int(loops.sum())} interactions pair a node with itself",
                    "left/right", _positions(loops),
                )
            )
    for name, payload in getattr(data, "arrays", {}).items():
        arr = np.asarray(payload)
        if len(arr) != num_nodes:
            findings.append(
                Finding(
                    "bad-length", "fatal",
                    f"payload has {len(arr)} entries, expected {num_nodes}",
                    name,
                )
            )
            continue
        if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
            findings.append(
                Finding(
                    "non-finite-payload", "warning",
                    f"{int((~np.isfinite(arr)).sum())} NaN/Inf entries",
                    name, _positions(~np.isfinite(arr)),
                )
            )
    return tuple(findings)


def validate_dataset(dataset, policy: str = "strict") -> ValidationReport:
    """Validate a :class:`~repro.kernels.datasets.Dataset` (unbound form)."""
    _check_policy(policy)
    report = ValidationReport(
        subject=f"Dataset({dataset.name!r})", policy=policy
    )
    left = np.asarray(dataset.left)
    right = np.asarray(dataset.right)
    n = int(dataset.num_nodes)
    if left.ndim == 1 and right.ndim == 1 and len(left) != len(right):
        report.findings.append(
            Finding(
                "ragged-endpoints", "fatal",
                f"left has {len(left)} entries but right has {len(right)}",
                "left/right",
            )
        )
    if n <= 0:
        report.findings.append(
            Finding(
                "empty-domain",
                "warning" if (n == 0 and len(left) == 0) else "fatal",
                f"num_nodes = {n}",
            )
        )
    else:
        for name, arr in (("left", left), ("right", right)):
            report.findings.extend(check_index_array(arr, n, name, policy))
    coords = getattr(dataset, "coords", None)
    if coords is not None and len(coords) != n:
        report.findings.append(
            Finding(
                "bad-length", "fatal",
                f"coords cover {len(coords)} nodes, expected {n}", "coords",
            )
        )
    return report


__all__ = [
    "POLICIES",
    "Finding",
    "ValidationReport",
    "check_index_array",
    "check_permutation",
    "validate_dataset",
    "validate_kernel_data",
]
