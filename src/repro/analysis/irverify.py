"""Static verification of lowered executor programs (the IR verifier).

The compiled tier (:mod:`repro.lowering`) emits C that does raw-pointer
gathers through runtime-produced sigma/delta arrays.  This module proves,
*before* emission, that the program it is about to compile is safe and
faithful — in the spirit of translation validation and of the paper's
compile-time legality framework (Section 4):

**Bounds** (rule ``IRV001``) — every ``Load``/``Update``/``GatherCommit``
index is proven in range via symbolic obligations over the presburger
machinery: loop-variable intervals come from the loop extents, index-array
value intervals from the kernel's :class:`~repro.uniform.kernel.
IndexArraySpec` range facts, and each obligation is discharged by showing
its negation contradictory under :func:`repro.presburger.simplify.
simplify_conjunction`.  Facts that are only *validated at bind time*
(index-array values, tile-schedule partitions) are recorded as named
assumptions — exactly the set the sanitizer re-checks at run time.

**Translation validation** (``IRV004``) — after each
:class:`~repro.lowering.passes.LoweringRewriter` pass, the rewritten
program is symbolically executed against its input on a canonical
dependence-legal instance (:mod:`repro.runtime.symbolic_executor`) and
compared up to the documented FP-grouping freedom (reduction
contributions form a multiset per element; all other grouping is exact).
Each :class:`~repro.lowering.passes.PassRecord` gets a proof artifact.

Malformed IR (unknown arrays, index arrays, extents) is ``IRV005``.

``IRV002`` (write-write race) and ``IRV003`` (commit order) are
retired, not reused: they checked a wavefront grouping of tiles, and
every tier runs tiles in one order, ascending id, on one thread, so the
commit order is the schedule's and there is nothing to race.

Findings surface as stable-coded :class:`~repro.analysis.diagnostics.
Diagnostic` objects under the existing severity/exit-code contract;
:func:`repro.lowering.executor.compile_executor` refuses to emit an
unproven program unless the sanitizer mode is on, and caches proof
results content-addressed next to the compiled artifacts (verifier
version in the salt) so warm binds skip re-verification.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.errors import BindError
from repro.lowering.ir import Program, expr_loads, ir_hash
from repro.lowering.passes import RewriteState
from repro.presburger.constraints import Constraint, geq, leq
from repro.presburger.sets import Conjunction
from repro.presburger.simplify import simplify_conjunction
from repro.presburger.terms import AffineExpr, var

#: Bumped whenever the verifier's rules or proof format change; part of
#: the proof-artifact content address, so stale proofs never match.
#: irverify-7: no race / commit-order rules (IRV002 / IRV003 retired),
#: no parallelize pass to validate and no ``wave-cover`` assumption.
IRVERIFY_VERSION = "irverify-7"

#: Stable rule codes (the ``repro lint --ir`` contract).
IRV_BOUNDS = "IRV001"
IRV_TRANSLATION = "IRV004"
IRV_MALFORMED = "IRV005"

IRV_CODES = (IRV_BOUNDS, IRV_TRANSLATION, IRV_MALFORMED)

#: Steps the canonical-instance interpreter runs per equivalence check
#: (2 catches cross-step reorderings one step cannot).
_VALIDATION_STEPS = 2

_CANONICAL_INSTANCE = "canonical-4n4i-2tile"


@dataclass
class BoundsObligation:
    """One in-bounds proof obligation: ``0 <= index < bound``."""

    loop_label: str
    stmt_label: str
    array: str
    index: str  # rendered index expression, e.g. "left(j)"
    bound: str  # exclusive bound symbol, e.g. "num_nodes"
    discharged: bool = False
    method: str = "presburger"
    assumptions: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "loop": self.loop_label,
            "stmt": self.stmt_label,
            "array": self.array,
            "index": self.index,
            "bound": self.bound,
            "discharged": self.discharged,
            "method": self.method,
            "assumptions": list(self.assumptions),
        }


@dataclass
class AssumedFact:
    """A fact the static proof leans on that is established elsewhere
    (bind-time validation, the tiling constructor, the runtime verifier)
    and re-checked by the sanitizer prologue at run time."""

    name: str
    description: str
    discharged_by: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "discharged_by": self.discharged_by,
        }


@dataclass
class IRVerificationReport:
    """Everything one verifier run established about one lowered program."""

    kernel_name: str
    ir_digest: str
    version: str = IRVERIFY_VERSION
    diagnostics: List[Diagnostic] = field(default_factory=list)
    obligations: List[BoundsObligation] = field(default_factory=list)
    assumed: List[AssumedFact] = field(default_factory=list)
    pass_proofs: List[dict] = field(default_factory=list)

    @property
    def proven(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def summary(self) -> dict:
        return {
            "proven": self.proven,
            "obligations": len(self.obligations),
            "discharged": sum(1 for o in self.obligations if o.discharged),
            "assumed_facts": len(self.assumed),
            "passes_validated": sum(
                1 for p in self.pass_proofs if p.get("equivalent")
            ),
            "codes": sorted({d.code for d in self.diagnostics}),
        }

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "ir_digest": self.ir_digest,
            "version": self.version,
            "proven": self.proven,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "obligations": [o.to_dict() for o in self.obligations],
            "assumed": [a.to_dict() for a in self.assumed],
            "pass_proofs": list(self.pass_proofs),
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def describe(self) -> str:
        s = self.summary()
        head = (
            f"IRVerificationReport({self.kernel_name}, {self.version}): "
            + ("proven" if self.proven else "UNPROVEN")
        )
        lines = [
            head,
            f"  bounds obligations: {s['discharged']}/{s['obligations']} "
            f"discharged  assumed facts: {s['assumed_facts']}  "
            f"passes validated: {s['passes_validated']}/"
            f"{len(self.pass_proofs)}",
        ]
        for d in self.diagnostics:
            lines.append(f"  {d}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


# ---------------------------------------------------------------------------
# Proof-artifact cache key


def proof_key(program: Program) -> str:
    """Content address of one verification result (verifier version in
    the salt, so bumping the rules invalidates every cached proof)."""
    blob = "\x1f".join((ir_hash(program), IRVERIFY_VERSION))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Kernel facts


@dataclass(frozen=True)
class _KernelFacts:
    """Shape facts the verifier seeds its domains with."""

    data_extent: Dict[str, str]  # data array -> extent symbol
    index_length: Dict[str, str]  # index array -> domain extent symbol
    index_range: Dict[str, str]  # index array -> value-range extent symbol
    extent_symbols: frozenset


def _kernel_facts(program: Program) -> _KernelFacts:
    from repro.kernels.specs import kernel_by_name

    kernel = kernel_by_name(program.kernel_name)  # BindError -> IRV005
    return _KernelFacts(
        data_extent={
            name: spec.extent for name, spec in kernel.data_arrays.items()
        },
        index_length={
            name: spec.domain_extent
            for name, spec in kernel.index_arrays.items()
        },
        index_range={
            name: spec.range_extent
            for name, spec in kernel.index_arrays.items()
        },
        extent_symbols=kernel.extent_symbols(),
    )


# ---------------------------------------------------------------------------
# Structure (IRV005)


def _check_structure(program: Program, facts: _KernelFacts) -> List[Diagnostic]:
    diagnostics = []

    def bad(message, loop_idx, loop_label, hint=None):
        diagnostics.append(
            Diagnostic(
                code=IRV_MALFORMED,
                severity=ERROR,
                message=message,
                stage_index=loop_idx,
                stage_name=loop_label,
                hint=hint,
            )
        )

    known_data = set(program.data_arrays) & set(facts.data_extent)
    for pos, loop in enumerate(program.loops):
        if loop.extent not in facts.extent_symbols:
            bad(
                f"loop {loop.label!r} iterates unknown extent "
                f"{loop.extent!r}",
                pos,
                loop.label,
                hint=f"known extents: {sorted(facts.extent_symbols)}",
            )
        accesses = []
        for stmt in loop.stmts:
            accesses.append((stmt.label, stmt.array, stmt.index))
            for load in expr_loads(stmt.increment):
                accesses.append((stmt.label, load.array, load.index))
        if loop.fissioned is not None:
            gc = loop.fissioned
            for load in expr_loads(gc.payload):
                accesses.append(("payload", load.array, load.index))
            for commit in gc.commits:
                accesses.append(
                    (commit.label or "commit", commit.array, _ViaIndex(commit.via))
                )
        for label, array, index in accesses:
            if array not in known_data:
                bad(
                    f"{loop.label}/{label}: references unknown data array "
                    f"{array!r}",
                    pos,
                    loop.label,
                )
            via = getattr(index, "via", None)
            if via is not None and via not in facts.index_length:
                bad(
                    f"{loop.label}/{label}: indexes through unknown index "
                    f"array {via!r}",
                    pos,
                    loop.label,
                )
    return diagnostics


class _ViaIndex:
    """Minimal Index stand-in for commit targets (always indirect)."""

    def __init__(self, via):
        self.via = via

    @property
    def direct(self):
        return False


# ---------------------------------------------------------------------------
# Bounds obligations (IRV001)


def _loop_facts(
    loop, facts: _KernelFacts, used_vias
) -> List[Constraint]:
    v = var(loop.index_var)
    out = [geq(v, 0), leq(v, var(loop.extent) - 1)]
    for name in sorted(used_vias):
        uf = AffineExpr.ufs(name, v)
        out.append(geq(uf, 0))
        out.append(leq(uf, var(facts.index_range[name]) - 1))
    return out


def _discharged(
    index_expr: AffineExpr, bound: str, constraint_facts: List[Constraint]
) -> bool:
    """Prove ``0 <= index_expr < bound`` by refuting both negations."""
    below = simplify_conjunction(
        Conjunction(tuple(constraint_facts) + (leq(index_expr, -1),))
    )
    above = simplify_conjunction(
        Conjunction(tuple(constraint_facts) + (geq(index_expr, var(bound)),))
    )
    return below is None and above is None


def _loop_access_obligations(loop, facts: _KernelFacts, tiled: bool):
    """Enumerate (stmt_label, array, index) accesses of the form the
    emitters actually generate for this loop (fissioned form when
    present), then build and discharge one obligation per access."""
    accesses: List[Tuple[str, str, Optional[str]]] = []
    if loop.fissioned is not None:
        gc = loop.fissioned
        for load in expr_loads(gc.payload):
            accesses.append(("payload", load.array, load.index.via))
        for commit in gc.commits:
            accesses.append((commit.label or "commit", commit.array, commit.via))
    else:
        for stmt in loop.stmts:
            accesses.append((stmt.label, stmt.array, stmt.index.via))
            for load in expr_loads(stmt.increment):
                accesses.append((stmt.label, load.array, load.index.via))

    used_vias = {via for _, _, via in accesses if via is not None}
    constraint_facts = _loop_facts(loop, facts, used_vias)
    v = var(loop.index_var)
    tiled_note = ("tile-partition",) if tiled else ()

    obligations: List[BoundsObligation] = []
    seen = set()

    def add(stmt_label, array, index_expr, index_text, bound, assumptions):
        key = (array, index_text, bound)
        if key in seen:
            return
        seen.add(key)
        obligations.append(
            BoundsObligation(
                loop_label=loop.label,
                stmt_label=stmt_label,
                array=array,
                index=index_text,
                bound=bound,
                discharged=_discharged(index_expr, bound, constraint_facts),
                assumptions=assumptions,
            )
        )

    for stmt_label, array, via in accesses:
        if array not in facts.data_extent:
            continue  # structural diagnostics already cover this
        bound = facts.data_extent[array]
        if via is None:
            add(stmt_label, array, v, loop.index_var, bound, tiled_note)
        else:
            if via not in facts.index_length:
                continue
            # The index-array element access itself ...
            add(
                stmt_label,
                via,
                v,
                loop.index_var,
                facts.index_length[via],
                tiled_note,
            )
            # ... and the data access through its value.
            add(
                stmt_label,
                array,
                AffineExpr.ufs(via, v),
                f"{via}({loop.index_var})",
                bound,
                tiled_note + ("index-array-range",),
            )
    return obligations


def _bounds_obligations(
    program: Program, facts: _KernelFacts
) -> Tuple[List[BoundsObligation], List[Diagnostic]]:
    obligations: List[BoundsObligation] = []
    diagnostics: List[Diagnostic] = []
    for pos, loop in enumerate(program.loops):
        if loop.extent not in facts.extent_symbols:
            continue  # IRV005 already raised
        loop_obs = _loop_access_obligations(loop, facts, program.tiled)
        obligations.extend(loop_obs)
        for ob in loop_obs:
            if ob.discharged:
                continue
            diagnostics.append(
                Diagnostic(
                    code=IRV_BOUNDS,
                    severity=ERROR,
                    message=(
                        f"{ob.loop_label}/{ob.stmt_label}: cannot prove "
                        f"{ob.array}[{ob.index}] in [0, {ob.bound})"
                    ),
                    stage_index=pos,
                    stage_name=loop.label,
                    hint=(
                        "emit with the sanitizer (--sanitize / "
                        "REPRO_EXECUTOR_SANITIZE=1) to trap at run time"
                    ),
                )
            )
    return obligations, diagnostics


# ---------------------------------------------------------------------------
# Translation validation (IRV004)


def _pass_assumptions(name: str, program: Program) -> List[str]:
    if name == "loop_blocking" and program.tiled:
        return ["tile-partition", "schedule-legality"]
    return []


def _validate_passes(
    state: RewriteState,
) -> Tuple[List[dict], List[Diagnostic]]:
    from repro.runtime.symbolic_executor import (
        canonical_instance,
        normalize_symbolic_state,
        symbolic_program_state,
    )

    proofs: List[dict] = []
    diagnostics: List[Diagnostic] = []
    if not state.log:
        return proofs, diagnostics

    inst = canonical_instance(state.log[0].before or state.program)
    cache: Dict[str, dict] = {}

    def normalized(program: Program):
        # A crash inside the interpreter (malformed IR slipping past the
        # structure check) is itself a failed validation, never a pass.
        key = ir_hash(program)
        if key not in cache:
            try:
                cache[key] = normalize_symbolic_state(
                    symbolic_program_state(
                        program, inst, num_steps=_VALIDATION_STEPS
                    )
                )
            except Exception as exc:  # noqa: BLE001 - recorded as evidence
                cache[key] = ("uninterpretable", key, repr(exc))
        return cache[key]

    for idx, rec in enumerate(state.log):
        if rec.before is None or rec.after is None:
            continue
        equivalent = normalized(rec.before) == normalized(rec.after)
        proof = {
            "pass": rec.name,
            "applied": rec.applied,
            "equivalent": equivalent,
            "instance": _CANONICAL_INSTANCE,
            "num_steps": _VALIDATION_STEPS,
            "rule": "reduction-contribution multiset per element; "
            "contribution grouping exact",
            "assumptions": _pass_assumptions(rec.name, rec.after),
            "version": IRVERIFY_VERSION,
        }
        rec.proof = proof
        proofs.append(proof)
        if not equivalent:
            diagnostics.append(
                Diagnostic(
                    code=IRV_TRANSLATION,
                    severity=ERROR,
                    message=(
                        f"pass {rec.name!r} is not semantics-preserving on "
                        "the canonical instance (beyond the documented "
                        "FP-grouping freedom)"
                    ),
                    stage_index=idx,
                    stage_name=rec.name,
                )
            )
    # End-to-end: source program vs final program (composition of all
    # passes), same predicate — catches drift a per-pass check could
    # only see pairwise.
    source = state.log[0].before
    if source is not None:
        if normalized(source) != normalized(state.program):
            diagnostics.append(
                Diagnostic(
                    code=IRV_TRANSLATION,
                    severity=ERROR,
                    message=(
                        "pipeline end-to-end check failed: final program "
                        "is not equivalent to the lowered source"
                    ),
                    stage_index=None,
                    stage_name="pipeline",
                )
            )
    return proofs, diagnostics


# ---------------------------------------------------------------------------
# Assumed facts


def _assumed_facts(program: Program, facts: _KernelFacts) -> List[AssumedFact]:
    assumed = [
        AssumedFact(
            name="index-array-range",
            description=(
                f"values of {sorted(facts.index_range)} lie in "
                "[0, num_nodes) for every entry"
            ),
            discharged_by=(
                "bind-time validation (validate_kernel_data) and the "
                "sanitizer prologue"
            ),
        )
    ]
    if program.tiled:
        assumed.append(
            AssumedFact(
                name="tile-partition",
                description=(
                    "schedule[t][pos] partitions [0, extent) per loop — "
                    "each iteration appears exactly once across tiles"
                ),
                discharged_by=(
                    "TileSchedule construction (a counting sort for "
                    "TilingFunction.schedule(), a permutation check for a "
                    "hand-built list of tiles) plus the executor entry's "
                    "per-call extent comparison, on every tier"
                ),
            )
        )
        assumed.append(
            AssumedFact(
                name="schedule-legality",
                description=(
                    "theta(src) <= theta(dst) for every dependence "
                    "(atomic-tile condition), so ascending tile order is "
                    "a legal linearization"
                ),
                discharged_by="FST inspector construction + runtime verifier",
            )
        )
    return assumed


# ---------------------------------------------------------------------------
# Entry points


def verify_state(state: RewriteState) -> IRVerificationReport:
    """Verify one rewritten program: bounds and per-pass translation
    validation.  Fills each pass record's ``proof``."""
    program = state.program
    report = IRVerificationReport(
        kernel_name=program.kernel_name,
        ir_digest=ir_hash(program),
    )
    try:
        facts = _kernel_facts(program)
    except BindError as exc:
        report.diagnostics.append(
            Diagnostic(
                code=IRV_MALFORMED,
                severity=ERROR,
                message=f"cannot resolve kernel facts: {exc}",
                stage_index=None,
                stage_name="program",
            )
        )
        return report

    report.diagnostics.extend(_check_structure(program, facts))
    obligations, bound_diags = _bounds_obligations(program, facts)
    report.obligations = obligations
    report.diagnostics.extend(bound_diags)
    if not report.by_code(IRV_MALFORMED):
        proofs, tv_diags = _validate_passes(state)
        report.pass_proofs = proofs
        report.diagnostics.extend(tv_diags)
    report.assumed = _assumed_facts(program, facts)
    return report


def verify_executor(
    kernel_name: str, tiled: bool = False
) -> IRVerificationReport:
    """Lower + rewrite one kernel executor and verify the result (the
    ``repro lint --ir`` / ``doctor`` entry point).  ``tiled`` selects
    nothing: untiled and tiled binds run the one rewritten program."""
    from repro.lowering.executor import _rewritten

    return verify_state(_rewritten(kernel_name))


def verification_diagnostics(
    kernel_name: str
) -> Tuple[List[str], List[Diagnostic], IRVerificationReport]:
    """Rules-run codes + diagnostics for merging into an
    :class:`~repro.analysis.diagnostics.AnalysisReport` (``lint --ir``)."""
    report = verify_executor(kernel_name)
    return list(IRV_CODES), list(report.diagnostics), report


__all__ = [
    "IRVERIFY_VERSION",
    "IRV_BOUNDS",
    "IRV_CODES",
    "IRV_MALFORMED",
    "IRV_TRANSLATION",
    "AssumedFact",
    "BoundsObligation",
    "IRVerificationReport",
    "proof_key",
    "verification_diagnostics",
    "verify_executor",
    "verify_state",
]
