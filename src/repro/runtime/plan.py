"""CompositionPlan: couple run-time steps to the compile-time framework.

A plan is the full story of one composition:

1. **Plan time (compile time).**  Each step contributes its symbolic
   transformations (``R``/``T`` with fresh UFS names); the plan threads
   them through a :class:`~repro.uniform.state.ProgramState`, checking
   legality at every stage — data reorderings are always legal, iteration
   reorderings must respect the *current* (already-transformed)
   dependences, and dependence-inspecting transformations discharge their
   obligations by construction.

2. **Run time.**  ``build_inspector()`` hands the same steps to the
   :class:`~repro.runtime.inspector.ComposedInspector`, which realizes the
   UFS as index arrays.  :meth:`CompositionPlan.bind` is the hardened
   entry point: it validates the dataset first, runs the inspector under
   the plan's ``on_stage_failure`` policy, and — whenever any stage
   degraded — re-runs the runtime verifier so the degraded executor is
   still proven bit-identical to the untransformed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ExecutorFault, LegalityError, ValidationError
from repro.runtime.inspector import (
    FAILURE_POLICIES,
    ComposedInspector,
    InspectorResult,
    Step,
)
from repro.runtime.report import PipelineReport
from repro.runtime.validate import POLICIES, validate_kernel_data
from repro.uniform.kernel import Kernel
from repro.uniform.legality import (
    LegalityReport,
    check_data_reordering,
    check_iteration_reordering,
)
from repro.uniform.state import (
    DataReordering,
    IterationReordering,
    ProgramState,
)


@dataclass
class PlannedTransformation:
    """One symbolic transformation with its legality report.

    ``step_index``/``step_name`` tie the transformation back to the
    composition step that emitted it (the same attribution the report and
    its obligations carry), so analyses can group by stage.
    """

    transformation: object
    report: LegalityReport
    step_index: int = -1
    step_name: str = ""


class CompositionPlan:
    """A named sequence of run-time reordering transformation steps.

    ``on_stage_failure`` ∈ ``{'raise', 'skip', 'identity'}`` controls how
    :meth:`bind` reacts when a stage fails validation or crashes at run
    time (see :class:`~repro.runtime.inspector.ComposedInspector`);
    ``validation`` ∈ ``{'strict', 'permissive'}`` sets the bind-time
    dataset validation policy.
    """

    def __init__(
        self,
        kernel: Kernel,
        steps: List[Step],
        name: str = "",
        remap: str = "once",
        on_stage_failure: str = "raise",
        validation: str = "strict",
    ):
        if on_stage_failure not in FAILURE_POLICIES:
            raise ValidationError(
                f"unknown on_stage_failure policy {on_stage_failure!r}",
                hint=f"choose one of {FAILURE_POLICIES}",
            )
        if validation not in POLICIES:
            raise ValidationError(
                f"unknown validation policy {validation!r}",
                hint=f"choose one of {POLICIES}",
            )
        self.kernel = kernel
        self.steps = list(steps)
        self.name = name or "+".join(step.name for step in steps) or "baseline"
        self.remap = remap
        self.on_stage_failure = on_stage_failure
        self.validation = validation
        self._planned: Optional[List[PlannedTransformation]] = None
        self._final_state: Optional[ProgramState] = None
        self._analysis = None  # last AnalysisReport from analyze()
        #: ``(code-version salt, digest)`` of the last :meth:`fingerprint`.
        self._fingerprint: Optional[Tuple[str, str]] = None

    def fingerprint(self) -> str:
        """This plan's content digest (kernel, steps, policies and the
        code-version salt), hashed once per salt: a request keys its
        flight and its bind with one hash of the steps, and a salt that
        moves (an executor backend flipped mid-process) hashes anew."""
        from repro.plancache.fingerprint import code_version_salt, plan_digest

        salt = code_version_salt()
        memo = self._fingerprint
        if memo is None or memo[0] != salt:
            memo = self._fingerprint = (salt, plan_digest(self, salt))
        return memo[1]

    # -- compile-time side --------------------------------------------------------

    def plan(self, strict: bool = True) -> ProgramState:
        """Thread every step's transformations through the framework.

        With ``strict`` set, a transformation whose legality cannot be
        established (neither proven nor discharged by a
        dependence-inspecting inspector) raises :class:`LegalityError`.
        Returns the final :class:`ProgramState` — whose data mappings and
        dependences are exactly what each subsequent inspector traverses.
        """
        state = ProgramState.initial(self.kernel)
        planned: List[PlannedTransformation] = []
        for index, step in enumerate(self.steps):
            for transformation in step.symbolic(self.kernel, index):
                # Each T . D . T^-1 the legality check composes, reused
                # by the state update below.
                transformed: dict = {}
                try:
                    if isinstance(transformation, DataReordering):
                        report = check_data_reordering(state, transformation)
                    elif isinstance(transformation, IterationReordering):
                        report = check_iteration_reordering(
                            state, transformation, transformed=transformed
                        )
                    else:  # pragma: no cover - steps only emit the two kinds
                        raise TypeError(
                            f"unexpected transformation {transformation!r}"
                        )
                    report.attach_stage(index, step.name)
                    if strict and not report.proven:
                        raise LegalityError(
                            f"step {step!r} is not provably legal: "
                            f"{len(report.obligations)} outstanding obligations "
                            f"({', '.join(f'{o.dependence.name} @ stage {o.stage}' for o in report.obligations)})",
                            stage=f"{index}:{step.name}",
                            hint="use a dependence-inspecting step (sparse "
                            "tiling) for this subspace, or plan(strict=False) "
                            "and rely on the runtime verifier",
                        )
                    planned.append(
                        PlannedTransformation(
                            transformation, report,
                            step_index=index, step_name=step.name,
                        )
                    )
                    state = state.apply(transformation, transformed)
                except (ValueError, KeyError) as exc:
                    if isinstance(exc, LegalityError):
                        raise
                    raise LegalityError(
                        f"step {step!r} cannot be threaded through the "
                        f"composition: {exc}",
                        stage=f"{index}:{step.name}",
                        hint="the composition is malformed for this kernel "
                        "— e.g. a tile-space step without a prior sparse "
                        "tiling step",
                    ) from exc
        self._planned = planned
        self._final_state = state
        return state

    @property
    def planned_transformations(self) -> List[PlannedTransformation]:
        if self._planned is None:
            self.plan()
        return list(self._planned)

    @property
    def final_state(self) -> ProgramState:
        if self._final_state is None:
            self.plan()
        return self._final_state

    # -- static analysis ----------------------------------------------------------

    def analyze(self, verifier: str = "on-degraded", rules=None):
        """Run the static analysis pass pipeline over this plan.

        Entirely plan-time — no dataset needed.  Builds the def/use
        dataflow graph across the stages, runs the lint rules
        (``RRT001``..``RRT005``), and returns the
        :class:`~repro.analysis.diagnostics.AnalysisReport`.  The report
        is remembered, so a subsequent :meth:`bind`'s
        :class:`~repro.runtime.report.PipelineReport` carries its summary
        in the ``analysis`` field.
        """
        from repro.analysis import analyze_plan

        self._analysis = analyze_plan(self, verifier=verifier, rules=rules)
        return self._analysis

    def optimized(self, codes=None) -> "CompositionPlan":
        """A rewritten copy with the safe lint fixes applied (this plan
        when none apply); see :func:`repro.analysis.rewrite.apply_fixes`."""
        from repro.analysis import apply_fixes

        return apply_fixes(self, codes=codes).plan

    # -- run-time side ---------------------------------------------------------------

    def build_inspector(self) -> ComposedInspector:
        """The composed inspector realizing this plan."""
        return ComposedInspector(
            self.steps,
            remap=self.remap,
            on_stage_failure=self.on_stage_failure,
        )

    def bind(
        self,
        data,
        num_steps: int = 2,
        verify: Optional[bool] = None,
        cache=None,
    ) -> InspectorResult:
        """Validate, inspect, and (when degraded) verify — the safe path.

        1. Validates ``data`` under the plan's ``validation`` policy
           (typed :class:`~repro.errors.ValidationError` on failure, on
           every bind).  The findings are a derived fact of the instance
           (:meth:`~repro.kernels.data.KernelData.derived`), so binding
           one dataset under many plans validates it once; deriving them
           freezes ``data``'s arrays, and nothing writes a bound dataset
           in place — run executors on ``data.copy()`` or on the result's
           ``transformed``.
        2. Runs the composed inspector under ``on_stage_failure``.  With
           a :class:`~repro.plancache.PlanCache` as ``cache``, the run
           is memoized under the (plan x dataset) content fingerprint: a
           warm bind replays the realized index arrays against the live
           payload and skips every inspector stage.
        3. If any stage degraded (or ``verify=True``), re-runs the
           runtime verifier: the transformed executor's output, pulled
           back through ``sigma^-1``, must equal the untransformed
           kernel's within the verifier's ``rtol``/``atol`` (1e-9 /
           1e-12, ``numpy.isclose``), not bit for bit.  A
           mismatch raises :class:`~repro.errors.ExecutorFault` — a
           degraded plan never silently corrupts.  The untransformed
           kernel's output is a derived fact of ``data`` (per
           ``num_steps`` and executor tier), so binding one dataset
           under many plans runs it once; verdicts are memoized by
           (plan, dataset-with-payload) fingerprint, so repeatedly
           binding the same degraded plan runs the transformed executor
           once.

        Returns the :class:`InspectorResult`; its ``report`` records
        validation findings, per-stage status, the verifier verdict, and
        the cache interaction (``hit``/``stored``).
        """
        from repro.runtime.verify import verify_numeric_equivalence_memoized

        validation_report = validate_kernel_data(data, policy=self.validation)
        validation_report.raise_if_failed(stage="bind")

        cache_key = None
        if cache is not None:
            from repro.plancache.fingerprint import bind_fingerprint

            cache_key = bind_fingerprint(self, data)
        result = self.build_inspector().run(
            data, cache=cache, cache_key=cache_key
        )
        report: PipelineReport = result.report
        report.plan_name = self.name
        report.validation = [str(f) for f in validation_report.findings]
        if self._analysis is not None:
            report.analysis = self._analysis.summary()

        should_verify = verify if verify is not None else report.degraded
        if should_verify:
            from repro.plancache.fingerprint import verification_fingerprint

            memo_key = verification_fingerprint(self, data, num_steps)
            try:
                verify_numeric_equivalence_memoized(
                    data,
                    result,
                    num_steps=num_steps,
                    memo_key=memo_key,
                    stats=cache.stats if cache is not None else None,
                )
            except AssertionError as exc:
                report.verified = False
                raise ExecutorFault(
                    f"degraded plan failed the numeric safety net: {exc}",
                    stage="verify",
                    hint="the fallback left inconsistent state; rerun "
                    "with on_stage_failure='raise' to localize the fault",
                ) from exc
            report.verified = True
        return result

    def rebind(
        self,
        parent_data,
        delta,
        *,
        cache,
        num_steps: int = 2,
        parent_key: Optional[str] = None,
        child_data=None,
    ) -> InspectorResult:
        """Bind the *mutated* dataset incrementally from the parent epoch.

        ``delta`` is a :class:`~repro.incremental.DatasetDelta`; the
        canonical mutated dataset is ``delta.apply(parent_data)``.  When
        every stage admits an incremental patch at this delta's drift,
        the cached parent plan is updated in place of a full inspector
        re-run and the patched bind is *always* re-verified numerically
        against the untransformed kernel — any mismatch (or any
        unpatchable stage, drift past a per-step threshold, missing
        parent entry, ...) degrades to a counted full re-bind.  Either
        way the stored child entry carries the parent-epoch link, so the
        chain of epochs stays walkable.  Requires a cache: delta-binds
        are defined relative to a cached parent epoch.

        Returns the child :class:`InspectorResult`; ``result.delta_info``
        records the mode (``patched``/``fallback``/``hit``) and drift.
        """
        from repro.incremental.engine import delta_bind

        return delta_bind(
            self,
            parent_data,
            delta,
            cache=cache,
            num_steps=num_steps,
            parent_key=parent_key,
            child_data=child_data,
        )

    def describe(self) -> str:
        lines = [f"CompositionPlan {self.name!r} on kernel {self.kernel.name!r}"]
        for index, step in enumerate(self.steps):
            lines.append(f"  {index}: {step!r}")
            for transformation in step.symbolic(self.kernel, index):
                lines.append(f"     {transformation.describe()}")
        lines.append(f"  remap policy: {self.remap}")
        lines.append(f"  on_stage_failure: {self.on_stage_failure}")
        lines.append(f"  validation: {self.validation}")
        return "\n".join(lines)

    def __repr__(self):
        return f"CompositionPlan({self.name!r}, steps={len(self.steps)})"
