"""Inspector/executor runtime.

The compile-time side (:mod:`repro.uniform`) plans compositions; this
package *executes* them:

* :mod:`repro.runtime.steps` — the step table: each reordering step
  (spec type, parameters, traits, inspector, relation, delta rule, code
  generator) defined once;
* :mod:`repro.runtime.inspector` — the composed inspector: runs each
  planned transformation's inspector in order, each traversing the index
  arrays **as modified by the previous inspectors**, with the data-remap
  strategy (``once`` vs ``each``) as a parameter (paper Section 6,
  Figures 11/15/16);
* :mod:`repro.runtime.executor` — execution plans (per-loop orders or a
  sparse-tile schedule), address-trace emission for the cache simulator,
  and numeric execution for end-to-end validation;
* :mod:`repro.runtime.plan` — :class:`CompositionPlan`: couples a list of
  steps to the compile-time framework (symbolic threading + legality) and
  builds the matching composed inspector;
* :mod:`repro.runtime.verify` — the run-time legality verifier;
* :mod:`repro.runtime.validate` — bind-time dataset/index-array
  validation under ``strict``/``permissive`` policies;
* :mod:`repro.runtime.report` — per-stage :class:`PipelineReport`;
* :mod:`repro.runtime.faults` — deterministic fault injection for the
  robustness test suite.
"""

from repro.runtime.executor import (
    ExecutionPlan,
    emit_trace,
    run_numeric,
    run_numeric_wavefront,
)
from repro.runtime.faults import CORRUPTORS, Fault, FaultyStep, inject
from repro.runtime.inspector import (
    FAILURE_POLICIES,
    BucketTilingStep,
    CacheBlockStep,
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    InspectorResult,
    LexGroupStep,
    LexSortStep,
    RCMStep,
    SpaceFillingStep,
    TilePackStep,
)
from repro.runtime.plan import CompositionPlan
from repro.runtime.planspec import (
    STEP_TYPES,
    load_plan_spec,
    make_step,
    plan_from_spec,
)
from repro.runtime.report import PipelineReport, StageRecord
from repro.runtime.validate import (
    POLICIES,
    ValidationReport,
    validate_dataset,
    validate_kernel_data,
)
from repro.runtime.verify import (
    clear_verification_memo,
    verify_bind,
    verify_dependences,
    verify_numeric_equivalence,
)

__all__ = [
    "ExecutionPlan",
    "emit_trace",
    "run_numeric",
    "run_numeric_wavefront",
    "ComposedInspector",
    "InspectorResult",
    "CPackStep",
    "GPartStep",
    "RCMStep",
    "SpaceFillingStep",
    "LexGroupStep",
    "LexSortStep",
    "BucketTilingStep",
    "FullSparseTilingStep",
    "CacheBlockStep",
    "TilePackStep",
    "CompositionPlan",
    "STEP_TYPES",
    "load_plan_spec",
    "make_step",
    "plan_from_spec",
    "verify_numeric_equivalence",
    "verify_bind",
    "clear_verification_memo",
    "verify_dependences",
    "FAILURE_POLICIES",
    "POLICIES",
    "PipelineReport",
    "StageRecord",
    "ValidationReport",
    "validate_dataset",
    "validate_kernel_data",
    "CORRUPTORS",
    "Fault",
    "FaultyStep",
    "inject",
]
