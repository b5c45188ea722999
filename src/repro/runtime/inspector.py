"""The composed inspector (paper Figures 10--12, 15).

A composition is a list of steps; running the composed inspector executes
each step's inspector in order.  Each inspector traverses the index arrays
**as modified by the previous steps** — the paper's key insight realized:
after CPACK and lexGroup have run, the second CPACK inspector walks
``sigma_cp[left[delta_lg_inv[j1]]]`` (Figure 12); here the walk is the
same, materialized by eagerly adjusting the index arrays after every step
(the strategy the paper found fastest).

The **data payload** remap policy is the experiment of Figure 16:

* ``remap="once"`` — compose the data reorderings and move the payload
  arrays a single time at the end (Figure 11);
* ``remap="each"`` — move the payload after every data reordering
  (Figure 15).

Both policies produce identical executors; they differ only in inspector
overhead, which the ``overhead`` breakdown records in element touches.

Because each inspector reads only what the earlier steps left, stage
``k``'s *inspector output* (its reordering or tiling function) depends
on the dataset and steps ``0..k`` alone, not on the remap policy.  With
a plan cache, :meth:`ComposedInspector.run` first looks up the whole
bind (a *plan entry*: a hit runs no stage); on a miss every stage looks
up the *stage entry* of its step prefix.  A stage that finds one
*replays* it: :meth:`InspectorState.inspect` hands the stored function
to the step shell instead of running the inspector, and the shell and
the stage loop apply it with every mechanic a cold stage runs.  A stage
that ran its inspector and finished ``ok`` stores its output.  Both
entry kinds are laid out in :mod:`repro.plancache.memo`.

The steps themselves are defined once, in the step table
(:mod:`repro.runtime.steps`); their names are re-exported here.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    DegradedPlanWarning,
    InspectorFault,
    ReproError,
    ValidationError,
)
from repro.kernels.data import KernelData
from repro.runtime.report import (
    STAGE_FAILED,
    STAGE_IDENTITY,
    STAGE_OK,
    STAGE_SKIPPED,
    PipelineReport,
    StageRecord,
)
from repro.runtime.executor import ExecutionPlan
from repro.runtime.steps import (  # noqa: F401 - the step names re-export
    BucketTilingStep,
    CacheBlockStep,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
    LexSortStep,
    RCMStep,
    SpaceFillingStep,
    Step,
    TilePackStep,
    dependence_edges,
    interaction_loop_pos,
    node_loop_positions,
)
from repro.transforms.base import ReorderingFunction, identity_reordering
from repro.transforms.fst import TilingFunction, check_tiling


def validate_tiling(state: "InspectorState", stage: str) -> None:
    """Bind-time guard on a freshly produced tiling function: the one
    legality check over the instance's :func:`dependence_edges`."""
    if state.tiling is not None:
        data = state.data
        check_tiling(
            state.tiling,
            data.loop_sizes(),
            dependence_edges(data),
            stage,
            node_loops=data.node_loop_positions(),
        )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageOutput:
    """What one stage's inspector computed: the reordering or tiling
    function, and the touches it charged, phase by phase."""

    function: object  #: a ReorderingFunction or a TilingFunction
    touches: Tuple[Tuple[str, int], ...]


@dataclass
class InspectorState:
    """Mutable state threaded through the composed inspector's steps."""

    data: KernelData
    remap: str
    #: The node data reordering composed so far.  Under ``remap="once"``
    #: it is also what the payload still has to move by; under
    #: ``"each"`` the payload has already moved by it.  Every node loop's
    #: iteration reordering is this same function.
    sigma_total: ReorderingFunction
    tiling: Optional[TilingFunction] = None
    overhead: Dict[str, int] = field(default_factory=dict)
    data_moves: int = 0
    #: Index of the step currently running (set by the composed inspector);
    #: used to name stage functions to match the plan's symbolic UFS.
    current_index: int = 0
    #: Per-stage reordering functions under their symbolic names
    #: (``cp0``, ``lg1``, ``theta4``, ...) — what the runtime verifier
    #: binds into the transformed relations.
    stage_functions: Dict[str, object] = field(default_factory=dict)
    #: The current stage's memoised inspector output on a replay (set by
    #: the stage loop), else ``None``.
    replay: Optional[StageOutput] = None
    #: The inspector output the current stage computed cold, which the
    #: stage loop memoises once the stage finished ``ok``.
    output: Optional[StageOutput] = None

    def charge(self, phase: str, touches: int) -> None:
        self.overhead[phase] = self.overhead.get(phase, 0) + int(touches)

    def inspect(self, step: Step, inspector: Callable[[dict], object]):
        """The current stage's inspector output.

        On a replay it is :attr:`replay`'s function, and the touches the
        inspector charged when it ran are charged again.  Otherwise
        ``inspector(counter)`` runs, ``counter["touches"]`` is charged to
        the stage, and the output is left in :attr:`output`.  The step
        shells apply either with the same mechanics, so a replayed stage
        is a cold one.
        """
        if self.replay is not None:
            for phase, touches in self.replay.touches:
                self.charge(phase, touches)
            return self.replay.function
        before = dict(self.overhead)
        counter: Dict[str, int] = {}
        function = inspector(counter)
        self.charge(step.name, counter["touches"])
        self.output = StageOutput(
            function,
            tuple(
                (phase, touches - before.get(phase, 0))
                for phase, touches in self.overhead.items()
                if touches != before.get(phase)
            ),
        )
        return function

    def register(self, prefix: str, value) -> str:
        name = f"{prefix}{self.current_index}"
        self.stage_functions[name] = value
        return name

    # -- transactional stage execution -------------------------------------------

    def snapshot(self) -> dict:
        """Copy of everything a stage may mutate, for rollback on failure."""
        return {
            "data": self.data.copy(),
            "sigma_total": self.sigma_total,
            "tiling": (
                TilingFunction(
                    [t.copy() for t in self.tiling.tiles], self.tiling.num_tiles
                )
                if self.tiling is not None
                else None
            ),
            "overhead": dict(self.overhead),
            "data_moves": self.data_moves,
            "stage_functions": dict(self.stage_functions),
        }

    def restore(self, snap: dict) -> None:
        """Roll the state back to a :meth:`snapshot` (stage fallback)."""
        self.data = snap["data"]
        self.sigma_total = snap["sigma_total"]
        self.tiling = snap["tiling"]
        self.overhead = dict(snap["overhead"])
        self.data_moves = snap["data_moves"]
        self.stage_functions = dict(snap["stage_functions"])

    # -- shared mechanics ------------------------------------------------------

    def _move_payload(self, sigma: ReorderingFunction, phase: str) -> None:
        for name in self.data.arrays:
            self.data.arrays[name] = sigma.apply_to_data(self.data.arrays[name])
        # Charge per physical double moved: the record carries
        # ``node_record_bytes`` of payload per node (e.g. moldyn's 9
        # arrays), regardless of how many arrays the IR models.
        doubles_per_node = max(1, self.data.node_record_bytes // 8)
        self.charge(phase, 2 * self.data.num_nodes * doubles_per_node)
        self.data_moves += 1

    def apply_data_reordering(
        self,
        sigma: ReorderingFunction,
        step_name: str,
        trusted: bool = False,
    ) -> None:
        """Adjust index arrays now; move the payload per the remap policy.

        Node-space loops iterate ``0..n-1`` over the relocated payload, so
        the data reordering doubles as their iteration reordering (the
        paper reuses ``Ocp`` for the i and k loops): it is composed into
        ``sigma_total`` and renumbers any existing tiling's node loops.

        ``trusted`` skips the O(n) permutation-defect scan: only for
        callers whose array is a permutation *by construction* (a scatter
        of ``arange``) and whose pipeline mandatorily re-verifies the
        bind numerically — i.e. the delta-bind patch rules.
        """
        if len(sigma) != self.data.num_nodes:
            raise ValidationError(
                f"data reordering {sigma.name!r} covers {len(sigma)} slots, "
                f"expected num_nodes = {self.data.num_nodes}",
                stage=step_name,
                hint="the index array was truncated or padded; the "
                "reordering must be a permutation of the node space",
            )
        if not trusted:
            sigma.require_permutation(stage=step_name)
        self.data.left = sigma.remap_values(self.data.left)
        self.data.right = sigma.remap_values(self.data.right)
        self.charge("index_adjust", 4 * self.data.num_inter)

        if self.tiling is not None:
            for pos in self.data.node_loop_positions():
                self.tiling.reorder_iterations(pos, sigma.array)

        self.sigma_total = self.sigma_total.compose(sigma)
        if self.remap == "each":
            self._move_payload(sigma, "data_remap")

    def apply_iteration_reordering(
        self,
        pos: int,
        delta: ReorderingFunction,
        step_name: str,
        trusted: bool = False,
    ) -> None:
        """Physically permute the interaction loop's index-array rows.

        ``trusted`` as in :meth:`apply_data_reordering`: skip the defect
        scan for by-construction permutations on a mandatorily verified
        path."""
        if len(delta) != self.data.loop_sizes()[pos]:
            raise ValidationError(
                f"iteration reordering {delta.name!r} covers {len(delta)} "
                f"iterations, loop {pos} has {self.data.loop_sizes()[pos]}",
                stage=step_name,
                hint="the index array was truncated or padded; the "
                "reordering must be a permutation of the loop's iterations",
            )
        if not trusted:
            delta.require_permutation(stage=step_name)
        if self.data.loops[pos].domain != "inters":
            raise ValidationError(
                "explicit iteration reorderings target the interaction loop; "
                "node loops follow the data reordering automatically",
                stage=step_name,
            )
        order = delta.inverse_array  # order[new] = old
        self.data.left = self.data.left[order]
        self.data.right = self.data.right[order]
        self.charge("index_adjust", 4 * self.data.num_inter)
        if self.tiling is not None:
            self.tiling.reorder_iterations(pos, delta.array)

    def finalize_payload(self) -> None:
        """Under ``remap="once"``, move the payload by ``sigma_total``."""
        if self.remap == "once" and not np.array_equal(
            self.sigma_total.array, np.arange(len(self.sigma_total.array))
        ):
            self._move_payload(self.sigma_total, "data_remap")


# ---------------------------------------------------------------------------


#: Builds a plan-cache hit's executor state: ``(transformed, tiling)``.
ExecutorStateBuilder = Callable[[], Tuple[KernelData, Optional[TilingFunction]]]


class InspectorResult:
    """Everything the composed inspector produced.

    The *executor state* is :attr:`transformed` (the reordered index
    arrays and payload) and :attr:`tiling`: what an executor runs on.  A
    cold or patched run holds it and hands it over.  A plan-cache hit
    holds the checked entry instead, and ``executor_state`` builds both
    on the first read of either (or of :attr:`plan`), once, under a
    lock: a bind whose response reads only :attr:`digests`,
    :attr:`report` and :attr:`overhead` builds neither.  Both attributes
    stay assignable.
    """

    def __init__(
        self,
        *,
        sigma_nodes: ReorderingFunction,
        overhead: Dict[str, int],
        data_moves: int,
        stage_functions: Optional[Dict[str, object]],
        transformed: Optional[KernelData] = None,
        tiling: Optional[TilingFunction] = None,
        report: Optional[PipelineReport] = None,
        digests: Optional[Dict[str, str]] = None,
        executor_state: Optional[ExecutorStateBuilder] = None,
    ):
        #: The total node data reordering, which is also every node
        #: loop's iteration reordering.  The interaction loop's is the
        #: composition of the iteration reorderings' stage functions.
        self.sigma_nodes = sigma_nodes
        self.overhead = overhead
        self.data_moves = data_moves
        #: Per-stage reordering functions keyed by symbolic UFS name;
        #: ``None`` on a plan-cache hit, where no stage ran.
        self.stage_functions = stage_functions
        #: Per-stage status/timings/fallbacks of the run that produced this.
        self.report = report
        #: The executor state's content digests as bound (the names of
        #: ``service.result_digests``), when they are facts the bind
        #: already held: set on a plan-cache hit, ``None`` on a cold or
        #: patched run.
        self.digests = digests
        self._transformed = transformed
        self._tiling = tiling
        self._executor_state = executor_state
        self._lock = threading.Lock() if executor_state is not None else None

    def _materialize(self) -> None:
        """Build a hit's executor state if no read has yet."""
        if self._executor_state is not None:
            with self._lock:
                if self._executor_state is not None:
                    self._transformed, self._tiling = self._executor_state()
                    self._executor_state = None

    @property
    def transformed(self) -> KernelData:
        """The transformed index arrays and reordered payload."""
        self._materialize()
        return self._transformed

    @transformed.setter
    def transformed(self, value: KernelData) -> None:
        self._materialize()
        self._transformed = value

    @property
    def tiling(self) -> Optional[TilingFunction]:
        """The tiling function, or ``None`` when no stage tiled."""
        self._materialize()
        return self._tiling

    @tiling.setter
    def tiling(self, value: Optional[TilingFunction]) -> None:
        self._materialize()
        self._tiling = value

    @cached_property
    def plan(self) -> ExecutionPlan:
        """How the executor traverses the loops: the tiling's schedule,
        derived on first read, or the identity plan when no stage tiled.
        A bind that is never executed never builds it."""
        if self.tiling is None:
            return ExecutionPlan.identity()
        return ExecutionPlan(schedule=self.tiling.schedule())

    @property
    def total_touches(self) -> int:
        return sum(self.overhead.values())

    def restore_array(self, name: str) -> np.ndarray:
        """A payload array in the original (pre-reordering) numbering."""
        inv = self.sigma_nodes.inverse()
        return inv.apply_to_data(self.transformed.arrays[name])


#: Recognized stage-failure policies.
FAILURE_POLICIES = ("raise", "skip", "identity")

#: What one stage runs: ``body(state, index, step)``.
StageBody = Callable[[InspectorState, int, Step], None]


def run_step(state: InspectorState, index: int, step: Step) -> None:
    """A cold stage: the step's own inspector."""
    step.run(state)


class ComposedInspector:
    """Run a list of steps against a kernel instance (paper Figure 11/15).

    ``on_stage_failure`` decides what happens when a stage raises or
    produces an invalid reordering at bind time:

    * ``"raise"`` (default) — propagate a typed
      :class:`~repro.errors.ReproError` naming the stage;
    * ``"skip"`` — roll the stage back (its effect is dropped entirely)
      and continue with the remaining stages;
    * ``"identity"`` — roll the stage back but register identity
      reordering functions under the stage's symbolic UFS names, so the
      plan's transformed relations still bind.

    Both permissive policies record the fallback in the result's
    :class:`~repro.runtime.report.PipelineReport` and issue a
    :class:`~repro.errors.DegradedPlanWarning`; callers that need a proof
    should re-run the runtime verifier (``CompositionPlan.bind`` does).
    """

    def __init__(
        self,
        steps: List[Step],
        remap: str = "once",
        on_stage_failure: str = "raise",
    ):
        if remap not in ("once", "each"):
            raise ValidationError("remap must be 'once' or 'each'")
        if on_stage_failure not in FAILURE_POLICIES:
            raise ValidationError(
                f"unknown on_stage_failure policy {on_stage_failure!r}",
                hint=f"choose one of {FAILURE_POLICIES}",
            )
        self.steps = list(steps)
        self.remap = remap
        self.on_stage_failure = on_stage_failure

    def _run_stage(
        self,
        state: InspectorState,
        index: int,
        step: Step,
        report: PipelineReport,
        body: StageBody,
        memo,
    ) -> None:
        """Run one stage transactionally under the failure policy."""
        state.current_index = index
        touches_before = sum(state.overhead.values())
        snap = None
        if self.on_stage_failure != "raise":
            snap = state.snapshot()
        start = time.perf_counter()
        state.output = None
        state.replay = memo.recall(index) if memo is not None else None
        try:
            step.check_preconditions(state)
            tiling_before = state.tiling
            body(state, index, step)
            # Guard a stage that assigns a tiling.  The renumbering in
            # apply_data_reordering / apply_iteration_reordering keeps
            # the tiling object: one permutation moves both ends of
            # every dependence, so a legal tiling stays legal.
            if state.tiling is not None and state.tiling is not tiling_before:
                validate_tiling(state, f"{index}:{step.name}")
        except Exception as exc:
            elapsed = time.perf_counter() - start
            if isinstance(exc, ReproError):
                fault = exc
            else:
                fault = InspectorFault(
                    f"inspector stage crashed: "
                    f"{type(exc).__name__}: {exc}",
                    stage=f"{index}:{step.name}",
                    hint="the stage's inspector raised mid-run; state has "
                    "been rolled back" if snap is not None else None,
                )
            if self.on_stage_failure == "raise":
                report.record(
                    StageRecord(
                        index, step.name, STAGE_FAILED, elapsed,
                        error=str(fault), error_type=type(fault).__name__,
                    )
                )
                raise fault from (exc if fault is not exc else None)
            state.restore(snap)
            status = STAGE_SKIPPED
            if self.on_stage_failure == "identity":
                state.current_index = index
                step.identity_fallback(state)
                status = STAGE_IDENTITY
            report.record(
                StageRecord(
                    index, step.name, status, elapsed,
                    error=str(fault), error_type=type(fault).__name__,
                )
            )
            warnings.warn(
                DegradedPlanWarning(
                    f"stage {index} ({step.name}) failed and was "
                    + ("replaced by the identity"
                       if status == STAGE_IDENTITY else "skipped")
                    + f": {fault}",
                    stage=f"{index}:{step.name}",
                ),
                stacklevel=3,
            )
            return
        elapsed = time.perf_counter() - start
        replayed = state.replay is not None
        report.record(
            StageRecord(
                index, step.name, STAGE_OK, elapsed,
                touches=sum(state.overhead.values()) - touches_before,
                replayed=replayed,
            )
        )
        if memo is not None and not replayed and state.output is not None:
            memo.keep(index, state.output)

    def run(
        self,
        data: KernelData,
        cache=None,
        cache_key: Optional[str] = None,
    ) -> InspectorResult:
        """Run the composed inspector — consulting ``cache`` first.

        With a :class:`~repro.plancache.PlanCache`, the run is memoized
        under ``cache_key`` (computed from the steps, policies, code
        salt, and the dataset's content fingerprint when not supplied):
        a hit replays the realized index arrays against the live payload
        when its executor state is first read, and **no inspector stage
        executes**.  A miss runs every stage
        through the cache's *stage memo*: stage ``k``'s inspector output
        depends only on the dataset and steps ``0..k``, so a stage whose
        step prefix an earlier bind of this dataset ran takes that
        output and runs only the mechanics applying it (under this
        bind's remap policy), and a stage that ran its inspector keeps
        its output for later binds.  The finished result is persisted.
        Hit/miss/replay counters land in ``cache.stats``.
        """
        stages = None
        if cache is not None:
            from repro.plancache import memo
            from repro.plancache.fingerprint import (
                combine,
                dataset_fingerprint,
                inspector_fingerprint,
                stage_fingerprints,
            )

            if cache_key is None:
                cache_key = combine(
                    inspector_fingerprint(
                        self.steps, self.remap, self.on_stage_failure
                    ),
                    dataset_fingerprint(data),
                )
            hit = memo.lookup(cache, cache_key, data, self.steps)
            if hit is not None:
                return hit
            stages = memo.StageMemo(
                cache,
                stage_fingerprints(
                    self.steps, data, self.remap, self.on_stage_failure
                ),
                self.steps,
            )
        result = self._stage_loop(data, run_step, stages)
        if cache is not None:
            memo.store(cache, cache_key, result, self.steps)
        return result

    def run_stages(
        self, data: KernelData, body: StageBody = run_step
    ) -> InspectorResult:
        """Run every stage against a copy of ``data``, no cache consulted.

        ``body(state, index, step)`` is what a stage runs: the step's
        inspector by default; a delta-bind passes its patch rules.
        Either way each stage gets the same record, the same typed
        wrapping of a crash and the same tiling guard."""
        return self._stage_loop(data, body, None)

    def _stage_loop(
        self, data: KernelData, body: StageBody, memo
    ) -> InspectorResult:
        """The one stage loop.  ``memo`` (a
        :class:`~repro.plancache.memo.StageMemo`, from :meth:`run`'s cold
        path only) offers each stage a memoised inspector output and
        keeps the output of every stage that ran its inspector and
        finished ``ok``."""
        working = data.copy()
        n = working.num_nodes
        state = InspectorState(
            data=working,
            remap=self.remap,
            sigma_total=identity_reordering(n, "sigma"),
        )
        report = PipelineReport(
            plan_name="+".join(step.name for step in self.steps) or "baseline",
            policy=self.on_stage_failure,
        )
        for index, step in enumerate(self.steps):
            self._run_stage(state, index, step, report, body, memo)
        state.finalize_payload()

        return InspectorResult(
            transformed=state.data,
            sigma_nodes=state.sigma_total,
            tiling=state.tiling,
            overhead=dict(state.overhead),
            data_moves=state.data_moves,
            stage_functions=dict(state.stage_functions),
            report=report,
        )
