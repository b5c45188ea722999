"""The step table is the one definition of every reordering step: a toy
``reverse`` data reordering registered in one place must then work
everywhere a built-in step does.  That nothing outside the table switches
on a step is the ``step_switch`` row of ``tests/architecture/rules.py``.
"""

import numpy as np
import pytest

from repro.errors import BindError, ValidationError
from repro.runtime.steps import (
    STEP_TYPES,
    CPackStep,
    DataReorderStep,
    FullSparseTilingStep,
    Step,
    register,
    registered,
    unregister,
)
from repro.transforms.base import ReorderingFunction, TransformTraits


class ReverseStep(DataReorderStep):
    """``sigma[i] = n - 1 - i``: reads nothing, so it is legal anywhere."""

    name = "rev"
    spec_type = "reverse"
    symbol_prefix = "rev"
    traits = TransformTraits(
        "data", reads=(), writes=("node_space",), order_sensitive=False
    )

    def reorder(self, state, counter):
        n = state.data.num_nodes
        counter["touches"] = n
        return ReorderingFunction(
            f"rev{state.current_index}", np.arange(n - 1, -1, -1)
        )

    def emit(self, w, index, kernel):
        w.line(f"rev{index} = np.arange(num_nodes - 1, -1, -1, dtype=np.int64)")
        return f"rev{index}"


SPEC = {"kernel": "moldyn", "name": "toy", "steps": ["reverse"]}


@pytest.fixture
def reverse():
    register(ReverseStep)
    yield ReverseStep
    unregister(ReverseStep)


@pytest.fixture(scope="module")
def data():
    from repro.kernels import generate_dataset, make_kernel_data

    return make_kernel_data("moldyn", generate_dataset("mol1", scale=256))


class TestToyStep:
    def test_parses_from_a_spec(self, reverse):
        from repro.runtime import plan_from_spec

        plan = plan_from_spec(SPEC)
        assert [type(s) for s in plan.steps] == [ReverseStep]
        assert plan.name == "toy"

    def test_lints_clean(self, reverse):
        from repro.runtime import plan_from_spec

        report = plan_from_spec(SPEC).analyze()
        assert report.diagnostics == []
        assert report.exit_code() == 0

    def test_plans_with_legality_proven(self, reverse):
        from repro.runtime import plan_from_spec

        plan = plan_from_spec(SPEC)
        plan.plan(strict=True)
        planned = plan.planned_transformations
        assert planned and all(p.report.proven for p in planned)
        assert {p.step_name for p in planned} == {"rev"}

    def test_binds_bit_identical_to_the_hand_computed_reference(
        self, reverse, data
    ):
        from repro.runtime import plan_from_spec

        result = plan_from_spec(SPEC).bind(data, verify=True)
        n = data.num_nodes
        assert np.array_equal(result.sigma_nodes.array, np.arange(n)[::-1])
        assert np.array_equal(result.transformed.left, n - 1 - data.left)
        assert np.array_equal(result.transformed.right, n - 1 - data.right)
        for name, values in data.arrays.items():
            assert result.transformed.arrays[name].tobytes() == (
                values[::-1].tobytes()
            )
        assert result.overhead["rev"] == n
        assert result.report.verified is True

    def test_round_trips_byte_stable(self, reverse):
        from repro.runtime import plan_from_spec
        from repro.runtime.planspec import dumps_plan_spec, plan_to_spec

        once = dumps_plan_spec(plan_to_spec(plan_from_spec(SPEC)))
        assert '"type": "reverse"' in once
        import json

        again = dumps_plan_spec(plan_to_spec(plan_from_spec(json.loads(once))))
        assert again == once

    def test_fingerprints_distinctly_from_cpack(self, reverse):
        from repro.plancache.fingerprint import plan_fingerprint, step_fingerprint
        from repro.runtime import plan_from_spec

        assert step_fingerprint(ReverseStep()) != step_fingerprint(CPackStep())
        cpack_plan = plan_from_spec({**SPEC, "steps": ["cpack"]})
        assert plan_fingerprint(plan_from_spec(SPEC)) != plan_fingerprint(
            cpack_plan
        )

    def test_generates_the_library_inspector(self, reverse, data):
        from repro.codegen import compile_source, generate_inspector_source
        from repro.runtime import ComposedInspector, plan_from_spec

        plan = plan_from_spec(
            {**SPEC, "steps": ["cpack", "reverse", "lexgroup", "fst"]}
        )
        fn = compile_source(
            generate_inspector_source(plan.kernel, plan.steps), "moldyn_inspector"
        )
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
        )
        lib = ComposedInspector(plan.steps).run(data)
        assert np.array_equal(out["sigma"], lib.sigma_nodes.array)
        assert np.array_equal(out["left"], lib.transformed.left)
        assert np.array_equal(out["right"], lib.transformed.right)
        for k in data.arrays:
            assert np.array_equal(out["arrays"][k], lib.transformed.arrays[k])
        assert len(out["schedule"]) == len(lib.plan.schedule)

    def test_unregistered_it_is_gone(self, reverse):
        from repro.runtime import make_step

        unregister(ReverseStep)
        try:
            with pytest.raises(BindError, match="unknown step type"):
                make_step("reverse")
            assert ReverseStep not in registered()
        finally:
            register(ReverseStep)


class TestRegistration:
    def test_a_clashing_name_is_refused(self):
        class Impostor(DataReorderStep):
            name = "cpack"
            spec_type = "impostor"

        with pytest.raises(ValidationError, match="clashes"):
            register(Impostor)
        assert STEP_TYPES["cpack"] is CPackStep
        assert "impostor" not in STEP_TYPES

    def test_unregistering_an_unknown_class_is_refused(self):
        with pytest.raises(ValidationError, match="not registered"):
            unregister(ReverseStep)

    def test_subclasses_are_not_their_parent(self):
        """Registration is by exact class: a subclass of a registered step
        neither serializes nor inherits a delta rule it renamed away from.
        The lying fault step keeps the name ``fst`` and so its delta rule;
        a fault wrapper carries none."""
        from repro.runtime.faults import CORRUPTORS, FaultyStep, _LyingSymmetryStep
        from repro.runtime.planspec import step_to_spec

        from tests.analysis.conftest import UninspectedTilingStep

        lying = _LyingSymmetryStep(FullSparseTilingStep(8))
        uninspected = UninspectedTilingStep(8)
        for step in (lying, uninspected):
            with pytest.raises(ValidationError, match="no plan-spec type"):
                step_to_spec(step)
        assert lying.delta is FullSparseTilingStep.delta
        assert uninspected.delta is None
        wrapped = FaultyStep(CPackStep(), CORRUPTORS["swap-entries"])
        assert wrapped.name == "cpack" and wrapped.delta is None

    def test_every_definition_declares_itself(self):
        for cls in registered():
            assert cls.traits is not Step.traits, cls.name
            assert cls.traits.kind in ("data", "iteration", "tiling"), cls.name
            assert cls.emit is not None, cls.name
            assert cls.__doc__, cls.name
