"""The step table is the one definition of every reordering step.

Two halves:

* an AST guard: outside :mod:`repro.runtime.steps`, no module under
  ``src/repro`` switches on a step — no ``isinstance`` against a step
  class, no comparison or membership test against a step-name literal,
  no dict literal keyed by step names.  Each :data:`ALLOWED` entry says
  why it is not such a switch, and an unused allowance fails;
* a toy ``reverse`` data reordering registered in one place, which must
  then work everywhere a built-in step does.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import BindError, ValidationError
from repro.runtime import steps as step_table
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

SRC = Path(repro.__file__).parent
TABLE = "runtime/steps.py"

#: Every step class the table module defines, shells included.
STEP_CLASSES = {
    name
    for name, obj in vars(step_table).items()
    if isinstance(obj, type) and issubclass(obj, Step)
}

#: Stage names and spec types of every registered step.
STEP_NAMES = {cls.name for cls in registered()} | set(STEP_TYPES)

#: ``(module, function, finding)`` -> why it is not a step switch.
ALLOWED = {
    ("eval/compositions.py", "<module>", "dict"): (
        "keys are the paper's composition names (Figure 6 labels such as "
        "'cpack' and 'cpack+fst'), which name step lists, not steps"
    ),
}


def _names(node):
    """Identifiers a class operand refers to (``X``, ``m.X``, tuples)."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _literals(node):
    """String constants an operand spells (one, or a tuple/list/set)."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {value for elt in node.elts for value in _literals(elt)}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def step_switches(path):
    """``(function, finding, line)`` for every step switch in ``path``."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names(node.args[1]) & STEP_CLASSES
        ):
            found.append((function, "isinstance", node.lineno))
        if isinstance(node, ast.Compare) and any(
            _literals(operand) & STEP_NAMES
            for operand in [node.left, *node.comparators]
        ):
            found.append((function, "compare", node.lineno))
        if isinstance(node, ast.Dict) and any(
            key is not None and _literals(key) & STEP_NAMES for key in node.keys
        ):
            found.append((function, "dict", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _all_switches():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == TABLE:
            continue
        for function, finding, line in step_switches(path):
            yield module, function, finding, line


class TestGuard:
    def test_no_module_switches_on_a_step(self):
        offenders = [
            f"{module}:{line} {function}() {finding}"
            for module, function, finding, line in _all_switches()
            if (module, function, finding) not in ALLOWED
        ]
        assert not offenders, (
            "a step switch outside the step table — read the step's "
            "definition (traits, params, delta, emit) instead, or add an "
            "ALLOWED entry saying why it is not a switch:\n"
            + "\n".join(offenders)
        )

    def test_every_allowance_is_in_use(self):
        """An entry whose finding is gone is deleted, not kept for later."""
        used = {(m, f, k) for m, f, k, _ in _all_switches()}
        assert set(ALLOWED) <= used

    def test_guard_sees_planted_switches(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "TABLE = {'lexgroup': 1}\n"
            "def f(step):\n"
            "    if isinstance(step, (CPackStep, m.GPartStep)):\n"
            "        return step.name == 'cpack'\n"
            "    return step.name in ('lg', 'ls') or step.kind == 'data'\n"
        )
        assert [(fn, kind) for fn, kind, _ in step_switches(planted)] == [
            ("<module>", "dict"),
            ("f", "isinstance"),
            ("f", "compare"),
            ("f", "compare"),
        ]


# ---------------------------------------------------------------------------
# A toy step, defined in one place.


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
