"""One bind implementation, one backend selection.

An AST guard:

* no function in ``service/fleet.py`` materializes a dataset
  (``make_kernel_data`` / ``generate_dataset``) or binds a
  ``CompositionPlan`` itself (``.bind`` / ``.rebind`` on a plan).  A
  shard, like ``PlanService`` and the fleet's all-shards-dark fallback,
  binds through ``service/binder.py::LocalBinder``; a second handle
  table and bind call in the worker drift from it (they once skipped the
  delta path and replayed pinned epochs from epoch 0);
* ``repro/backends.py`` defines no ``resolve``: backend selection is
  ``lowering/executor.py::resolve_executor_backend`` alone, and
  ``backends`` holds the settings table.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
FLEET = SRC / "service" / "fleet.py"
BACKENDS = SRC / "backends.py"

#: Calls that materialize a dataset.
DATASET_CALLS = {"make_kernel_data", "generate_dataset"}

#: Calls that build a ``CompositionPlan``.
PLAN_FACTORIES = {"plan_from_spec", "CompositionPlan"}

#: Functions ``backends.py`` may not define again.
GONE_FROM_BACKENDS = {"resolve"}


def _called(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _plan_names(tree):
    """Names assigned a freshly built plan anywhere in the module."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and _called(node.value) in PLAN_FACTORIES
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _is_plan(expr, plan_names):
    if isinstance(expr, ast.Call):
        return _called(expr) in PLAN_FACTORIES
    if isinstance(expr, ast.Name):
        return expr.id == "plan" or expr.id in plan_names
    if isinstance(expr, ast.Attribute):
        return expr.attr == "plan"
    return False


def fleet_offences(path):
    """``(line, what)`` of every dataset materialization and every plan
    bind inside a function of ``path``."""
    tree = ast.parse(path.read_text())
    plans = _plan_names(tree)
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            name = _called(call)
            if name in DATASET_CALLS:
                found.add((call.lineno, f"{function.name} calls {name}"))
            elif (
                name in ("bind", "rebind")
                and isinstance(call.func, ast.Attribute)
                and _is_plan(call.func.value, plans)
            ):
                found.add((call.lineno, f"{function.name} calls plan.{name}"))
    return sorted(found)


def backend_offences(path):
    """``(line, what)`` of every definition of a gone resolver."""
    return sorted(
        (node.lineno, f"defines {node.name}")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in GONE_FROM_BACKENDS
    )


def test_the_guarded_code_exists():
    """A renamed worker or binder would silently guard nothing: the
    shard's main builds a ``LocalBinder``, and the executor defines the
    one resolver."""
    tree = ast.parse(FLEET.read_text())
    (worker,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "_fleet_worker_main"
    ]
    assert any(
        isinstance(call, ast.Call) and _called(call) == "LocalBinder"
        for call in ast.walk(worker)
    )
    executor = ast.parse((SRC / "lowering" / "executor.py").read_text())
    assert "resolve_executor_backend" in {
        node.name
        for node in ast.walk(executor)
        if isinstance(node, ast.FunctionDef)
    }


def test_one_binder():
    bad = [
        f"service/fleet.py:{line} {what}"
        for line, what in fleet_offences(FLEET)
    ] + [
        f"backends.py:{line} {what}"
        for line, what in backend_offences(BACKENDS)
    ]
    assert not bad, (
        "a shard binds through LocalBinder (service/binder.py) and the "
        "executor backend is resolved by resolve_executor_backend alone:\n"
        + "\n".join(bad)
    )


def test_guard_sees_planted_offences(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def _fleet_worker_main(message, handles, flight):\n"
        "    data = make_kernel_data('moldyn', generate_dataset('mol1'))\n"
        "    spec_plan = plan_from_spec(message['spec'])\n"
        "    spec_plan.bind(data)\n"
        "    flight.plan.rebind(data, message['delta'], cache=None)\n"
        "    plan_from_spec(message['spec']).bind(data)\n"
        "    binder.bind(message['request'], plan_from_spec(message['spec']))\n"
        "def resolve(requested, *, subsystem):\n"
        "    return requested\n"
    )
    assert fleet_offences(planted) == [
        (2, "_fleet_worker_main calls generate_dataset"),
        (2, "_fleet_worker_main calls make_kernel_data"),
        (4, "_fleet_worker_main calls plan.bind"),
        (5, "_fleet_worker_main calls plan.rebind"),
        (6, "_fleet_worker_main calls plan.bind"),
    ]
    assert backend_offences(planted) == [(8, "defines resolve")]
