"""A plan-cache hit copies nothing before its executor state is read.

An AST guard: :func:`repro.plancache.memo.entry_to_result` calls
``astype`` (the widening of a stored array) or ``apply_to_data`` (the
payload gather) only inside its nested ``executor_state`` builder, which
the result runs on the first read of ``transformed`` or ``tiling``.  A
widening or gather anywhere else in the function runs on every hit
whether or not anything executes the bind, and a response reads only
digests, the report and ``overhead``.
"""

import ast
from pathlib import Path

import repro

MEMO = Path(repro.__file__).parent / "plancache" / "memo.py"

#: The function that rehydrates a hit, and its one builder.
FUNCTION = "entry_to_result"
BUILDER = "executor_state"

#: Calls that build executor state.
BUILDING_CALLS = {"astype", "apply_to_data"}


def _called(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def eager_builds(source):
    """``(call, line)`` of every building call in ``entry_to_result``
    outside its ``executor_state``; raises if either is missing."""
    tree = ast.parse(source)
    function = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == FUNCTION
    )
    builders = [
        node
        for node in function.body
        if isinstance(node, ast.FunctionDef) and node.name == BUILDER
    ]
    assert len(builders) == 1, f"{FUNCTION} must define one {BUILDER}()"
    found = []

    def visit(node):
        if node is builders[0]:
            return
        if isinstance(node, ast.Call) and _called(node) in BUILDING_CALLS:
            found.append((_called(node), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(function)
    return sorted(found, key=lambda item: item[1])


def test_a_hit_builds_executor_state_only_in_its_builder():
    offenders = eager_builds(MEMO.read_text())
    assert not offenders, (
        f"memo.{FUNCTION} widens or gathers outside {BUILDER}() — every "
        "hit would pay for state its response does not read:\n"
        + "\n".join(f"memo.py:{line} {call}()" for call, line in offenders)
    )


def test_guard_sees_planted_eager_builds():
    planted = (
        "def entry_to_result(entry, data):\n"
        "    left = entry.arrays['left'].astype(np.int64)\n"
        "    def executor_state():\n"
        "        return sigma.apply_to_data(data.arrays['x']).astype(float)\n"
        "    check = lambda: sigma.apply_to_data(data.arrays['x'])\n"
        "    return left\n"
    )
    assert eager_builds(planted) == [("astype", 2), ("apply_to_data", 5)]
