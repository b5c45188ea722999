"""Every bind runs its stages through one loop: the composed inspector's.

An AST guard: no module under ``src/repro`` but ``runtime/inspector.py``
calls ``InspectorState(``, ``StageRecord(`` or ``InspectorResult(``.
A second place that sets up inspector state and records stages is a
second stage loop, and it drifts from the first: it skips the tiling
guard, or lets a crash escape untyped.  A delta-bind passes its patch
rules to :meth:`~repro.runtime.inspector.ComposedInspector.run_stages`
as the stage body instead.  Each :data:`ALLOWED` entry says why its
module builds one without running a stage, an unused allowance fails,
and the list may only shrink.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The module that holds the stage loop.
HOME = "runtime/inspector.py"

#: The constructors only the stage loop calls.
GUARDED = ("InspectorState", "StageRecord", "InspectorResult")

#: ``(module, constructor)`` -> why that module builds one outside the
#: stage loop.
ALLOWED = {
    ("plancache/memo.py", "InspectorResult"): (
        "a warm hit rehydrates a stored result: no stage runs, so no "
        "inspector state or stage record is built"
    ),
}


def constructor_calls(path):
    """``(constructor, line)`` of every call to a guarded name, bare or
    as an attribute (``inspector.InspectorState(...)``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in GUARDED:
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def _all_calls():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for name, line in constructor_calls(path):
            yield module, name, line


def test_only_the_stage_loop_builds_inspector_state():
    offenders = [
        f"{module}:{line} {name}("
        for module, name, line in _all_calls()
        if module != HOME and (module, name) not in ALLOWED
    ]
    assert not offenders, (
        "a stage loop outside repro.runtime.inspector — pass a stage body "
        "to ComposedInspector.run_stages instead:\n" + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose call is gone is deleted, not kept for later."""
    used = {(module, name) for module, name, _ in _all_calls()}
    assert set(ALLOWED) <= used


def test_the_stage_loop_is_where_the_guard_looks():
    built = {name for module, name, _ in _all_calls() if module == HOME}
    assert built == set(GUARDED)


def test_guard_sees_planted_calls(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.runtime import inspector\n"
        "from repro.runtime.report import StageRecord\n"
        "def replay(data):\n"
        "    state = inspector.InspectorState(data=data)\n"
        "    record = StageRecord(0, 'fst', 'ok')\n"
        "    return inspector.InspectorResult, state, record\n"
        "InspectorResult = None\n"
    )
    assert constructor_calls(planted) == [
        ("InspectorState", 4), ("StageRecord", 5),
    ]
