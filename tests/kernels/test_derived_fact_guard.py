"""Per-dataset facts have one home: ``KernelData.derived``.

An AST guard: outside :mod:`repro.kernels.data`, no module under
``src/repro`` attaches a fact to an object it does not own —

* no ``setattr`` on anything but ``self``;
* no assignment to a private (``_``-prefixed) attribute of anything but
  ``self``: a public attribute is a field its owner declares for
  callers to fill in (``report.cache``, ``flight.result``), a private
  one bolted on from outside is a memo its owner cannot invalidate
  (dunder markers on function objects, ``fn.__generated_source__``,
  are neither);
* no ``getattr`` of a name ending in ``_memo``.

Each :data:`ALLOWED` entry says why it is not such a fact, an unused
allowance fails, and the list may only shrink.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
HOME = "kernels/data.py"

#: ``(module, function, finding)`` -> why it is not a derived fact.
ALLOWED = {
    ("runtime/faults.py", "__setattr__", "setattr"): (
        "the fault-injection proxy forwards its own attribute writes to "
        "the step it wraps, so the step sees what it would have set"
    ),
}


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def fact_attachments(path):
    """``(function, finding, line)`` for every foreign attachment."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name == "setattr" and not (args and _is_self(args[0])):
                found.append((function, "setattr", node.lineno))
            if (
                name == "getattr"
                and len(args) >= 2
                and isinstance(args[1], ast.Constant)
                and isinstance(args[1].value, str)
                and args[1].value.endswith("_memo")
            ):
                found.append((function, "getattr-memo", node.lineno))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not _is_self(node.value)
        ):
            found.append((function, "private-store", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _all_attachments():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == HOME:
            continue
        for function, finding, line in fact_attachments(path):
            yield module, function, finding, line


def test_no_module_attaches_a_fact_outside_kernel_data():
    offenders = [
        f"{module}:{line} {function}() {finding}"
        for module, function, finding, line in _all_attachments()
        if (module, function, finding) not in ALLOWED
    ]
    assert not offenders, (
        "a fact attached to a foreign object — derive it through "
        "KernelData.derived (it freezes what it read and forgets on "
        "reassignment), or pass it to the owner's constructor:\n"
        + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose finding is gone is deleted, not kept for later."""
    used = {(m, f, k) for m, f, k, _ in _all_attachments()}
    assert set(ALLOWED) <= used


def test_guard_sees_planted_attachments(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def fingerprint(data):\n"
        "    memo = getattr(data, '_fingerprint_memo', None)\n"
        "    data._fingerprint_memo = {}\n"
        "    setattr(data, 'digest', 1)\n"
        "    data.result = 2\n"
        "    fn.__marker__ = True\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        setattr(self, 'x', 1)\n"
    )
    assert [(fn, kind) for fn, kind, _ in fact_attachments(planted)] == [
        ("fingerprint", "getattr-memo"),
        ("fingerprint", "private-store"),
        ("fingerprint", "setattr"),
    ]

