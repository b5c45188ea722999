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
* no ``getattr`` of a name ending in ``_memo``;
* no module-level container store: a module-level name bound to an
  empty ``dict``, ``list``, ``set`` or ``OrderedDict``, filled at run
  time, is a process-wide memo beside the instance it describes (the
  verification verdicts lived in one until they became facts of the
  dataset they judged).  Such a finding is keyed by the name it binds.

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
    ("kernels/specs.py", "_KERNELS", "module-container"): (
        "one immutable Kernel IR per kernel name: a fact of the kernel's "
        "source, the same for every dataset"
    ),
    ("lowering/executor.py", "_MEMO", "module-container"): (
        "compiled executors keyed by kernel, backend and code: a program "
        "is bound to arrays per call and keeps none of them"
    ),
    ("lowering/toolchain.py", "_VERSION_CACHE", "module-container"): (
        "the version string of each compiler on the host, read once"
    ),
    ("runtime/steps.py", "_BY_NAME", "module-container"): (
        "the step table: stage name -> step class, filled at import by "
        "@register"
    ),
    ("runtime/steps.py", "_BY_SPEC_TYPE", "module-container"): (
        "the step table: plan-spec type -> step class, filled at import "
        "by @register"
    ),
}

#: Constructors whose no-argument call builds an empty container.
CONTAINERS = ("dict", "list", "set", "OrderedDict")


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Call) and not (node.args or node.keywords):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        return name in CONTAINERS
    return False


def module_containers(tree):
    """``(name, "module-container", line)`` for every module-level name
    bound to an empty container."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_empty_container(value):
            found += [
                (target.id, "module-container", node.lineno)
                for target in targets
                if isinstance(target, ast.Name)
            ]
    return found


def fact_attachments(path):
    """``(function, finding, line)`` for every foreign attachment, and
    ``(name, finding, line)`` for every module-level container."""
    tree = ast.parse(path.read_text())
    found = module_containers(tree)

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
        f"{module}:{line} {function}: {finding}"
        for module, function, finding, line in _all_attachments()
        if (module, function, finding) not in ALLOWED
    ]
    assert not offenders, (
        "a fact attached to a foreign object or kept in a module-level "
        "container — derive it through KernelData.derived (it freezes "
        "what it read and forgets on reassignment), or pass it to the "
        "owner's constructor:\n"
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
        "_VERDICTS: Dict[tuple, bool] = {}\n"
        "_SEEN = set()\n"
        "_ORDER = collections.OrderedDict()\n"
        "_A = _B = []\n"
        "TABLE = {'moldyn': 1}\n"
        "NAMES = dict(a=1)\n"
        "_generation = 0\n"
    )
    assert [(fn, kind) for fn, kind, _ in fact_attachments(planted)] == [
        ("_VERDICTS", "module-container"),
        ("_SEEN", "module-container"),
        ("_ORDER", "module-container"),
        ("_A", "module-container"),
        ("_B", "module-container"),
        ("fingerprint", "getattr-memo"),
        ("fingerprint", "private-store"),
        ("fingerprint", "setattr"),
    ]

