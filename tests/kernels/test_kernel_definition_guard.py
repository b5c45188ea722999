"""Each kernel is defined once: in :mod:`repro.kernels.specs`.

An AST guard: no module under ``src/repro`` holds a dict literal with
two or more kernel names as keys, except the two tables of
``kernels/specs.py`` that are the definition (:data:`DEFINITIONS`: the
kernel builders and ``STATEMENT_CODE``).  Any other such table is a
second definition of something the spec already says (a loop shape, a
record size, a step or phase function), and it drifts from the spec the
day a kernel changes.  Loop shapes, record bytes and executors are read
or emitted from the spec instead.  Each :data:`ALLOWED` entry says why
its table is not a kernel fact, an unused allowance fails, and the list
may only shrink.
"""

import ast
from pathlib import Path

import repro
from repro.kernels.specs import KERNEL_NAMES

SRC = Path(repro.__file__).parent

#: ``(module, name)`` of the tables that define the kernels.
DEFINITIONS = {
    ("kernels/specs.py", "_BUILDERS"),
    ("kernels/specs.py", "STATEMENT_CODE"),
}

#: ``(module, name the dict is bound to)`` -> why it is not a kernel fact.
ALLOWED = {
    ("eval/experiments.py", "BENCHMARK_DATASETS"): (
        "which datasets the paper's figures pair with each benchmark: a "
        "choice of the evaluation, not a fact of the kernel"
    ),
}


def _target(node, parents):
    """The name a dict literal is bound to, or its line number."""
    parent = parents.get(node)
    if isinstance(parent, (ast.Assign, ast.AnnAssign)):
        targets = (
            parent.targets if isinstance(parent, ast.Assign) else [parent.target]
        )
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names:
            return names[0]
    return f"line {node.lineno}"


def kernel_tables(path):
    """``(name, line)`` of every dict literal keyed by two or more
    kernel names."""
    tree = ast.parse(path.read_text())
    parents = {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        keys = {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        if len(keys & set(KERNEL_NAMES)) >= 2:
            found.append((_target(node, parents), node.lineno))
    return sorted(found, key=lambda item: item[1])


def _all_tables():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for name, line in kernel_tables(path):
            yield module, name, line


def test_no_module_keys_a_table_by_kernel_outside_specs():
    offenders = [
        f"{module}:{line} {name}"
        for module, name, line in _all_tables()
        if (module, name) not in DEFINITIONS | set(ALLOWED)
    ]
    assert not offenders, (
        "a table keyed by kernel names outside repro.kernels.specs — read "
        "the fact from kernel_by_name(...) or emit it from the lowered "
        "program instead:\n" + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose table is gone is deleted, not kept for later."""
    used = {(module, name) for module, name, _ in _all_tables()}
    assert set(ALLOWED) <= used


def test_the_definitions_are_where_the_guard_looks():
    used = {(module, name) for module, name, _ in _all_tables()}
    assert DEFINITIONS <= used


def test_guard_sees_planted_tables(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "LOOPS = {'moldyn': 3, 'nbf': 2}\n"
        "BYTES: dict = {'irreg': 16, 'nbf': 32, 'other': 0}\n"
        "ONE = {'moldyn': 1}\n"
        "def f():\n"
        "    return {'moldyn': 1, 'irreg': 2}\n"
    )
    assert [name for name, _ in kernel_tables(planted)] == [
        "LOOPS", "BYTES", "line 5",
    ]
