"""No per-node or per-edge Python loop in the guarded inspectors, checked
on the syntax tree.

An inspector that walks nodes or edges one at a time in Python costs a
boxed scalar per element; the guarded modules sweep whole frontiers or
segments with NumPy instead.  In a guarded module, a ``deque`` or a
``for`` statement / comprehension whose iterable is ``range(...)`` or a
``.tolist()`` call is either a regression to such a walk or needs a line
in :data:`ALLOWED` saying what it counts instead.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

GUARDED = [
    "transforms/gpart.py",
]

#: ``(module, function, loop variable)`` -> what the loop counts, and why
#: that is not a node or an edge.
ALLOWED = {
    ("transforms/gpart.py", "_adjacency_from_access_map", "w"): (
        "the distinct row widths of a ragged access map (fewer than "
        "sqrt(2 * len(locations)) of them), each one vectorised pass over "
        "the rows of that width"
    ),
}


def _is_element_iterable(node):
    """``range(...)`` or ``<expr>.tolist()``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "range"
    return isinstance(func, ast.Attribute) and func.attr == "tolist"


def _loop_findings(path):
    """``(enclosing function, what, line)`` of every ``deque`` mention and
    every loop over ``range(...)`` / ``.tolist()``; ``what`` is
    ``"deque"`` or the loop variable's source text."""
    tree = ast.parse(path.read_text())
    found = []

    def loop(target, iterable, function):
        if _is_element_iterable(iterable):
            found.append((function, ast.unparse(target), iterable.lineno))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loop(node.target, node.iter, function)
        elif isinstance(node, ast.comprehension):
            loop(node.target, node.iter, function)
        elif (
            (isinstance(node, ast.Name) and node.id == "deque")
            or (isinstance(node, ast.Attribute) and node.attr == "deque")
            or (isinstance(node, ast.alias) and node.name == "deque")
        ):
            found.append((function, "deque", getattr(node, "lineno", 0)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_guarded_modules_walk_no_element_loop():
    offenders = [
        f"{module}:{line} {function}() "
        + ("uses a deque" if what == "deque" else f"loops {what} over range/tolist")
        for module in GUARDED
        for function, what, line in _loop_findings(SRC / module)
        if (module, function, what) not in ALLOWED
    ]
    assert not offenders, (
        "per-element Python loop on the inspector path — sweep with NumPy, "
        "or add an ALLOWED entry saying what the loop counts:\n"
        + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose loop is gone is deleted, not kept for later."""
    used = {
        (module, function, what)
        for module in GUARDED
        for function, what, _ in _loop_findings(SRC / module)
    }
    assert set(ALLOWED) <= used


def test_guard_sees_a_planted_loop(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from collections import deque\n"
        "import collections\n"
        "def f(xs, n):\n"
        "    q = collections.deque()\n"
        "    for i in range(n):\n"
        "        q.append(i)\n"
        "    ys = [x + 1 for x in xs.tolist()]\n"
        "    for x in xs:\n"
        "        pass\n"
        "    return {k: v for k, v in zip(xs, ys)}\n"
    )
    assert [(fn, what) for fn, what, _ in _loop_findings(planted)] == [
        ("<module>", "deque"),
        ("f", "deque"),
        ("f", "i"),
        ("f", "x"),
    ]
