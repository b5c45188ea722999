"""Sparse tiling has one legality check: ``transforms/fst.py::check_tiling``.

An AST guard over ``src/repro``:

* nothing defines ``verify_tiling``, ``verify_sweep_tiling`` or
  ``SweepTiling`` — the concatenated-edge checker, the Gauss--Seidel
  checker and the sweep tiling type that ``check_tiling`` and
  ``TilingFunction`` replaced (the first two live on only as test
  oracles, in ``tests/transforms/tiling_oracle.py``);
* neither ``validate_tiling`` (the bind-time guard) nor
  ``check_tiling`` reads a ``left`` / ``right`` attribute.  A kernel's
  dependence shape is written once, in ``dependence_edges``; a guard
  that gathers through the index arrays itself is a second statement of
  it, and the two drift apart.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Names no module may define again.
GONE = {"verify_tiling", "verify_sweep_tiling", "SweepTiling"}

#: The checks that may read the dependences only through edge sets.
CHECKS = {"validate_tiling", "check_tiling"}

#: The index-array attributes only ``dependence_edges`` reads for them.
SHAPE = {"left", "right"}


def offences(path):
    """``(line, what)`` of every definition of a gone name and every
    ``left``/``right`` attribute read inside a check in ``path``."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name in GONE:
            found.append((node.lineno, f"defines {node.name}"))
        if node.name in CHECKS:
            found.extend(
                (inner.lineno, f"{node.name} reads .{inner.attr}")
                for inner in ast.walk(node)
                if isinstance(inner, ast.Attribute) and inner.attr in SHAPE
            )
    return sorted(found)


def test_the_checks_exist():
    """A renamed check would silently guard nothing."""
    defined = {
        node.name
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert CHECKS <= defined


def test_one_tiling_check():
    bad = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in offences(path)
    ]
    assert not bad, (
        "sparse tiling has one type (TilingFunction), one edge format "
        "(dependence_edges) and one check (fst.check_tiling):\n"
        + "\n".join(bad)
    )


def test_guard_sees_planted_offences(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class SweepTiling:\n"
        "    pass\n"
        "def verify_tiling(tiling, edges):\n"
        "    return True\n"
        "def validate_tiling(state, stage):\n"
        "    theta = state.tiling.tiles[0][state.data.left]\n"
        "def check_tiling(tiling, sizes, edges, stage):\n"
        "    return edges, tiling.right\n"
        "def dependence_edges(data):\n"
        "    return data.left, data.right\n"
    )
    assert offences(planted) == [
        (1, "defines SweepTiling"),
        (3, "defines verify_tiling"),
        (6, "validate_tiling reads .left"),
        (8, "check_tiling reads .right"),
    ]
