"""No comparison sort on the inspector path, checked on the syntax tree.

The inspectors sort and group by ids below a known bound, so they go
through :mod:`repro.transforms.sorting`.  A call to ``argsort``,
``np.unique``, ``np.sort`` or ``np.lexsort`` in one of the guarded
modules — the primitive module included — is either a regression to an
``O(n log n)`` inspector or needs a line in :data:`ALLOWED` saying why a
bounded-key pass cannot do it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

GUARDED = [
    "transforms/sorting.py",
    "transforms/cpack.py",
    "transforms/lexgroup.py",
    "transforms/bucket_tiling.py",
    "transforms/tilepack.py",
    "transforms/gpart.py",
    "transforms/parallel.py",
    "transforms/fst_sweeps.py",
    "transforms/tile_schedule.py",
    "runtime/validate.py",
    "lowering/schedule.py",
]

COMPARISON_SORTS = {"argsort", "unique", "sort", "lexsort"}

#: ``(module, function, call)`` -> why it stays.
ALLOWED = {
    ("transforms/sorting.py", "_radix_argsort", "argsort"): (
        "the per-digit pass of the radix sort itself: NumPy's stable sort "
        "of uint16 keys is a counting sort"
    ),
    ("transforms/sorting.py", "distinct_edges", "sort"): (
        "packed src * n + dst keys reach n ** 2: more 16-bit digit passes "
        "than np.sort costs, and the values are wanted, not the order"
    ),
    ("transforms/lexgroup.py", "lexsort", "lexsort"): (
        "a genuine multi-key sort: one key per touched location, as many "
        "keys as the widest row"
    ),
}


def _sort_calls(path):
    """``(enclosing function, attribute name, line)`` of every call to a
    comparison sort, as ``np.f(...)`` or as a method ``x.f(...)``."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in COMPARISON_SORTS
        ):
            found.append((function, node.func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_guarded_modules_call_no_comparison_sort():
    offenders = [
        f"{module}:{line} {function}() calls {call}"
        for module in GUARDED
        for function, call, line in _sort_calls(SRC / module)
        if (module, function, call) not in ALLOWED
    ]
    assert not offenders, (
        "comparison sort on the inspector path — use "
        "repro.transforms.sorting, or add an ALLOWED entry with a reason:\n"
        + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose call is gone is deleted, not kept for later."""
    used = {
        (module, function, call)
        for module in GUARDED
        for function, call, _ in _sort_calls(SRC / module)
    }
    assert set(ALLOWED) <= used


def test_guard_sees_a_planted_sort(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n"
        "def f(x):\n"
        "    y = np.unique(x)\n"
        "    return x.argsort(kind='stable'), np.sort(y)\n"
    )
    assert [(fn, call) for fn, call, _ in _sort_calls(planted)] == [
        ("f", "unique"),
        ("f", "argsort"),
        ("f", "sort"),
    ]
