"""Every tier runs one tiled loop order: tiles in ascending id.

An AST guard: no identifier containing ``wave`` (any case) appears in
the modules that lower, emit, bind, verify or interpret the executor.
The paper's sparse-tiled executor (Figure 14, ``do t / do x in
sched(t, l)``) runs tiles outermost in ascending id, and so does every
tier, the IR verifier's symbolic interpreter and the cost model's
``emit_trace``.  A wavefront grouping of tiles is a second loop order:
it folds the reductions in another order, so its results differ from
the oracle's in the last bits.  Wavefronts stay what Section 4 makes
them, a parallelism inspector in ``transforms/parallel.py``, outside
these modules.  Names in strings and comments are not identifiers: the
``scheduler="wave"`` keyword the end-to-end harness passes stays
accepted.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The modules that hold the executor's loop order.
GUARDED = (
    "lowering/emit_c.py",
    "lowering/emit_numpy.py",
    "lowering/executor.py",
    "lowering/passes.py",
    "lowering/ir.py",
    "analysis/irverify.py",
    "runtime/symbolic_executor.py",
)


def _identifiers(node):
    """Every name ``node`` binds or reads, with its line."""
    if isinstance(node, ast.Name):
        yield node.id, node.lineno
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno
    elif isinstance(node, ast.arg):
        yield node.arg, node.lineno
    elif isinstance(node, ast.keyword) and node.arg is not None:
        yield node.arg, node.value.lineno
    elif isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        yield node.name, node.lineno
    elif isinstance(node, ast.alias):
        for name in (node.name, node.asname):
            if name is not None:
                yield from ((part, node.lineno) for part in name.split("."))


def wave_identifiers(path):
    """``(identifier, line)`` of every identifier containing ``wave``."""
    found = {
        (name, line)
        for node in ast.walk(ast.parse(path.read_text()))
        for name, line in _identifiers(node)
        if "wave" in name.lower()
    }
    return sorted(found, key=lambda item: (item[1], item[0]))


def test_guarded_modules_exist():
    """A renamed module would silently leave the guard."""
    missing = [module for module in GUARDED if not (SRC / module).is_file()]
    assert not missing


def test_no_tile_grouping_in_the_executor():
    offenders = [
        f"{module}:{line} {name}"
        for module in GUARDED
        for name, line in wave_identifiers(SRC / module)
    ]
    assert not offenders, (
        "a wave grouping in the executor — every tier runs tiles in "
        "ascending id:\n" + "\n".join(offenders)
    )


def test_guard_sees_planted_names(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.transforms.parallel import tile_wavefronts as tw\n"
        "GUARD_WAVES = 100\n"
        "def run(schedule, wave_groups=None, *, label='wave'):\n"
        "    # waves in a comment are not an identifier\n"
        "    return schedule.waves, dict(num_waves=1), label\n"
    )
    assert wave_identifiers(planted) == [
        ("tile_wavefronts", 1),
        ("GUARD_WAVES", 2),
        ("wave_groups", 3),
        ("num_waves", 5),
        ("waves", 5),
    ]
