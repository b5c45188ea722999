"""Figure 14's order is written once: ``lowering/schedule.py::tile_walk``.

An AST guard: no ``for`` loop or comprehension under ``src/repro`` but
in ``lowering/schedule.py`` iterates a schedule's tiles.  The NumPy
tier's driver, the cost model's address trace, the symbolic executor,
the IR verifier's interpreter and the Gauss–Seidel sweeps all take
their tiles from :func:`~repro.lowering.schedule.tile_walk`; a second
hand-written ``for tile in schedule`` is a second statement of the
order, and the figures would price one order while the tiers run
another.

What counts as iterating a schedule: the iterable names something
called ``*schedule`` (``plan.schedule``, ``tiling.schedule()``,
``inst.schedule``) or a variable assigned from one in the same module.
Reading a schedule's ``.loops`` (one entry per kernel loop, as the C
marshaller does) is not a walk over tiles, and neither is an argument
of ``tile_walk(...)``.  Source text an emitter writes (``"for tile in
schedule:"``) is a string, not a loop.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The module that holds the walk.
HOME = "lowering/schedule.py"

#: The one call a schedule may be handed to for iteration.
WALK = "tile_walk"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _refs(expr, aliases):
    """Schedule references in ``expr``: names ending in ``schedule`` or
    bound from one, outside a ``.loops`` read and a ``tile_walk`` call."""
    skip = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "loops":
            skip.update(id(n) for n in ast.walk(node.value))
        if isinstance(node, ast.Call) and _name(node.func) == WALK:
            skip.update(id(n) for n in ast.walk(node))
    return [
        node
        for node in ast.walk(expr)
        if id(node) not in skip
        and (name := _name(node)) is not None
        and (name.lower().endswith("schedule") or (
            isinstance(node, ast.Name) and name in aliases
        ))
    ]


def tile_loops(path):
    """``(line, iterable source)`` of every loop or comprehension in
    ``path`` that iterates a schedule's tiles."""
    source = path.read_text()
    tree = ast.parse(source)
    aliases = set()
    while True:  # names bound from a schedule, to a fixpoint
        found = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and _refs(node.value, aliases)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        if found <= aliases:
            break
        aliases |= found
    loops = [
        node.iter
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
    ]
    return sorted(
        (it.lineno, ast.get_source_segment(source, it))
        for it in loops
        if _refs(it, aliases)
    )


def test_home_module_exists():
    """A renamed home would silently guard nothing."""
    assert (SRC / HOME).is_file()


def test_only_the_walk_iterates_tiles():
    offenders = [
        f"{path.relative_to(SRC)}:{line} for ... in {iterable}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != HOME
        for line, iterable in tile_loops(path)
    ]
    assert not offenders, (
        "a hand-written loop over a schedule's tiles — take them from "
        f"repro.lowering.schedule.{WALK}:\n" + "\n".join(offenders)
    )


def test_guard_sees_planted_loops(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def trace(plan, result, inst, tiling):\n"
        "    for tile in plan.schedule:\n"
        "        pass\n"
        "    order = [t for t, tile in enumerate(result.plan.schedule)]\n"
        "    tiles = inst.schedule\n"
        "    for tile in tiles:\n"
        "        pass\n"
        "    for tile in tiling.schedule():\n"
        "        pass\n"
        "    return order\n"
        "def allowed(schedule, w):\n"
        "    for loop in schedule.loops:\n"
        "        pass\n"
        "    for t, pos, iters in tile_walk(schedule, 2):\n"
        "        pass\n"
        "    w.block('for tile in schedule:')\n"
    )
    assert tile_loops(planted) == [
        (2, "plan.schedule"),
        (4, "enumerate(result.plan.schedule)"),
        (6, "tiles"),
        (8, "tiling.schedule()"),
    ]
