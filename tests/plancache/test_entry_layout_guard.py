"""One module knows the plan-cache entry layout: ``plancache/memo.py``.

An AST guard: the array-key prefixes of a stored entry (``sf__``,
``sfl__``, ``tile__``, ``delta__``) may appear in a string literal,
f-string parts included, only in that module.  A second module that
spells a key reads or writes the layout behind memo's back, and the
layout can no longer change in one place: the delta engine's rules
read a parent's stage function through ``memo.stage_function``.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The module that owns the entry layout.
HOME = "plancache/memo.py"

#: Key prefixes of a stored entry (the last two are the old layout's).
PREFIXES = ("sf__", "sfl__", "tile__", "delta__")


def key_literals(path):
    """``(prefix, line)`` of every string constant holding a key prefix,
    including the literal parts of an f-string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for prefix in PREFIXES:
                if prefix in node.value:
                    found.append((prefix, node.lineno))
    return sorted(set(found), key=lambda item: (item[1], item[0]))


def test_only_memo_spells_an_entry_key():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line} {prefix!r}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != HOME
        for prefix, line in key_literals(path)
    ]
    assert not offenders, (
        "an entry key outside repro.plancache.memo — read the entry "
        "through a memo accessor instead:\n" + "\n".join(offenders)
    )


def test_memo_is_where_the_guard_looks():
    assert {prefix for prefix, _ in key_literals(SRC / HOME)} >= {
        "sf__",
        "tile__",
    }


def test_guard_sees_planted_literals(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def parent_function(entry, step, index):\n"
        "    key = f'sf__{step.name}{index}'\n"
        "    tiles = entry.arrays['tile__' + str(index)]\n"
        "    return entry.arrays.get(key), tiles, 'delta_sf_tile'\n"
    )
    assert key_literals(planted) == [("sf__", 2), ("tile__", 3)]
