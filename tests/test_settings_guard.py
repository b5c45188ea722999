"""Environment variables have one reader: :mod:`repro.backends`.

An AST guard: outside ``backends.py``, no module under ``src/repro``

* uses ``os.environ``, ``os.getenv`` or ``os.putenv`` (as an attribute
  of any object, or imported from ``os``);
* holds a string literal that starts with ``REPRO_`` — a variable name
  is spelled once, in its :class:`~repro.backends.Setting`, and every
  other module reaches it as ``backends.<SETTING>`` or its ``.name``.

Each :data:`ALLOWED` entry says why it is not such a read, an unused
allowance fails, and the list may only shrink.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
HOME = "backends.py"
ENVIRONMENT_NAMES = frozenset({"environ", "getenv", "putenv"})

#: ``(module, finding)`` -> why it is not an environment read.
ALLOWED = {}


def environment_uses(path):
    """``(finding, line)`` for every environment access or name literal."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((f"os.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_NAMES:
                    found.append((f"os.{alias.name}", node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("REPRO_")
        ):
            found.append((f"literal {node.value.split()[0]!r}", node.lineno))
    return sorted(found, key=lambda item: item[1])


def _all_uses():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == HOME:
            continue
        for finding, line in environment_uses(path):
            yield module, finding, line


def test_no_module_reads_the_environment_outside_backends():
    offenders = [
        f"{module}:{line} {finding}"
        for module, finding, line in _all_uses()
        if (module, finding) not in ALLOWED
    ]
    assert not offenders, (
        "an environment variable read or named outside repro.backends — "
        "declare it as a Setting there and call backends.read():\n"
        + "\n".join(offenders)
    )


def test_every_allowance_is_in_use():
    """An entry whose finding is gone is deleted, not kept for later."""
    used = {(module, finding) for module, finding, _ in _all_uses()}
    assert set(ALLOWED) <= used


def test_guard_sees_planted_reads(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os\n"
        "from os import getenv\n"
        "NAME = 'REPRO_KNOB'\n"
        "def knob():\n"
        "    os.putenv(NAME, '1')\n"
        "    return os.environ.get(f'REPRO_{NAME}') or getenv(NAME)\n"
        "HINT = 'set REPRO_KNOB=1'\n"
    )
    assert [finding for finding, _ in environment_uses(planted)] == [
        "os.getenv",
        "literal 'REPRO_KNOB'",
        "os.putenv",
        "os.environ",
        "literal 'REPRO_'",
    ]
