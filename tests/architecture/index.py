"""One parse of ``src/repro``, and the finders the architecture rules use.

:func:`modules` parses each module under ``src/repro`` once per session
into a :class:`Module`.  Rules read a module through the finders below,
never through a walk of their own.
"""

import ast
from functools import cache
from pathlib import Path
from typing import NamedTuple

import repro

SRC = Path(repro.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


class Module(NamedTuple):
    source: str
    #: node -> the qualified function it is in: ``scan.entries`` for a
    #: builder nested in ``scan``; a class adds nothing; ``<module>``.
    function: dict
    nodes: dict  # node type -> its nodes, in walk order
    calls: list  # (call, called name: ``f`` for ``f(...)`` and ``x.f(...)``)
    assignments: list  # (target names, statement) of each module-level ``=``


def name(node):
    """``x`` for ``x`` and for ``a.x``; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def targets(node):
    """The names an ``=`` or annotated ``=`` statement binds."""
    bound = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [target.id for target in bound if isinstance(target, ast.Name)]


def parse(source):
    tree = ast.parse(source)
    function, nodes, stack = {}, {}, [(tree, "<module>")]
    while stack:
        node, qualname = stack.pop()
        if isinstance(node, FUNCTIONS):
            qualname = f"{qualname}.{node.name}".removeprefix("<module>.")
        function[node] = qualname
        nodes.setdefault(type(node), []).append(node)
        children = reversed(list(ast.iter_child_nodes(node)))
        stack.extend((child, qualname) for child in children)
    assignments = [
        (targets(node), node)
        for node in tree.body
        if isinstance(node, ast.Assign)
        or (isinstance(node, ast.AnnAssign) and node.value is not None)
    ]
    calls = [(call, name(call.func)) for call in nodes.get(ast.Call, [])]
    return Module(source, function, nodes, calls, assignments)


@cache
def modules():
    """Every module under ``src/repro`` by its path there, parsed once."""
    return {
        path.relative_to(SRC).as_posix(): parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def find_nodes(module, *types):
    return [node for kind in types for node in module.nodes.get(kind, [])]


def find_calls(module, names, *, attribute_only=False):
    """``(line, function, name)`` of every call to one of ``names``."""
    return [
        (call.lineno, module.function[call], called)
        for call, called in module.calls
        if called in names
        and (not attribute_only or isinstance(call.func, ast.Attribute))
    ]


def find_identifiers(module):
    """``(node, identifier)`` of every name the module binds or reads."""
    yield from ((n, name(n)) for n in find_nodes(module, ast.Name, ast.Attribute))
    yield from ((node, node.arg) for node in find_nodes(module, ast.arg))
    for node in find_nodes(module, ast.keyword):
        if node.arg is not None:
            yield node.value, node.arg
    yield from ((node, node.name) for node in find_nodes(module, *DEFINITIONS))
    for node in find_nodes(module, ast.alias):
        for alias in filter(None, (node.name, node.asname)):
            yield from ((node, part) for part in alias.split("."))


def find_literals(module):
    """``(line, text)`` of every string constant, f-string parts included."""
    constants = find_nodes(module, ast.Constant)
    return [(c.lineno, c.value) for c in constants if isinstance(c.value, str)]


def find_definitions(module, names):
    """``(line, name)`` of every function or class named in ``names``."""
    defined = find_nodes(module, *DEFINITIONS)
    return [(node.lineno, node.name) for node in defined if node.name in names]


def find_attribute_stores(module):
    nodes = find_nodes(module, ast.Attribute)
    return [node for node in nodes if isinstance(node.ctx, ast.Store)]


def find_loops(module):
    """``(target, iterable)`` of every ``for`` and comprehension."""
    loops = find_nodes(module, ast.For, ast.AsyncFor, ast.comprehension)
    return [(node.target, node.iter) for node in loops]


def facts(module):
    """What an anchor may name besides a finding: ``("defines", function)``
    and ``("calls", function, name)``."""
    defined = find_nodes(module, *FUNCTIONS)
    return {("defines", module.function[node]) for node in defined} | {
        ("calls", module.function[call], called) for call, called in module.calls
    }
