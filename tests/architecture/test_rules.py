"""Every architecture rule of :mod:`rules`, checked the same five ways."""

from fnmatch import fnmatch
from functools import cache

import pytest

from .index import facts, modules, parse
from .rules import RULES

BY_NAME = {rule.find.__name__: rule for rule in RULES}
each_rule = pytest.mark.parametrize("name", BY_NAME)


def scope(rule):
    return [path for path in modules() if any(fnmatch(path, p) for p in rule.scope)]


@cache
def findings(name):
    """``(module, line, *key)`` of every finding in the rule's scope."""
    rule = BY_NAME[name]
    found = ((path, rule.find(modules()[path], rule.forbid)) for path in scope(rule))
    return sorted((path, *finding) for path, each in found for finding in each)


def keys(name):
    return {(path, *key) for path, _, *key in findings(name)}


@each_rule
def test_no_offence(name):
    rule = BY_NAME[name]
    offences = [
        f"{path}:{line} {' '.join(key)}"
        for path, line, *key in findings(name)
        if path != rule.home and (path, *key) not in {*rule.allowed, *rule.anchors}
    ]
    assert not offences, rule.find.__doc__ + "\n" + "\n".join(offences)


@each_rule
def test_every_allowance_is_in_use(name):
    """An allowance whose finding is gone is deleted, not kept for later."""
    assert set(BY_NAME[name].allowed) - keys(name) == set()


@each_rule
def test_scope_and_anchors_hold(name):
    """A renamed module or definition would silently leave the rule."""
    rule = BY_NAME[name]
    assert all(any(fnmatch(path, p) for path in modules()) for p in rule.scope)
    assert rule.home in {None, *scope(rule)}
    held = {a for a in rule.anchors if a[1:] in facts(modules()[a[0]])} | keys(name)
    assert set(rule.anchors) - held == set()


@each_rule
def test_planted_findings(name):
    rule = BY_NAME[name]
    assert sorted(rule.find(parse(rule.planted), rule.forbid)) == rule.expected


@each_rule
def test_every_forbidden_entry_is_planted(name):
    """Deleting any forbidden entry changes what the snippet shows."""
    rule = BY_NAME[name]
    planted = parse(rule.planted)
    assert [
        entry
        for kind, entries in rule.forbid.items()
        for entry in entries
        if sorted(rule.find(planted, {**rule.forbid, kind: entries - {entry}}))
        == rule.expected
    ] == []
