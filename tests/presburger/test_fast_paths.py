"""The term rewrites' fast paths equal the chain-of-``+`` algebra.

``AffineExpr.substitute`` / ``rename`` / ``substitute_atom`` sum their
result into one dict, return ``self`` when nothing changes, and
``Constraint.solve_for`` / ``solve_for_ufatom`` build their definition as
one expression.  The references below are the straightforward versions
those replaced: every step a ``+`` that copies the dict and builds a new
term.  Beyond equality, the *insertion order* of every ``coeffs`` dict,
nested ones included, must match: ``solve_for_ufatom`` takes the first UF
atom in that order, so an order change can change which congruence the
simplifier applies.
"""

from __future__ import annotations

import types

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.presburger.constraints import Constraint, ConstraintKind
from repro.presburger.terms import AffineExpr, UFCall, var

NAMES = ("i", "j", "k", "m")

# -- references -----------------------------------------------------------------


def ref_construct(items, const=0):
    """The constructor's cleaning loop over a sequence of pairs, as a shape."""
    cleaned = {}
    for atom, c in items:
        if c:
            cleaned[atom] = cleaned.get(atom, 0) + c
            if cleaned[atom] == 0:
                del cleaned[atom]
    return _terms_shape(cleaned.items(), const)


def ref_substitute(expr: AffineExpr, mapping) -> AffineExpr:
    result = AffineExpr.constant(expr.const)
    for atom, c in expr.coeffs.items():
        if isinstance(atom, str):
            repl = mapping.get(atom)
            result = result + (repl * c if repl is not None else AffineExpr({atom: c}))
        else:
            args = tuple(ref_substitute(a, mapping) for a in atom.args)
            result = result + AffineExpr({UFCall(atom.name, args): c})
    return result


def ref_rename(expr: AffineExpr, mapping) -> AffineExpr:
    return ref_substitute(expr, {k: var(v) for k, v in mapping.items()})


def ref_substitute_atom(expr: AffineExpr, atom, replacement) -> AffineExpr:
    result = AffineExpr.constant(expr.const)
    for a, c in expr.coeffs.items():
        if a == atom:
            result = result + replacement * c
        elif isinstance(a, UFCall):
            args = tuple(ref_substitute_atom(x, atom, replacement) for x in a.args)
            result = result + AffineExpr({UFCall(a.name, args): c})
        else:
            result = result + AffineExpr({a: c})
    return result


def ref_solve_for_ufatom(constraint: Constraint):
    if constraint.kind is not ConstraintKind.EQ:
        return None
    for atom, coeff in constraint.expr.coeffs.items():
        if not isinstance(atom, UFCall) or coeff not in (1, -1):
            continue
        rest = constraint.expr - AffineExpr({atom: coeff})
        if rest.contains_atom(atom):
            continue
        return atom, (-rest if coeff == 1 else rest)
    return None


def ref_solve_for(constraint: Constraint, name: str):
    if constraint.kind is not ConstraintKind.EQ:
        return None
    c = constraint.expr.coeff(name)
    if c not in (1, -1):
        return None
    rest = constraint.expr - AffineExpr({name: c})
    if name in rest.free_vars():
        return None
    return -rest if c == 1 else rest


def shape(expr: AffineExpr):
    """Terms in insertion order, recursively: equal shapes mean equal
    expressions built in the same order at every level."""
    return _terms_shape(expr.coeffs.items(), expr.const)


def _terms_shape(items, const):
    return tuple(
        ((a.name, tuple(map(shape, a.args))) if isinstance(a, UFCall) else a, c)
        for a, c in items
    ), const


def assert_same(got: AffineExpr, want: AffineExpr):
    assert got == want
    assert shape(got) == shape(want)


# -- strategies -----------------------------------------------------------------

coeffs = st.integers(-2, 2)


def term_pairs(depth: int):
    atoms = st.sampled_from(NAMES)
    if depth > 0:
        calls = st.builds(
            UFCall,
            st.sampled_from(("f", "g")),
            st.lists(exprs(depth - 1), min_size=1, max_size=2),
        )
        atoms = st.one_of(atoms, calls)
    # Repeated atoms and small coefficients make cancellation common.
    return st.lists(st.tuples(atoms, coeffs), max_size=6)


def exprs(depth: int = 2):
    return st.builds(AffineExpr, term_pairs(depth), st.integers(-3, 3))


# Every name once with a unit coefficient, in any order: a merging rename
# or a +/-w substitution cancels a term here more often than on exprs().
flat_exprs = st.tuples(
    st.permutations(NAMES), st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4)
).map(lambda t: AffineExpr(list(zip(*t))))


def signed_vars(names):
    return st.tuples(st.sampled_from(names), st.sampled_from((1, -1))).map(
        lambda t: var(t[0]) * t[1]
    )


def substitutions(expr: AffineExpr):
    own = sorted(expr.top_level_vars()) or ["i"]
    return st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(NAMES + ("z",)), exprs(1), max_size=3),
        st.sampled_from(NAMES).map(lambda v: {v: var(v)}),
        # v -> +/-w over the expression's own variables: a term cancels
        # and a later entry may bring it back.
        st.dictionaries(st.sampled_from(own), signed_vars(own), max_size=3),
    )


def renames(expr: AffineExpr):
    own = sorted(expr.top_level_vars()) or ["i"]
    return st.one_of(
        st.dictionaries(
            st.sampled_from(NAMES + ("z",)), st.sampled_from(NAMES + ("y",)),
            max_size=4,
        ),
        # Merges of the expression's own variables.
        st.dictionaries(st.sampled_from(own), st.sampled_from(own), max_size=3),
    )


# j cancels at the second term and comes back at the fourth: the result
# must list m before j, as a chain of ``+`` does.
CANCEL_THEN_READD = AffineExpr([("j", 1), ("i", 1), ("m", 1), ("k", 1)])


# -- properties -----------------------------------------------------------------


@given(term_pairs(2), st.integers(-3, 3))
@settings(max_examples=200)
def test_constructor_matches_reference_on_every_input_kind(items, const):
    want = ref_construct(items, const)
    assert shape(AffineExpr(items, const)) == want
    as_dict = dict(AffineExpr(items, const).coeffs)
    assert shape(AffineExpr(as_dict, const)) == want
    assert shape(AffineExpr(types.MappingProxyType(as_dict), const)) == want


def check_substitute(expr, mapping):
    got = expr.substitute(mapping)
    assert_same(got, ref_substitute(expr, mapping))
    if mapping.keys().isdisjoint(expr.free_vars()):
        assert got is expr
    constraint = Constraint(expr, ConstraintKind.GEQ)
    if got is expr:
        assert constraint.substitute(mapping) is constraint
    else:
        assert constraint.substitute(mapping) == Constraint(got, ConstraintKind.GEQ)


def check_rename(expr, mapping):
    got = expr.rename(mapping)
    assert_same(got, ref_rename(expr, mapping))
    if all(mapping.get(v, v) == v for v in expr.free_vars()):
        assert got is expr
        constraint = Constraint(expr, ConstraintKind.EQ)
        assert constraint.rename(mapping) is constraint
    for atom in expr.coeffs:
        if isinstance(atom, UFCall):
            renamed = atom.rename(mapping)
            assert renamed == atom.substitute({k: var(v) for k, v in mapping.items()})
            if all(a.rename(mapping) is a for a in atom.args):
                assert renamed is atom


@given(st.one_of(exprs(), flat_exprs), st.data())
@settings(max_examples=400)
def test_substitute_matches_reference(expr, data):
    check_substitute(expr, data.draw(substitutions(expr)))


@given(st.one_of(exprs(), flat_exprs), st.data())
@settings(max_examples=400)
def test_rename_matches_reference(expr, data):
    check_rename(expr, data.draw(renames(expr)))


def test_a_term_that_cancels_and_returns_goes_last():
    check_substitute(CANCEL_THEN_READD, {"i": -var("j"), "k": var("j")})
    check_rename(
        AffineExpr([("j", -1), ("i", 1), ("m", 1), ("k", -1)]),
        {"i": "j", "k": "j"},
    )


@given(exprs(), exprs(1), st.data())
@settings(max_examples=200)
def test_substitute_atom_matches_reference(expr, replacement, data):
    calls = [a for a in expr.coeffs if isinstance(a, UFCall)]
    atom = data.draw(st.sampled_from(calls + list(NAMES)))
    assert_same(
        expr.substitute_atom(atom, replacement),
        ref_substitute_atom(expr, atom, replacement),
    )


@given(exprs(), st.sampled_from(NAMES))
@settings(max_examples=300)
def test_solvers_match_reference(expr, name):
    for kind in ConstraintKind:
        constraint = Constraint(expr, kind)
        got, want = constraint.solve_for(name), ref_solve_for(constraint, name)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same(got, want)
        got, want = constraint.solve_for_ufatom(), ref_solve_for_ufatom(constraint)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert_same(got[1], want[1])


@given(exprs())
@settings(max_examples=100)
def test_free_vars_is_cached_and_complete(expr):
    want = set()
    for atom in expr.coeffs:
        want |= {atom} if isinstance(atom, str) else set(atom.free_vars())
    assert expr.free_vars() == want
    assert expr.free_vars() is expr.free_vars()
