"""Each statement is stated once.

A kernel statement is written twice in ``kernels/specs.py``: as the
access list of its :class:`~repro.uniform.kernel.Statement`, which the
planner and the dependence edge sets read, and as its scalar body in
``STATEMENT_CODE``, which ``lower_kernel`` parses and every executor
tier is emitted from.  This test holds the two to one statement: the
access list is the body's target as the update, then the body's
distinct loads in order of first appearance.
"""

import pytest

from repro.kernels.specs import KERNEL_NAMES, STATEMENT_CODE, kernel_by_name
from repro.lowering.ir import expr_loads, lower_kernel
from repro.presburger.terms import AffineExpr, var
from repro.uniform.kernel import AccessKind


def spec_accesses(loop, stmt):
    """``(kind, array, via)`` of each access: ``via`` is the index array
    the subscript reads through, ``None`` for the loop variable itself."""
    accesses = []
    for access in stmt.accesses:
        (via,) = access.index.uf_names() or (None,)
        subscript = var(loop.index_var)
        if via is not None:
            subscript = AffineExpr.ufs(via, subscript)
        assert access.index == subscript, (stmt.label, access)
        accesses.append((access.kind, access.array, via))
    return accesses


def code_accesses(update):
    """The same triples, as ``lower_kernel`` parsed the body."""
    accesses = [(AccessKind.UPDATE, update.array, update.index.via)]
    for load in expr_loads(update.increment):
        access = (AccessKind.READ, load.array, load.index.via)
        if access not in accesses:
            accesses.append(access)
    return accesses


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_each_statement_is_its_code(kernel):
    spec = kernel_by_name(kernel)
    program = lower_kernel(spec)
    labels = [stmt.label for loop in spec.loops for stmt in loop.statements]
    assert labels == list(STATEMENT_CODE[kernel])
    for loop, lowered in zip(spec.loops, program.loops):
        assert [s.label for s in loop.statements] == [u.label for u in lowered.stmts]
        for stmt, update in zip(loop.statements, lowered.stmts):
            assert spec_accesses(loop, stmt) == code_accesses(update), stmt.label


def test_all_ten_statements_are_held():
    assert sum(len(STATEMENT_CODE[k]) for k in KERNEL_NAMES) == 10
