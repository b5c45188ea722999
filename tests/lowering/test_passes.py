"""The rewrite pipeline: pass order and legality gating."""

import pytest

from repro.kernels.specs import STATEMENT_CODE, kernel_by_name
KERNELS = tuple(STATEMENT_CODE)
from repro.lowering.ir import (
    Commit,
    Index,
    Load,
    LoopIR,
    Neg,
    Update,
    lower_kernel,
)
from repro.lowering.passes import LoweringRewriter, _fission_gather_commit

pytestmark = pytest.mark.compiled


def _rewrite(name):
    return LoweringRewriter().run(lower_kernel(kernel_by_name(name)))


class TestPipeline:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_pass_order_is_fixed(self, name):
        state = _rewrite(name)
        assert [rec.name for rec in state.log] == [
            "loop_fission", "loop_blocking", "vectorize",
        ]

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_default_pipeline_fissions_and_vectorizes_everything(self, name):
        program = _rewrite(name).program
        for loop in program.loops:
            assert loop.vector, loop.label
            if loop.domain == "inters":
                assert loop.fissioned is not None

    def test_tiled_program_blocks(self):
        """Blocking is the last word on loop order: the program runs a
        tile schedule outermost, and nothing groups its tiles."""
        program = _rewrite("moldyn").program
        assert program.tiled
        assert set(program.to_dict()) == {
            "kernel", "loops", "index_arrays", "data_arrays", "extents",
            "tiled",
        }


def _inter_loop(stmts):
    return LoopIR(
        label="Lj", index_var="j", domain="inters", extent="num_inter",
        stmts=tuple(stmts),
    )


class TestFissionLegality:
    def test_moldyn_signs(self):
        program = lower_kernel(kernel_by_name("moldyn"))
        inter = next(l for l in program.loops if l.domain == "inters")
        gc = _fission_gather_commit(inter)
        assert [c.sign for c in gc.commits] == [1, -1]
        assert [c.via for c in gc.commits] == ["left", "right"]

    def test_irreg_both_positive(self):
        program = lower_kernel(kernel_by_name("irreg"))
        inter = next(l for l in program.loops if l.domain == "inters")
        gc = _fission_gather_commit(inter)
        assert [c.sign for c in gc.commits] == [1, 1]

    def test_mismatched_payloads_refuse_fission(self):
        a = Update("S1", "f", Index("left"), Load("x", Index("left")))
        b = Update("S2", "f", Index("right"), Load("y", Index("left")))
        assert _fission_gather_commit(_inter_loop([a, b])) is None

    def test_payload_reading_committed_array_refuses_fission(self):
        # f[left[j]] += f[right[j]] — hoisting would read stale/fresh
        # values differently from the interleaved loop: illegal.
        a = Update("S1", "f", Index("left"), Load("f", Index("right")))
        b = Update("S2", "f", Index("right"), Load("f", Index("right")))
        assert _fission_gather_commit(_inter_loop([a, b])) is None

    def test_negated_payload_matches(self):
        payload = Load("x", Index("left"))
        a = Update("S1", "f", Index("left"), payload)
        b = Update("S2", "g", Index("right"), Neg(payload))
        gc = _fission_gather_commit(_inter_loop([a, b]))
        assert gc is not None
        assert gc.commits == (
            Commit("f", "left", 1, "S1"),
            Commit("g", "right", -1, "S2"),
        )

    def test_direct_statement_refuses_fission(self):
        a = Update("S1", "f", Index(None), Load("x", Index("left")))
        assert _fission_gather_commit(_inter_loop([a])) is None
