"""The rewrite pipeline: pass order, legality gating, config toggles."""

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
from repro.lowering.passes import (
    LoweringRewriter,
    PassConfig,
    _fission_gather_commit,
)

pytestmark = pytest.mark.compiled


def _rewrite(name, tiled=False, config=None):
    return LoweringRewriter(config=config, tiled=tiled).run(
        lower_kernel(kernel_by_name(name))
    )


class TestPipeline:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_pass_order_is_fixed(self, name):
        state = _rewrite(name)
        assert [rec.name for rec in state.log] == [
            "loop_fission", "loop_blocking", "vectorize", "parallelize",
        ]

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_default_pipeline_fissions_and_vectorizes_everything(self, name):
        program = _rewrite(name).program
        for loop in program.loops:
            assert loop.vector, loop.label
            if loop.domain == "inters":
                assert loop.fissioned is not None

    def test_untiled_program_skips_blocking_and_parallelize(self):
        state = _rewrite("moldyn", tiled=False)
        by_name = {rec.name: rec for rec in state.log}
        assert not by_name["loop_blocking"].applied
        assert not by_name["parallelize"].applied
        assert not state.program.tiled

    def test_tiled_program_blocks_and_parallelizes(self):
        program = _rewrite("moldyn", tiled=True).program
        assert program.tiled and program.wave_parallel

    def test_disabling_fission_keeps_interaction_loops_scalar(self):
        config = PassConfig(fission=False)
        program = _rewrite("nbf", config=config).program
        inter = next(l for l in program.loops if l.domain == "inters")
        assert inter.fissioned is None
        assert not inter.vector  # vectorize needs the gather/commit split

    def test_disabling_vectorize_keeps_all_loops_scalar(self):
        config = PassConfig(vectorize=False)
        program = _rewrite("moldyn", config=config).program
        assert not any(loop.vector for loop in program.loops)

    def test_config_digest_distinguishes_configs(self):
        assert PassConfig().digest() != PassConfig(fission=False).digest()
        assert PassConfig().digest() == PassConfig().digest()


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
