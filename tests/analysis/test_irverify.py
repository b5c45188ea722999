"""The IR verifier: bounds proofs, translation validation, stable IRV
codes (IRV002 / IRV003 retired), and the content-addressed proof cache.

Every kernel x executor shape must verify clean; every deliberately
broken fixture must be rejected with its rule's stable code; warm binds
must reuse the cached proof instead of re-running the verifier.
"""

import json

import pytest

from repro.analysis import irverify as iv
from repro.analysis.diagnostics import ERROR
from repro.errors import LegalityError
from repro.lowering.executor import (
    _rewritten,
    clear_executor_memo,
    compile_executor,
)
from repro.lowering.ir import Commit, GatherCommit, replace

KERNELS = ("moldyn", "nbf", "irreg")


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    yield
    clear_executor_memo()


class TestCleanPrograms:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("tiled", [False, True])
    def test_every_kernel_proves_clean(self, kernel, tiled):
        report = iv.verify_executor(kernel, tiled=tiled)
        assert report.proven, report.describe()
        assert not report.diagnostics
        summary = report.summary()
        assert summary["obligations"] > 0
        assert summary["discharged"] == summary["obligations"]
        # Every pipeline pass carries a validation proof (fission,
        # blocking, vectorize).
        assert len(report.pass_proofs) == 3
        assert all(p["equivalent"] for p in report.pass_proofs)

    def test_pass_records_carry_proof_artifacts(self):
        state = _rewritten("moldyn")
        iv.verify_state(state)
        for rec in state.log:
            assert rec.proof is not None
            assert rec.proof["equivalent"]
            assert rec.proof["version"] == iv.IRVERIFY_VERSION

    def test_assumed_facts_name_the_sanitizer_discharges(self):
        report = iv.verify_executor("moldyn")
        assert {f.name for f in report.assumed} == {
            "index-array-range", "tile-partition", "schedule-legality",
        }

    def test_report_serializes(self):
        report = iv.verify_executor("nbf", tiled=True)
        payload = json.loads(report.to_json())
        assert payload["proven"] is True
        assert payload["summary"]["obligations"] == len(report.obligations)


class TestBrokenFixtures:
    """One deliberately broken program per IRV rule, each rejected with
    its stable code."""

    def test_irv001_unprovable_bounds(self):
        # Iterate a node loop over the interaction extent: x[i] with
        # i < num_inter cannot be proven < num_nodes.
        state = _rewritten("moldyn")
        loops = list(state.program.loops)
        for pos, loop in enumerate(loops):
            if loop.domain == "nodes":
                loops[pos] = replace(loop, extent="num_inter")
                break
        state.program = replace(state.program, loops=tuple(loops))
        report = iv.verify_state(state)
        assert not report.proven
        assert report.by_code(iv.IRV_BOUNDS)
        assert any(not ob.discharged for ob in report.obligations)

    def test_irv004_tampered_pass_output(self):
        # Flip every commit sign in the final program: the reduction
        # contributions change value, so translation validation fails.
        state = _rewritten("moldyn")
        loops = []
        for loop in state.program.loops:
            if loop.fissioned is not None:
                gc = loop.fissioned
                flipped = GatherCommit(
                    gc.payload,
                    tuple(
                        Commit(c.array, c.via, -c.sign, c.label)
                        for c in gc.commits
                    ),
                )
                loop = replace(loop, fissioned=flipped)
            loops.append(loop)
        state.program = replace(state.program, loops=tuple(loops))
        state.log[-1].after = state.program
        report = iv.verify_state(state)
        assert not report.proven
        assert report.by_code(iv.IRV_TRANSLATION)

    def test_irv005_unknown_array(self):
        state = _rewritten("moldyn")
        loops = list(state.program.loops)
        stmt = replace(loops[0].stmts[0], array="bogus")
        loops[0] = replace(loops[0], stmts=(stmt,) + loops[0].stmts[1:])
        state.program = replace(state.program, loops=tuple(loops))
        report = iv.verify_state(state)
        assert not report.proven
        assert report.by_code(iv.IRV_MALFORMED)
        # Translation validation is skipped on malformed IR (it cannot
        # interpret unknown arrays), never crashed.
        assert not report.by_code(iv.IRV_TRANSLATION)

    def test_unknown_kernel_is_irv005(self):
        state = _rewritten("moldyn")
        state.program = replace(state.program, kernel_name="nope")
        report = iv.verify_state(state)
        assert report.by_code(iv.IRV_MALFORMED)


class TestProofCache:
    def test_proof_key_salts(self):
        state = _rewritten("moldyn")
        base = iv.proof_key(state.program)
        assert base != iv.proof_key(state.log[0].before)
        assert len(base) == 64

    def test_warm_bind_skips_verification(self, monkeypatch):
        cold = compile_executor("moldyn", backend="numpy", memo=False)
        assert cold.verified is True
        assert cold.proof_from_cache is False
        assert cold.proof_path is not None

        # Second bind: the proof artifact must satisfy the gate without
        # the verifier running at all.
        def boom(state):  # pragma: no cover - failing path
            raise AssertionError("verifier ran on a warm bind")

        monkeypatch.setattr(iv, "verify_state", boom)
        warm = compile_executor("moldyn", backend="numpy", memo=False)
        assert warm.verified is True
        assert warm.proof_from_cache is True
        assert warm.proof_path == cold.proof_path

    def test_corrupted_proof_is_a_safe_miss(self):
        from pathlib import Path

        cold = compile_executor("moldyn", backend="numpy", memo=False)
        Path(cold.proof_path).write_text("{ not json")
        again = compile_executor("moldyn", backend="numpy", memo=False)
        assert again.verified is True
        assert again.proof_from_cache is False  # re-verified and rewrote
        assert json.loads(Path(again.proof_path).read_text())["proven"]

    def test_library_alias_is_verified(self):
        """The alias binds the proven ``numpy`` build: no tier skips the
        gate."""
        compiled = compile_executor("moldyn", backend="library", memo=False)
        assert compiled.backend == "numpy"
        assert compiled.verified is True
        assert compiled.proof_path is not None

    @pytest.mark.parametrize("kernel", ["moldyn", "nbf", "irreg"])
    def test_the_default_tier_is_proven(self, kernel):
        compiled = compile_executor(kernel, memo=False)
        assert compiled.backend == "numpy" and compiled.verified is True

    def test_unproven_program_refused_without_sanitizer(self, monkeypatch):
        def unproven(state):
            report = iv.IRVerificationReport(
                kernel_name="moldyn",
                ir_digest="x",
            )
            report.diagnostics.append(
                iv.Diagnostic(
                    code=iv.IRV_BOUNDS,
                    severity=ERROR,
                    message="synthetic unproven obligation",
                )
            )
            return report

        monkeypatch.setattr(iv, "verify_state", unproven)
        with pytest.raises(LegalityError, match="refusing unguarded"):
            compile_executor("moldyn", backend="numpy", memo=False)
        # The sanitizer unlocks the same bind with a guarded build.
        guarded = compile_executor(
            "moldyn", backend="numpy", memo=False, sanitize=True
        )
        assert guarded.sanitized
        assert guarded.verified is False


class TestDiagnosticsBridge:
    def test_verification_diagnostics_contract(self):
        codes, diagnostics, report = iv.verification_diagnostics("moldyn")
        assert codes == list(iv.IRV_CODES) == ["IRV001", "IRV004", "IRV005"]
        assert diagnostics == []
        assert report.proven
