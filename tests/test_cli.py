"""Tests for the ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.__main__ import main

#: The shipped example plan specs (what the CI lint gate runs over).
PLANS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "plans"


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "256"]) == 0
        out = capsys.readouterr().out
        assert "mol1" in out and "edges_per_node" in out

    def test_describe_prints_specs(self, capsys):
        assert main(["describe", "irreg"]) == 0
        out = capsys.readouterr().out
        assert "I0 for kernel 'irreg'" in out
        assert "M[x]" in out
        assert "left(" in out
        assert "reduction" in out

    def test_plan_reports_legality(self, capsys):
        assert main(["plan", "moldyn", "cpack", "lexgroup"]) == 0
        out = capsys.readouterr().out
        assert "CompositionPlan" in out
        assert "legal" in out

    def test_plan_fst_notes_discharge(self, capsys):
        assert main(["plan", "moldyn", "cpack", "lexgroup", "fst"]) == 0
        out = capsys.readouterr().out
        assert "inspector traverses dependences" in out

    def test_plan_unknown_step(self, capsys):
        assert main(["plan", "moldyn", "unroll-and-jam"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BindError: unknown step type")

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "moldyn", "bogus"],
            ["lint", "moldyn", "cpack", "bogus"],
            ["doctor", "--scale", "256", "cpack", "bogus"],
        ],
        ids=["plan", "lint", "doctor"],
    )
    def test_unknown_step_is_a_typed_exit_2(self, argv, capsys):
        """An unknown step name exits like every other typed error: status
        2 and one ``error: <Type>: ...`` line, no traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: BindError: unknown step type 'bogus'")
        assert "choose from ['bucket', 'cacheblock', 'cpack'" in err[0]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["describe", "spmv"])

    def test_figure_small_scale(self, capsys):
        assert main(["figure16", "--scale", "256"]) == 0
        out = capsys.readouterr().out
        assert "percent_reduction" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--scale", "256", "--dataset", "foil"]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestTypedErrorHandling:
    """Typed errors exit nonzero with a one-line message, no traceback."""

    def test_unknown_dataset_exits_nonzero(self, capsys):
        assert main(["quickstart", "--dataset", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: BindError:")
        assert "unknown dataset" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_kernel_exits_nonzero(self, capsys):
        assert main(["quickstart", "--kernel", "spmv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BindError:")
        assert "unknown kernel" in err

    def test_doctor_unknown_dataset_exits_nonzero(self, capsys):
        assert main(["doctor", "--dataset", "nope"]) == 2
        err = capsys.readouterr().err
        assert "error: BindError:" in err and "hint" in err

    def test_malformed_composition_is_typed(self, capsys):
        # tilePack without a prior tiling step used to escape as a raw
        # ValueError traceback from the relation algebra.
        assert main(
            ["doctor", "--scale", "256", "cpack", "tilepack"]
        ) == 2
        err = capsys.readouterr().err
        assert "error: LegalityError:" in err
        assert "tilepack" in err


class TestLint:
    def test_clean_plan_exits_zero(self, capsys):
        assert main(["lint", "moldyn", "cpack", "lexgroup", "fst"]) == 0
        out = capsys.readouterr().out
        assert "AnalysisReport" in out
        assert "clean" in out

    def test_warning_exits_zero_unless_strict(self, capsys):
        argv = ["lint", str(PLANS / "fig16_remap_each.json")]
        assert main(argv) == 0
        assert "RRT001" in capsys.readouterr().out
        assert main(argv + ["--strict"]) == 1

    def test_inline_remap_flag(self, capsys):
        assert main(
            ["lint", "moldyn", "cpack", "lexgroup", "fst", "tilepack",
             "--remap", "each", "--strict"]
        ) == 1
        assert "RRT001" in capsys.readouterr().out

    def test_fix_discharges_the_warning(self, capsys):
        assert main(
            ["lint", str(PLANS / "fst_no_symmetry.json"), "--fix",
             "--strict"]
        ) == 0
        out = capsys.readouterr().out
        assert "applied 1 rewrite(s)" in out
        assert "use_symmetry=True" in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(
            ["lint", str(PLANS / "fig16_remap_each.json"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["codes"] == ["RRT001"]
        assert payload["fixes_applied"] == []

    def test_json_output_records_fixes(self, capsys):
        import json

        assert main(
            ["lint", str(PLANS / "fig16_remap_each.json"), "--json",
             "--fix"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["codes"] == []
        assert [f["code"] for f in payload["fixes_applied"]] == ["RRT001"]

    def test_missing_spec_file_is_typed(self, capsys):
        assert main(["lint", "no_such_plan.json"]) == 2
        assert "error: BindError:" in capsys.readouterr().err

    def test_kernel_without_steps_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "moldyn"])


class TestDoctor:
    def test_doctor_passes_on_generated_dataset(self, capsys):
        rc = main(
            ["doctor", "--kernel", "irreg", "--dataset", "foil",
             "--scale", "256"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PipelineReport" in out
        assert "validation of Dataset('foil')" in out
        assert "all checks passed" in out
        assert "verified bit-identical" in out

    def test_doctor_accepts_steps_and_policy(self, capsys):
        rc = main(
            ["doctor", "--dataset", "mol1", "--scale", "256", "--permissive",
             "--on-stage-failure", "identity", "cpack", "lexgroup"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage 0 [cpack]: ok" in out

    def test_doctor_reports_analysis_health(self, capsys):
        rc = main(["doctor", "--dataset", "mol1", "--scale", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "AnalysisReport" in out
        assert "clean: 5 rule(s) found nothing" in out
        assert "analysis: 0 error(s), 0 warning(s)" in out

    def test_doctor_counts_lint_warnings_in_verdict(self, capsys):
        rc = main(
            ["doctor", "--dataset", "mol1", "--scale", "256",
             "cpack", "lexgroup", "lexsort"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "RRT002" in out
        assert "all checks passed (1 lint warning(s))" in out

    def test_quickstart_accepts_policy_flags(self, capsys):
        assert main(
            ["quickstart", "--scale", "256", "--dataset", "foil",
             "--permissive"]
        ) == 0
        assert "normalized" in capsys.readouterr().out


class TestLintIR:
    """The ``lint --ir`` bridge into the IR verifier, and stdin specs."""

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR_SANITIZE", raising=False)
        monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))

    def test_lint_ir_proves_example_plan(self, capsys):
        spec = str(PLANS / "cpack_lexgroup_fst.json")
        assert main(["lint", "--ir", spec]) == 0
        out = capsys.readouterr().out
        assert "irverify [untiled]: proven" in out
        assert "irverify [tiled]: proven" in out

    def test_lint_ir_json_payload(self, capsys):
        import json as _json

        spec = str(PLANS / "cpack_lexgroup_fst.json")
        assert main(["lint", "--ir", "--json", spec]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert set(payload["irverify"]) == {"untiled", "tiled"}
        for shape in payload["irverify"].values():
            assert shape["proven"] is True
            assert shape["version"] == "irverify-3"
        assert "IRV001" in payload["rules_run"]

    def test_lint_reads_spec_from_stdin(self, capsys, monkeypatch):
        import io

        spec_text = (PLANS / "cpack_lexgroup_fst.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(spec_text))
        assert main(["lint", "-"]) == 0
        assert "AnalysisReport" in capsys.readouterr().out

    def test_lint_stdin_rejects_malformed_json(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{ nope"))
        assert main(["lint", "-"]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "not valid JSON" in err


class TestCacheGC:
    def test_cache_gc_reports_eviction(self, capsys, tmp_path):
        from repro.plancache.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path)
        store.put_text("aa01", "c", "x" * 100)
        store.put_text("bb02", "c", "y" * 100)
        rc = main(
            ["cache", "gc", "--max-bytes", "150",
             "--cache-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "artifact gc: removed 1 file(s)" in out
        assert len(store.keys()) == 1

    def test_cache_gc_budget_is_for_the_directory(self, capsys, tmp_path):
        """``--max-bytes N`` leaves plans + artifacts <= N *together*
        (each store used to be handed the whole N: 8 + 8 entries of
        ~33 KB under ``--max-bytes 70000`` left 132 256 bytes), evicting
        the oldest groups of either kind first."""
        import os

        import numpy as np

        from repro.plancache import CacheEntry, DiskStore
        from repro.plancache.artifacts import ArtifactStore

        plans, builds = DiskStore(tmp_path), ArtifactStore(tmp_path)
        for i in range(8):
            entry = CacheEntry(meta={}, arrays={"a": np.zeros(4096)})
            for age, path in (
                (2 * i, plans.put(f"{i:02d}" + "a" * 62, entry)),
                (2 * i + 1, builds.put_text(f"{i:02d}bb", "c", "x" * 32768)),
            ):
                os.utime(path, (1_000_000 + age, 1_000_000 + age))
        assert plans.total_bytes() + builds.total_bytes() > 8 * 65536

        rc = main(
            ["cache", "gc", "--max-bytes", "70000",
             "--cache-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert plans.total_bytes() + builds.total_bytes() <= 70000
        # The newest plan and the newest build are what is left.
        assert plans.keys() == ["07" + "a" * 62]
        assert builds.keys() == ["07bb"]
        assert "plan gc: removed 7 artifact(s)" in out
        assert "artifact gc: removed 7 file(s)" in out

    def test_cache_gc_rejects_negative_budget(self, capsys, tmp_path):
        rc = main(
            ["cache", "gc", "--max-bytes=-5",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "CacheError" in capsys.readouterr().err
