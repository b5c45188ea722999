"""Backend binding: selection, artifact caching, the no-toolchain path,
the emitted phase table, and the frozen emitted-C sources."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backends
from repro.backends import BackendFallbackWarning
from repro.errors import ValidationError
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.executors import PHASE_FUNCTIONS
from repro.lowering import emit_c, toolchain
from repro.lowering.executor import (
    artifact_key,
    clear_executor_memo,
    compile_executor,
    executor_backend_report,
    resolve_executor_backend,
)
from repro.lowering.ir import lower_kernel
from repro.lowering.passes import LoweringRewriter, PassConfig
from repro.kernels.specs import kernel_by_name

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch, tmp_path):
    backends.reset_fallback_announcements()
    clear_executor_memo()
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    yield
    backends.reset_fallback_announcements()
    clear_executor_memo()


def _data(kernel="moldyn", scale=64):
    return make_kernel_data(kernel, generate_dataset("mol1", scale=scale))


class TestResolution:
    def test_default_is_library(self):
        res = resolve_executor_backend()
        assert res.backend == "library" and res.source == "default"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "numpy")
        assert resolve_executor_backend().backend == "numpy"
        assert resolve_executor_backend("library").backend == "library"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_executor_backend("fortran")

    def test_unknown_names_are_typed_errors(self):
        """The contract is "bit-identical or a typed ReproError": a typo
        in any selector, through any entry point, is a ValidationError —
        the scheduler's even where an untiled bind ignores it."""
        from repro.runtime.executor import run_numeric, run_numeric_wavefront

        with pytest.raises(ValidationError, match="unknown executor backend"):
            run_numeric(_data(), backend="bogus")
        with pytest.raises(ValidationError, match="unknown scheduler backend"):
            compile_executor("moldyn", tiled=False, scheduler="bogus")
        data = _data()
        with pytest.raises(ValidationError, match="must cover 3 loops"):
            run_numeric_wavefront(data, [[np.arange(3)]], None)
        with pytest.raises(ValidationError, match="unknown scheduler backend"):
            run_numeric_wavefront(data, [], None, scheduler="bogus")

    def test_auto_prefers_c_with_a_toolchain(self):
        res = resolve_executor_backend("auto")
        assert res.backend == ("c" if HAVE_CC else "numpy")


class TestNoToolchainFallback:
    def test_c_degrades_to_numpy_with_single_warning(self, monkeypatch):
        monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_executor_backend("c")
            again = resolve_executor_backend("c")
        assert first.backend == "numpy" and again.backend == "numpy"
        assert first.degraded
        fallback_warnings = [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]
        assert len(fallback_warnings) == 1  # once per process, not per bind

    def test_compile_executor_under_fallback_still_runs(self, monkeypatch):
        monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            ex = compile_executor("moldyn", backend="c")
        assert ex.backend == "numpy"
        d = _data()
        ex.run(d.arrays, d.left, d.right, num_steps=2)

    def test_auto_without_toolchain_is_numpy_and_silent(self, monkeypatch):
        monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = resolve_executor_backend("auto")
        assert res.backend == "numpy" and not res.degraded
        assert not [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]

    def test_doctor_report_reflects_missing_toolchain(self, monkeypatch):
        monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
        report = executor_backend_report()
        assert report["toolchain"]["available"] is False
        assert report["toolchain"]["fingerprint"] == "none"
        assert report["backend"] == "library"  # default needs no toolchain


class TestArtifactCache:
    def test_numpy_artifact_round_trip(self, tmp_path):
        cold = compile_executor(
            "nbf", backend="numpy", cache_dir=tmp_path, memo=False
        )
        warm = compile_executor(
            "nbf", backend="numpy", cache_dir=tmp_path, memo=False
        )
        assert not cold.from_cache and warm.from_cache
        assert cold.artifact_path == warm.artifact_path

    @pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
    def test_c_artifact_round_trip(self, tmp_path):
        cold = compile_executor(
            "irreg", backend="c", cache_dir=tmp_path, memo=False
        )
        warm = compile_executor(
            "irreg", backend="c", cache_dir=tmp_path, memo=False
        )
        assert not cold.from_cache and warm.from_cache
        assert cold.artifact_path.endswith(".so")

    def test_memo_returns_the_same_bind(self, tmp_path):
        a = compile_executor("moldyn", backend="numpy", cache_dir=tmp_path)
        b = compile_executor("moldyn", backend="numpy", cache_dir=tmp_path)
        assert a is b

    def test_artifact_key_varies_by_config_and_emitter(self):
        program = lower_kernel(kernel_by_name("moldyn"))
        base = artifact_key(program, PassConfig(), "numpy-1")
        assert base != artifact_key(program, PassConfig(fission=False), "numpy-1")
        assert base != artifact_key(program, PassConfig(), "c-1")

    def test_pass_ablation_stays_numerically_close(self, tmp_path):
        """Disabling passes changes rounding, not math: results stay
        within reduction-reassociation tolerance of the library run."""
        from repro.runtime.executor import run_numeric

        base = _data(scale=48)
        ref = run_numeric(base.copy(), num_steps=2)
        for config in (
            PassConfig(fission=False, vectorize=False),
            PassConfig(vectorize=False),
        ):
            ex = compile_executor(
                "moldyn", backend="numpy", config=config, cache_dir=tmp_path
            )
            d = base.copy()
            ex.run(d.arrays, d.left, d.right, num_steps=2)
            for name in ref.arrays:
                np.testing.assert_allclose(
                    d.arrays[name], ref.arrays[name], rtol=1e-9, atol=1e-12
                )


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
@pytest.mark.parametrize("scheduler", ["wave", "dynamic"])
def test_marshalled_schedule_is_not_remarshalled_per_call(
    monkeypatch, scheduler
):
    """The schedule is a bind-time artifact: calls that reuse the object
    ``TilingFunction.schedule()`` returned (and a wavefront's groups)
    build no CSR at all — the C marshaller passes the pointers they
    hold.  A hand-built list of tiles is marshalled on every call, one
    CSR per loop, through the same constructor."""
    from repro.runtime.executor import run_numeric_wavefront
    from repro.transforms.fst import TilingFunction
    from repro.transforms.parallel import WavefrontSchedule
    from repro.transforms.tile_schedule import CSRLists

    data = _data()
    tiling = TilingFunction(
        [np.arange(n, dtype=np.int64) * 2 // n for n in data.loop_sizes()], 2
    )
    schedule = tiling.schedule()
    waves = WavefrontSchedule(np.array([0, 1], dtype=np.int64), 2)

    def run(tiles):
        return run_numeric_wavefront(
            data.copy(), tiles, waves, backend="c", scheduler=scheduler,
            num_threads=1,
        )

    ref = run(schedule)  # warm-up: compiles, builds the wave CSR once
    built = []
    real_init = CSRLists.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CSRLists, "__init__", counting_init)
    for _ in range(3):
        run(schedule)
    assert built == []
    got = run([list(tile) for tile in schedule])
    assert len(built) == len(data.loops)
    for name in ref.arrays:
        assert np.array_equal(ref.arrays[name], got.arrays[name]), name


KERNELS = ("moldyn", "nbf", "irreg")


def _emitted_table(kernel):
    """The ``PHASES`` of the module a tiled numpy bind stores."""
    bound = compile_executor(kernel, backend="numpy", tiled=True)
    namespace = {}
    exec(Path(bound.artifact_path).read_text(), namespace)
    return namespace["PHASES"], bound.state.program.data_arrays


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kernel=st.sampled_from(KERNELS),
    num_nodes=st.integers(min_value=1, max_value=40),
    subset=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_emitted_phase_table_matches_reference(kernel, num_nodes, subset, seed):
    """Each entry of the emitted NumPy table is bit-identical to the
    matching hand-written ``PHASE_FUNCTIONS`` entry — on random arrays
    and random iteration subsets, empty and repeated-endpoint ones
    included.  (The drivers are shared, so this is the whole difference
    between the ``numpy`` and ``library`` tiers.)"""
    emitted, names = _emitted_table(kernel)
    reference = PHASE_FUNCTIONS[kernel]
    assert [p.domain for p in emitted] == [p.domain for p in reference]
    rng = np.random.default_rng(seed)
    base = {name: rng.standard_normal(num_nodes) for name in names}
    for ours, theirs in zip(emitted, reference):
        a = {k: v.copy() for k, v in base.items()}
        b = {k: v.copy() for k, v in base.items()}
        if ours.domain == "nodes":
            iters = rng.permutation(num_nodes)[:subset]
            ours.apply(a, iters)
            theirs.apply(b, iters)
        else:
            l = rng.integers(0, num_nodes, subset)
            r = rng.integers(0, num_nodes, subset)
            l[::3] = l[:1]  # pile contributions onto one endpoint
            r[1::4] = l[1::4]  # and some self-interactions
            payload_a = ours.gather(a, l, r)
            payload_b = theirs.gather(b, l, r)
            assert np.array_equal(payload_a, payload_b)
            ours.commit(a, l, r, payload_a)
            theirs.commit(b, l, r, payload_b)
        for name in names:
            assert np.array_equal(a[name], b[name]), (kernel, name)


# ---------------------------------------------------------------------------
# Emitted C is frozen per emitter version: a warm artifact store keys the
# ``.so`` on ``EMITTER_VERSION`` (+ ``SANITIZE_TAG``), so source text that
# moves under an unmoved version would be served a stale object.
# ``python tests/lowering/test_executor.py`` rewrites the list after a
# deliberate bump.

EMITTED_C = Path(__file__).with_name("emitted_c_sha256.json")


def _emitted_sources():
    """(kernel, shape, sanitize) -> (version tag, emitted C text)."""
    sources = {}
    for kernel in KERNELS:
        for shape, (emit, _entry) in emit_c.SHAPES.items():
            program = LoweringRewriter(tiled=shape != "untiled").run(
                lower_kernel(kernel_by_name(kernel))
            ).program
            for sanitize in (False, True):
                tags = [emit_c.EMITTER_VERSION]
                tags += [emit_c.SANITIZE_TAG] if sanitize else []
                sources[kernel, shape, sanitize] = (
                    "+".join(tags), emit(program, sanitize=sanitize)
                )
    return sources


def _emitted_c():
    return {
        f"{kernel}/{shape}/{'sanitize' if sanitize else 'plain'}": {
            "version": version,
            "sha256": hashlib.sha256(source.encode()).hexdigest(),
        }
        for (kernel, shape, sanitize), (version, source)
        in _emitted_sources().items()
    }


def test_tiled_unit_renders_every_statement_body_once_per_form():
    """One translation unit, one rendering: the wave loop and the pool's
    stages call the same phase functions, so each statement body appears
    once per schedule form (index: position ``_k`` + loaded iteration;
    range: the iteration is the position) — which the concatenation of a
    wave emitter and a stage emitter would fail."""
    assert sorted(emit_c.SHAPES) == ["tiled", "untiled"]
    for (kernel, shape, sanitize), (_, source) in _emitted_sources().items():
        if shape != "tiled":
            continue
        program = LoweringRewriter(tiled=True).run(
            lower_kernel(kernel_by_name(kernel))
        ).program
        for loop in program.loops:
            ivar = loop.index_var
            if loop.domain == "nodes":
                for stmt in loop.stmts:
                    body = f"{stmt.array}[{ivar}] = {stmt.array}[{ivar}] + "
                    assert source.count(body) == 2, (kernel, sanitize, body)
                continue
            assert source.count("scratch[_k] = ") == 1, (kernel, sanitize)
            assert source.count(f"scratch[{ivar}] = ") == 1, (kernel, sanitize)
            for commit in loop.fissioned.commits:
                end = f"{commit.array}[{commit.via}[{ivar}]]"
                assert source.count(f"{end} = {end} + ") == 2, (kernel, end)
        assert source.count("void run_tiled(") == 1
        assert source.count("pthread_create(") == 1
        assert "run_tiled_dynamic" not in source


def test_emitted_c_is_frozen_per_emitter_version():
    recorded = json.loads(EMITTED_C.read_text())
    current = _emitted_c()
    assert sorted(recorded) == sorted(current)
    for name, entry in current.items():
        assert entry["version"] == recorded[name]["version"], (
            f"{name}: emitter version moved; regenerate {EMITTED_C.name} "
            "(python tests/lowering/test_executor.py)"
        )
        assert entry["sha256"] == recorded[name]["sha256"], (
            f"{name}: emitted C changed under version {entry['version']}; "
            "bump emit_c.EMITTER_VERSION (or the tag that covers the "
            "change) so warm .so stores miss, then regenerate the list"
        )


if __name__ == "__main__":
    EMITTED_C.write_text(json.dumps(_emitted_c(), indent=2) + "\n")
