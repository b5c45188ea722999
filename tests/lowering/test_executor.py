"""Backend binding: selection, artifact caching, the no-toolchain path,
the emitted phase table, the refusal of scalar loops, and the frozen
emitted C and NumPy sources."""

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
from repro.errors import CacheError, LegalityError, ValidationError
from repro.kernels import generate_dataset, make_kernel_data
from repro.lowering import emit_c, emit_numpy, toolchain
from repro.lowering.executor import (
    EXECUTOR_BACKENDS,
    _rewritten,
    artifact_key,
    clear_executor_memo,
    compile_executor,
    executor_backend_report,
    resolve_executor_backend,
)
from repro.lowering.ir import lower_kernel, replace
from repro.lowering.passes import LoweringRewriter
from repro.kernels.specs import kernel_by_name
from tests.kernels.oracle import PHASE_FUNCTIONS

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
    def test_default_is_numpy(self):
        res = resolve_executor_backend()
        assert res.backend == "numpy" and res.source == "default"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        assert resolve_executor_backend().backend == (
            "c" if HAVE_CC else "numpy"
        )
        assert resolve_executor_backend("numpy").backend == "numpy"

    def test_library_is_an_alias_of_numpy(self, monkeypatch):
        """The frozen end-to-end harness still asks for ``library``: by
        argument and by environment it binds the ``numpy`` tier, while
        the tier set advertises three values."""
        assert resolve_executor_backend("library").backend == "numpy"
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "library")
        assert resolve_executor_backend().backend == "numpy"
        assert compile_executor("moldyn", backend="library") is (
            compile_executor("moldyn", backend="numpy")
        )
        assert EXECUTOR_BACKENDS == ("auto", "numpy", "c")

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

    def test_missing_cc_override_is_named(self, monkeypatch):
        """An unknown ``REPRO_CC`` is the reason, not the PATH probe the
        override skipped."""
        monkeypatch.setenv("REPRO_CC", "no-such-cc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = resolve_executor_backend("c")
        assert res.backend == "numpy"
        (warning,) = [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]
        assert "REPRO_CC='no-such-cc' not found" in str(warning.message)

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
        assert report["backend"] == "numpy"  # default needs no toolchain


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

    @pytest.mark.parametrize(
        "backend", ["numpy", pytest.param("c", marks=pytest.mark.skipif(
            not HAVE_CC, reason="no C toolchain"
        ))],
    )
    def test_unwritable_directory_is_a_cache_error(self, tmp_path, backend):
        """A cache directory under a regular file fails the first write
        (the proof, then the source) with a typed error naming the
        directory, not a bare ``NotADirectoryError``."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with pytest.raises(CacheError, match="not-a-directory") as info:
            compile_executor(
                "nbf", backend=backend, cache_dir=blocker / "cache",
                memo=False,
            )
        assert info.value.stage == "plancache"
        assert "REPRO_PLANCACHE_DIR" in info.value.hint

    def test_memo_returns_the_same_bind(self, tmp_path):
        a = compile_executor("moldyn", backend="numpy", cache_dir=tmp_path)
        b = compile_executor("moldyn", backend="numpy", cache_dir=tmp_path)
        assert a is b

    def test_artifact_key_varies_by_config_and_emitter(self):
        """The key moves with the program the passes rewrote (the pass
        annotations are in its IR hash) and with the emitter."""
        program = lower_kernel(kernel_by_name("moldyn"))
        rewritten = LoweringRewriter().run(program).program
        base = artifact_key(rewritten, "numpy-1")
        assert base != artifact_key(program, "numpy-1")
        assert base != artifact_key(rewritten, "c-1")


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
@pytest.mark.parametrize("scheduler", ["wave", "dynamic"])
def test_marshalled_schedule_is_not_remarshalled_per_call(
    monkeypatch, scheduler
):
    """The schedule is a bind-time artifact: calls that reuse the object
    ``TilingFunction.schedule()`` returned build no CSR at all — the C
    marshaller passes the pointers it holds, and a wavefront handed
    along is not read.  A hand-built list of tiles is marshalled on every call, one
    CSR per loop, through the same constructor.  ``scheduler="dynamic"``
    with ``num_threads=1`` is the call the end-to-end harness times; it
    selects nothing and must cost nothing extra either."""
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

    ref = run(schedule)  # warm-up: compiles
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
    matching entry of the oracle's hand-written ``PHASE_FUNCTIONS`` — on
    random arrays and random iteration subsets, empty and
    repeated-endpoint ones included.  (The driver is shared, so this is
    the whole difference between the ``numpy`` tier and the oracle.)"""
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
# Only batched loops are emitted: a rewritten program that still holds a
# scalar loop is refused, with a typed error, before any source exists.


def _scalar_program():
    """Rewritten moldyn with its interaction loop back in scalar form."""
    program = _rewritten("moldyn").program
    return replace(program, loops=tuple(
        replace(loop, fissioned=None, vector=False)
        if loop.domain == "inters"
        else loop
        for loop in program.loops
    ))


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize(
    "emit", [emit_numpy.emit_numpy, emit_c.emit_c_tiled], ids=["numpy", "c"]
)
def test_scalar_loop_is_refused_before_emission(emit, sanitize):
    with pytest.raises(LegalityError, match=r"\['Lj'\] were left scalar"):
        emit(_scalar_program(), sanitize=sanitize)


@pytest.mark.parametrize("sanitize", [False, True])
def test_c_refuses_a_payload_that_reads_a_committed_array(sanitize):
    """The C tier fuses the gather into the first commit's pass, which is
    legal only because the payload reads no array a commit writes.  The
    fission pass establishes that; ``emit_c_tiled`` checks it again, so
    a hand-built ``GatherCommit`` whose commit writes the payload's ``x``
    is refused before any source is written."""
    program = _rewritten("moldyn").program
    loops = []
    for loop in program.loops:
        if loop.fissioned is not None:
            gc = loop.fissioned
            first = replace(gc.commits[0], array="x")
            gc = replace(gc, commits=(first,) + gc.commits[1:])
            loop = replace(loop, fissioned=gc)
        loops.append(loop)
    planted = replace(program, loops=tuple(loops))
    with pytest.raises(LegalityError, match=r"'Lj'.* reads \['x'\]"):
        emit_c.emit_c_tiled(planted, sanitize=sanitize)


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("c", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C toolchain"
    ))],
)
def test_sanitized_bind_of_a_scalar_loop_writes_no_source(
    monkeypatch, tmp_path, backend
):
    """A scalar loop is in bounds and translation-valid, so it passes the
    proof gate, sanitized or not; the emitters still refuse it, and the
    store holds no executor source, only the proof."""
    state = _rewritten("moldyn")
    state.program = _scalar_program()
    monkeypatch.setattr(
        "repro.lowering.executor._rewritten", lambda kernel: state
    )
    with pytest.raises(LegalityError, match="left scalar"):
        compile_executor(
            "moldyn", backend=backend, cache_dir=tmp_path, memo=False,
            sanitize=True,
        )
    written = [p.suffix for p in tmp_path.rglob("*") if p.is_file()]
    assert written == [".proof"]


# ---------------------------------------------------------------------------
# Emitted sources are frozen per emitter version, on both tiers: a warm
# artifact store keys the ``.py`` and the ``.so`` on ``EMITTER_VERSION``
# (+ ``SANITIZE_TAG``), so source text that moves under an unmoved
# version would be served a stale artifact.
# ``PYTHONPATH=src:. python tests/lowering/test_executor.py`` (from the
# repository root) rewrites both lists after a deliberate bump.

EMITTERS = {
    "c": (emit_c, emit_c.emit_c_tiled),
    "numpy": (emit_numpy, emit_numpy.emit_numpy),
}


def _frozen_list(tier):
    return Path(__file__).with_name(f"emitted_{tier}_sha256.json")


def _emitted_sources(tier="c"):
    """(kernel, sanitize) -> (version tag, emitted source text): one
    module per kernel and tier (an untiled bind runs it over the trivial
    schedule)."""
    module, emit = EMITTERS[tier]
    sources = {}
    for kernel in KERNELS:
        program = LoweringRewriter().run(
            lower_kernel(kernel_by_name(kernel))
        ).program
        for sanitize in (False, True):
            tags = [module.EMITTER_VERSION]
            tags += [module.SANITIZE_TAG] if sanitize else []
            sources[kernel, sanitize] = (
                "+".join(tags), emit(program, sanitize=sanitize)
            )
    return sources


def _emitted_hashes(tier):
    return {
        f"{kernel}/tiled/{'sanitize' if sanitize else 'plain'}": {
            "version": version,
            "sha256": hashlib.sha256(source.encode()).hexdigest(),
        }
        for (kernel, sanitize), (version, source)
        in _emitted_sources(tier).items()
    }


def _assert_frozen(tier):
    frozen = _frozen_list(tier)
    recorded = json.loads(frozen.read_text())
    current = _emitted_hashes(tier)
    assert sorted(recorded) == sorted(current)
    for name, entry in current.items():
        assert entry["version"] == recorded[name]["version"], (
            f"{name}: emitter version moved; regenerate {frozen.name} "
            "(PYTHONPATH=src:. python tests/lowering/test_executor.py)"
        )
        assert entry["sha256"] == recorded[name]["sha256"], (
            f"{name}: emitted {tier} source changed under version "
            f"{entry['version']}; bump emit_{tier}.EMITTER_VERSION (or the "
            "tag that covers the change) so warm stores miss, then "
            "regenerate the list"
        )


def test_tiled_unit_renders_every_statement_body_once_per_form():
    """One translation unit, one rendering: the tile loop calls the phase
    functions, so each statement body appears once per schedule form
    (index: position ``_k`` + loaded iteration; range: the iteration is
    the position)."""
    for (kernel, sanitize), (_, source) in _emitted_sources().items():
        program = LoweringRewriter().run(
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
        assert "run_tiled_dynamic" not in source


def _run_tiled_params(source):
    """The parameter names of the unit's ``run_tiled``, in order."""
    head = source[source.index("void run_tiled(") + len("void run_tiled("):]
    params = head[: head.index(")")].split(",")
    return [p.strip().rpartition(" ")[2].lstrip("*") for p in params]


def test_emitted_c_is_frozen_per_emitter_version():
    """Besides the hashes: every unit, plain and sanitized, has one
    driver — no thread in it — and ``run_tiled`` takes the operands, the
    schedule, ``num_tiles`` and ``scratch`` (and ``err`` when
    sanitized), nothing else: no tile grouping."""
    for (kernel, sanitize), (_, source) in _emitted_sources().items():
        assert "pthread" not in source, (kernel, sanitize)
        program = LoweringRewriter().run(
            lower_kernel(kernel_by_name(kernel))
        ).program
        expected = list(program.data_arrays) + [
            "left", "right", "num_nodes", "num_inter", "num_steps",
        ]
        for pos in range(len(program.loops)):
            expected += [f"iters{pos}", f"off{pos}"]
        expected += ["num_tiles", "scratch"] + (["err"] if sanitize else [])
        assert _run_tiled_params(source) == expected, (kernel, sanitize)
    _assert_frozen("c")


def test_emitted_numpy_is_frozen_per_emitter_version():
    """The NumPy phase tables, plain and sanitized, under the same rule."""
    _assert_frozen("numpy")


if __name__ == "__main__":
    for tier in EMITTERS:
        _frozen_list(tier).write_text(
            json.dumps(_emitted_hashes(tier), indent=2) + "\n"
        )
