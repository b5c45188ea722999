"""Tests for the specializing code generator.

The gold standard: generated inspectors must produce bit-identical
reordering functions / index arrays to the library ComposedInspector, and
generated executors must numerically match the reference executors.
"""

import numpy as np
import pytest

from repro.codegen import (
    SourceWriter,
    compile_source,
    generate_executor_source,
    generate_inspector_source,
)
from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.kernels.specs import kernel_by_name
from repro.runtime.executor import run_numeric
from repro.runtime.inspector import (
    CacheBlockStep,
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
    LexSortStep,
    TilePackStep,
)


def tiny(kernel_name, n=24, m=60, seed=0):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        "tiny",
        n,
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
    )
    return make_kernel_data(kernel_name, ds)


class TestSourceWriter:
    def test_nesting(self):
        w = SourceWriter()
        with w.block("def f():"):
            with w.block("for i in range(2):"):
                w.line("pass")
        assert w.source() == "def f():\n    for i in range(2):\n        pass\n"

    def test_dedent_guard(self):
        with pytest.raises(ValueError):
            SourceWriter().dedent()

    def test_comment(self):
        w = SourceWriter()
        w.comment("hi")
        assert w.source() == "# hi\n"


class TestCompileSource:
    def test_returns_callable(self):
        fn = compile_source("def f(x):\n    return x + 1\n", "f")
        assert fn(1) == 2
        assert "return x + 1" in fn.__generated_source__

    def test_missing_entry_point(self):
        with pytest.raises(ValueError):
            compile_source("x = 1\n", "f")


class TestGeneratedExecutors:
    @pytest.mark.parametrize("kernel_name", ["moldyn", "nbf", "irreg"])
    def test_untiled_matches_reference(self, kernel_name):
        data = tiny(kernel_name)
        kernel = kernel_by_name(kernel_name)
        src = generate_executor_source(kernel)
        fn = compile_source(src, f"{kernel_name}_executor")
        arrays = {k: v.copy() for k, v in data.arrays.items()}
        kwargs = dict(
            num_steps=2,
            num_nodes=data.num_nodes,
            num_inter=data.num_inter,
            left=data.left,
            right=data.right,
            **arrays,
        )
        fn(**kwargs)
        ref = run_numeric(data.copy(), 2)
        for k in arrays:
            assert np.allclose(arrays[k], ref.arrays[k]), k

    def test_tiled_executor_matches(self):
        data = tiny("moldyn")
        kernel = kernel_by_name("moldyn")
        steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(10), TilePackStep()]
        res = ComposedInspector(steps).run(data)
        src = generate_executor_source(kernel, tiled=True)
        fn = compile_source(src, "moldyn_executor_tiled")
        arrays = {k: v.copy() for k, v in res.transformed.arrays.items()}
        fn(
            2, data.num_inter, data.num_nodes,
            res.transformed.left, res.transformed.right,
            arrays["x"], arrays["vx"], arrays["fx"],
            schedule=res.plan.schedule,
        )
        ref = run_numeric(res.transformed.copy(), 2)
        for k in arrays:
            assert np.allclose(arrays[k], ref.arrays[k]), k

    def test_source_mentions_every_statement(self):
        kernel = kernel_by_name("moldyn")
        src = generate_executor_source(kernel)
        assert "x[i]" in src and "fx[left[j]]" in src and "vx[k]" in src

    def test_tiled_source_shape(self):
        kernel = kernel_by_name("irreg")
        src = generate_executor_source(kernel, tiled=True)
        assert "for tile in schedule" in src
        assert "tile[0]" in src and "tile[1]" in src


COMPOSITIONS = [
    [CPackStep()],
    [CPackStep(), LexGroupStep()],
    [GPartStep(8), LexGroupStep()],
    [CPackStep(), LexSortStep()],
    [CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep()],
    [CPackStep(), LexGroupStep(), FullSparseTilingStep(10), TilePackStep()],
    [
        CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep(),
        FullSparseTilingStep(10), TilePackStep(),
    ],
]


class TestGeneratedInspectors:
    @pytest.mark.parametrize("steps", COMPOSITIONS, ids=lambda s: "+".join(x.name for x in s))
    @pytest.mark.parametrize("kernel_name", ["moldyn", "irreg"])
    @pytest.mark.parametrize("remap", ["once", "each"])
    def test_generated_matches_library(self, kernel_name, steps, remap):
        data = tiny(kernel_name)
        kernel = kernel_by_name(kernel_name)
        src = generate_inspector_source(kernel, steps, remap=remap)
        fn = compile_source(src, f"{kernel_name}_inspector")
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
        )
        lib = ComposedInspector(steps, remap=remap).run(data)
        assert np.array_equal(out["sigma"], lib.sigma_nodes.array)
        assert np.array_equal(out["left"], lib.transformed.left)
        assert np.array_equal(out["right"], lib.transformed.right)
        for k in data.arrays:
            assert np.allclose(out["arrays"][k], lib.transformed.arrays[k])
        if lib.plan.schedule is None:
            assert out["schedule"] is None
        else:
            assert len(out["schedule"]) == len(lib.plan.schedule)
            for t, tile in enumerate(lib.plan.schedule):
                for l in range(len(tile)):
                    assert np.array_equal(out["schedule"][t][l], tile[l])

    def test_cache_block_generated(self):
        data = tiny("moldyn")
        kernel = kernel_by_name("moldyn")
        steps = [CPackStep(), LexGroupStep(), CacheBlockStep(8)]
        src = generate_inspector_source(kernel, steps)
        fn = compile_source(src, "moldyn_inspector")
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
        )
        lib = ComposedInspector(steps).run(data)
        assert len(out["schedule"]) == lib.tiling.num_tiles

    def test_invalid_remap(self):
        kernel = kernel_by_name("irreg")
        with pytest.raises(ValueError):
            generate_inspector_source(kernel, [], remap="never")

    def test_comments_note_policy(self):
        kernel = kernel_by_name("irreg")
        src_once = generate_inspector_source(kernel, [CPackStep()], remap="once")
        src_each = generate_inspector_source(kernel, [CPackStep()], remap="each")
        assert "Figure 11" in src_once
        assert "Figure 15" in src_each


def _emitting_definitions():
    from repro.runtime.steps import registered

    return [cls for cls in registered() if cls.emit is not None]


@pytest.fixture(scope="module")
def foil():
    from repro.kernels import generate_dataset

    return generate_dataset("foil", scale=256)  # 2-D coords for the SFC


class TestEveryDefinition:
    """Generated == library for every step in the table with an ``emit``
    hook, alone on raw data (a step reading a tiling after a default FST),
    compared on sigma, index arrays, payload and the full tile schedule."""

    @pytest.mark.parametrize("remap", ["once", "each"])
    @pytest.mark.parametrize("kernel_name", ["moldyn", "nbf", "irreg"])
    @pytest.mark.parametrize(
        "cls", _emitting_definitions(), ids=lambda cls: cls.name
    )
    def test_generated_matches_library(self, cls, kernel_name, remap, foil):
        needs_coords = "coords" in cls.traits.reads
        step = cls(foil.coords) if needs_coords else cls()
        prefix = [FullSparseTilingStep()] if "tiling" in cls.traits.reads else []
        steps = prefix + [step]
        data = make_kernel_data(kernel_name, foil)
        src = generate_inspector_source(
            kernel_by_name(kernel_name), steps, remap=remap
        )
        fn = compile_source(src, f"{kernel_name}_inspector")
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
            **({"coords": foil.coords} if needs_coords else {}),
        )
        lib = ComposedInspector(steps, remap=remap).run(data)
        assert np.array_equal(out["sigma"], lib.sigma_nodes.array)
        assert np.array_equal(out["left"], lib.transformed.left)
        assert np.array_equal(out["right"], lib.transformed.right)
        for k in data.arrays:
            assert np.array_equal(out["arrays"][k], lib.transformed.arrays[k])
        if lib.plan.schedule is None:
            assert out["schedule"] is None
        else:
            assert len(out["schedule"]) == len(lib.plan.schedule)
            for t, tile in enumerate(lib.plan.schedule):
                assert len(out["schedule"][t]) == len(tile)
                for l in range(len(tile)):
                    assert np.array_equal(out["schedule"][t][l], tile[l])

    def test_step_without_hook_is_a_typed_error(self):
        from repro.errors import ValidationError
        from repro.runtime.inspector import Step

        class Opaque(Step):
            name = "opaque"

        with pytest.raises(ValidationError, match="no code generator"):
            generate_inspector_source(kernel_by_name("irreg"), [Opaque()])


class TestSpaceFillingCodegen:
    def test_generated_sfc_matches_library(self):
        from repro.kernels import generate_dataset, make_kernel_data
        from repro.runtime import SpaceFillingStep

        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data("irreg", ds)
        kernel = kernel_by_name("irreg")
        steps = [CPackStep(), SpaceFillingStep(ds.coords), LexGroupStep()]
        src = generate_inspector_source(kernel, steps)
        def_line = next(l for l in src.splitlines() if l.startswith("def "))
        assert "coords" in def_line  # in the signature
        fn = compile_source(src, "irreg_inspector")
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
            coords=ds.coords,
        )
        lib = ComposedInspector(steps).run(data)
        assert np.array_equal(out["sigma"], lib.sigma_nodes.array)
        assert np.array_equal(out["left"], lib.transformed.left)

    def test_no_coords_param_without_sfc(self):
        kernel = kernel_by_name("irreg")
        src = generate_inspector_source(kernel, [CPackStep()])
        assert "coords" not in src
