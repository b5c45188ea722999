"""Public API surface: every package imports and every __all__ resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.presburger",
    "repro.uniform",
    "repro.transforms",
    "repro.runtime",
    "repro.analysis",
    "repro.codegen",
    "repro.kernels",
    "repro.cachesim",
    "repro.eval",
]

MODULES = [
    "repro.presburger.terms",
    "repro.presburger.constraints",
    "repro.presburger.sets",
    "repro.presburger.relations",
    "repro.presburger.simplify",
    "repro.presburger.evaluate",
    "repro.presburger.parser",
    "repro.presburger.ordering",
    "repro.presburger.render",
    "repro.uniform.kernel",
    "repro.uniform.iterspace",
    "repro.uniform.mappings",
    "repro.uniform.state",
    "repro.uniform.legality",
    "repro.transforms.base",
    "repro.transforms.cpack",
    "repro.transforms.gpart",
    "repro.transforms.rcm",
    "repro.transforms.spacefill",
    "repro.transforms.lexgroup",
    "repro.transforms.bucket_tiling",
    "repro.transforms.block_partition",
    "repro.transforms.fst",
    "repro.transforms.fst_sweeps",
    "repro.transforms.cache_block",
    "repro.transforms.tilepack",
    "repro.transforms.parallel",
    "repro.runtime.executor",
    "repro.runtime.inspector",
    "repro.runtime.plan",
    "repro.runtime.planspec",
    "repro.runtime.verify",
    "repro.runtime.symbolic_executor",
    "repro.analysis.dataflow",
    "repro.analysis.diagnostics",
    "repro.analysis.rules",
    "repro.analysis.rewrite",
    "repro.codegen.emit",
    "repro.codegen.executor_gen",
    "repro.codegen.inspector_gen",
    "repro.codegen.trace_gen",
    "repro.kernels.specs",
    "repro.kernels.data",
    "repro.kernels.datasets",
    "repro.kernels.gauss_seidel",
    "repro.kernels.spmv",
    "repro.cachesim.cache",
    "repro.cachesim.hierarchy",
    "repro.cachesim.machines",
    "repro.cachesim.trace",
    "repro.cachesim.model",
    "repro.eval.compositions",
    "repro.eval.experiments",
    "repro.eval.figures",
    "repro.eval.report",
    "repro.eval.advisor",
    "repro.__main__",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_docstrings(name):
    """Every module carries real documentation."""
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 40, name


def test_version():
    import repro

    assert repro.__version__
