"""The settings table, and the executor-selection rules that
``tests/lowering/test_executor.py::TestResolution`` /
``TestNoToolchainFallback`` do not already check."""

import warnings

import pytest

from repro import backends
from repro.backends import BackendFallbackWarning, Setting
from repro.errors import ValidationError
from repro.lowering import toolchain
from repro.lowering.executor import (
    reset_fallback_announcements,
    resolve_executor_backend,
)

DEMO = Setting("REPRO_DEMO_BACKEND", str, None, "demo selector")


@pytest.fixture(autouse=True)
def _fresh_announcements():
    reset_fallback_announcements()
    yield
    reset_fallback_announcements()


class TestPrecedence:
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.EXECUTOR_BACKEND.name, "c")
        res = resolve_executor_backend("numpy")
        assert res.backend == "numpy" and res.source == "argument"

    def test_explicit_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(backends.EXECUTOR_BACKEND.name, "numpy")
        res = resolve_executor_backend("auto")
        assert res.backend == "numpy" and res.source == "env"

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(backends.EXECUTOR_BACKEND.name, "warp")
        with pytest.raises(ValidationError, match="unknown executor backend"):
            resolve_executor_backend()


class TestFallback:
    def test_warn_false_suppresses_the_warning(self, monkeypatch):
        monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = resolve_executor_backend("c", warn=False)
        assert res.backend == "numpy" and res.degraded
        assert not [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]


class TestSettings:
    def test_every_setting_is_a_repro_variable_with_a_doc(self):
        names = [setting.name for setting in backends.SETTINGS]
        assert len(set(names)) == len(names) == 6
        for setting in backends.SETTINGS:
            assert setting.name.startswith("REPRO_") and setting.doc

    def test_read_happens_at_call_time(self, monkeypatch):
        monkeypatch.delenv(DEMO.name, raising=False)
        assert backends.read(DEMO) is None
        monkeypatch.setenv(DEMO.name, "fast")
        assert backends.read(DEMO) == "fast"
        monkeypatch.setenv(DEMO.name, "")
        assert backends.read(DEMO) is None

    @pytest.mark.parametrize(
        "raw, value",
        [("1", True), ("TRUE", True), (" on ", True), ("yes", True),
         ("0", False), ("false", False), ("Off", False), ("no", False)],
    )
    def test_flag_values(self, monkeypatch, raw, value):
        monkeypatch.setenv(backends.EXECUTOR_SANITIZE.name, raw)
        assert backends.read(backends.EXECUTOR_SANITIZE) is value

    @pytest.mark.parametrize("raw", ["enabled", "2", "y"])
    def test_a_mistyped_flag_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(backends.EXECUTOR_SANITIZE.name, raw)
        with pytest.raises(ValidationError, match="REPRO_EXECUTOR_SANITIZE"):
            backends.read(backends.EXECUTOR_SANITIZE)

    def test_publish_is_seen_by_the_next_read(self, monkeypatch):
        monkeypatch.setenv(DEMO.name, "fast")  # restored after the test
        backends.publish(DEMO, "slow")
        assert backends.read(DEMO) == "slow"
