"""The settings table and the shared backend-resolution policy."""

import warnings

import pytest

from repro import backends
from repro.backends import BackendFallbackWarning, Setting, resolve
from repro.errors import ValidationError

DEMO = Setting("REPRO_DEMO_BACKEND", str, None, "demo selector")


@pytest.fixture(autouse=True)
def _fresh_announcements():
    backends.reset_fallback_announcements()
    yield
    backends.reset_fallback_announcements()


def _resolve(requested=None, env=None, monkeypatch=None, **kw):
    kw.setdefault("subsystem", "demo")
    kw.setdefault("choices", ("auto", "fast", "slow"))
    kw.setdefault("setting", DEMO)
    kw.setdefault("default", "slow")
    kw.setdefault("ladder", ("fast", "slow"))
    if monkeypatch is not None:
        if env is None:
            monkeypatch.delenv("REPRO_DEMO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_DEMO_BACKEND", env)
    return resolve(requested, **kw)


class TestPrecedence:
    def test_argument_beats_env(self, monkeypatch):
        res = _resolve("fast", env="slow", monkeypatch=monkeypatch)
        assert res.backend == "fast" and res.source == "argument"

    def test_env_beats_default(self, monkeypatch):
        res = _resolve(None, env="fast", monkeypatch=monkeypatch)
        assert res.backend == "fast" and res.source == "env"

    def test_default_when_nothing_set(self, monkeypatch):
        res = _resolve(None, monkeypatch=monkeypatch)
        assert res.backend == "slow" and res.source == "default"

    def test_explicit_auto_defers_to_env(self, monkeypatch):
        res = _resolve("auto", env="slow", monkeypatch=monkeypatch)
        assert res.backend == "slow" and res.source == "env"

    def test_auto_resolves_to_best_available(self, monkeypatch):
        res = _resolve("auto", monkeypatch=monkeypatch, default="auto")
        assert res.backend == "fast"

    def test_unknown_name_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown demo backend"):
            _resolve("warp", monkeypatch=monkeypatch)

    def test_unknown_env_value_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown demo backend"):
            _resolve(None, env="warp", monkeypatch=monkeypatch)


class TestFallback:
    def _probe_down(self):
        return {"fast": lambda: (False, "no turbo fan")}

    def test_unavailable_backend_walks_the_ladder(self, monkeypatch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _resolve(
                "fast", monkeypatch=monkeypatch, available=self._probe_down()
            )
        assert res.backend == "slow"
        assert res.degraded
        assert res.fallbacks == (("fast", "slow", "no turbo fan"),)
        assert [w.category for w in caught] == [BackendFallbackWarning]
        assert "no turbo fan" in str(caught[0].message)

    def test_fallback_warns_exactly_once_per_process(self, monkeypatch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                _resolve(
                    "fast",
                    monkeypatch=monkeypatch,
                    available=self._probe_down(),
                )
        assert len(caught) == 1

    def test_auto_skips_unavailable_rungs_silently(self, monkeypatch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _resolve(
                "auto",
                monkeypatch=monkeypatch,
                default="auto",
                available=self._probe_down(),
            )
        assert res.backend == "slow"
        assert not res.degraded and not caught

    def test_warn_false_suppresses_the_warning(self, monkeypatch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _resolve(
                "fast",
                monkeypatch=monkeypatch,
                available=self._probe_down(),
                warn=False,
            )
        assert res.backend == "slow" and not caught


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
