"""Run-time settings, in one place.

Every ``REPRO_*`` environment variable the package reads is a
:class:`Setting` in :data:`SETTINGS`, read through :func:`read` at call
time, never at import: a harness may scrub the environment after
start-up, and tests set variables with ``monkeypatch.setenv``.  A value
the parser rejects raises :class:`~repro.errors.ValidationError` naming
the variable, so a typo never silently falls back to the default.
:func:`publish` is the one write.  No other module touches
``os.environ`` (``tests/test_settings_guard.py`` enforces it).

:class:`Resolution` and :class:`BackendFallbackWarning` are the
vocabulary of the one backend selection there is,
:func:`repro.lowering.executor.resolve_executor_backend`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.errors import ValidationError


@dataclass(frozen=True)
class Setting:
    """One environment variable the package reads."""

    name: str
    #: Turns the raw (non-empty) value into the setting's value; raises
    #: ``ValueError`` on a value it does not accept.
    parse: Callable[[str], Any]
    #: The value when the variable is unset or empty.
    default: Any
    doc: str


_TRUTHY = frozenset({"1", "true", "on", "yes"})
_FALSY = frozenset({"0", "false", "off", "no", ""})


def _flag(raw: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError("expected 1/true/on/yes or 0/false/off/no")


CC = Setting(
    "REPRO_CC", str, None,
    "C compiler for the compiled executor tier (unset: gcc, cc, clang)",
)
PLANCACHE_DIR = Setting(
    "REPRO_PLANCACHE_DIR", str, None,
    "plan-cache directory (unset: ~/.cache/repro/plancache)",
)
PLANCACHE_MAX_BYTES = Setting(
    "REPRO_PLANCACHE_MAX_BYTES", int, None,
    "disk byte budget of the plan cache (unset or 0: unlimited)",
)
CHAOS_PLAN = Setting(
    "REPRO_CHAOS_PLAN", str, None,
    "JSON chaos plan for serve --shards (unset: no fault injection)",
)
EXECUTOR_BACKEND = Setting(
    "REPRO_EXECUTOR_BACKEND", str, None,
    "executor tier: auto, numpy or c (unset: numpy)",
)
EXECUTOR_SANITIZE = Setting(
    "REPRO_EXECUTOR_SANITIZE", _flag, False,
    "bounds-guarded compiled executors (unset: off)",
)

#: Every environment variable the package reads.
SETTINGS = (
    CC, PLANCACHE_DIR, PLANCACHE_MAX_BYTES, CHAOS_PLAN,
    EXECUTOR_BACKEND, EXECUTOR_SANITIZE,
)


def read(setting: Setting) -> Any:
    """The current value of ``setting``, read from the environment now."""
    raw = os.environ.get(setting.name, "")
    if not raw:
        return setting.default
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{setting.name}={raw!r}: {exc}",
            stage="settings",
            hint=setting.doc,
        ) from None


def publish(setting: Setting, value: str) -> None:
    """Set ``setting`` for this process and the processes it spawns.

    The one write: ``serve --executor-backend`` publishes its choice so
    that thread workers and spawned fleet shards resolve it on each bind.
    """
    os.environ[setting.name] = value


class BackendFallbackWarning(UserWarning):
    """A requested backend was unavailable and `numpy` ran instead."""


@dataclass(frozen=True)
class Resolution:
    """The outcome of one backend resolution."""

    #: The backend that will actually run.
    backend: str
    #: Where the request came from: ``"argument"``, ``"env"``, ``"default"``.
    source: str
    #: What was asked for before availability was consulted.
    requested: str
    #: ``(from, to, reason)`` for each fallback taken (0 or 1).
    fallbacks: Tuple[Tuple[str, str, str], ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.fallbacks)


__all__ = [
    "BackendFallbackWarning",
    "Resolution",
    "SETTINGS",
    "Setting",
    "publish",
    "read",
]
