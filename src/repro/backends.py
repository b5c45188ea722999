"""Run-time settings and backend resolution, in one place.

**Settings.**  Every ``REPRO_*`` environment variable the package reads
is a :class:`Setting` in :data:`SETTINGS`, read through :func:`read` at
call time, never at import: a harness may scrub the environment after
start-up, and tests set variables with ``monkeypatch.setenv``.  A value
the parser rejects raises :class:`~repro.errors.ValidationError` naming
the variable, so a typo never silently falls back to the default.
:func:`publish` is the one write.  No other module touches
``os.environ`` (``tests/test_settings_guard.py`` enforces it).

**Backend resolution.**  :func:`resolve` picks the executor tier
(``numpy`` | ``c``) with one precedence/fallback policy:

* **precedence** — an explicit argument beats the environment variable
  beats the subsystem default; the literal ``"auto"`` (from either the
  argument or the environment) means "best available";
* **validation** — an unknown name raises
  :class:`~repro.errors.ValidationError` (a ``ValueError``) naming the
  subsystem and the valid choices (typos must not silently default);
* **fallback** — when the chosen backend is *unavailable* (e.g. the C
  executor on a machine with no C toolchain), resolution walks down the
  subsystem's ladder to the best available backend and emits **one**
  :class:`BackendFallbackWarning` per (subsystem, from, to) per process —
  doctor-visible, never an error, never repeated per bind.

:func:`resolve` returns a :class:`Resolution` carrying the resolved name,
where it came from, and any fallback taken, so callers that only want the
string can take ``.backend`` while ``doctor`` can report the whole story.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    """A requested backend was unavailable and a lower rung was used."""


#: Fallbacks already announced this process: {(subsystem, from, to)}.
_ANNOUNCED: set = set()
_ANNOUNCED_LOCK = threading.Lock()


def reset_fallback_announcements() -> None:
    """Forget which fallbacks were already warned about (test hook)."""
    with _ANNOUNCED_LOCK:
        _ANNOUNCED.clear()


@dataclass(frozen=True)
class Resolution:
    """The outcome of one backend resolution."""

    #: The backend that will actually run.
    backend: str
    #: Where the request came from: ``"argument"``, ``"env"``, ``"default"``.
    source: str
    #: What was asked for before availability was consulted.
    requested: str
    #: ``(from, to, reason)`` for each ladder step taken (usually 0 or 1).
    fallbacks: Tuple[Tuple[str, str, str], ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.fallbacks)


def resolve(
    requested: Optional[str],
    *,
    subsystem: str,
    choices: Sequence[str],
    setting: Setting,
    default: str,
    ladder: Optional[Sequence[str]] = None,
    available: Optional[Dict[str, Callable[[], Tuple[bool, str]]]] = None,
    warn: bool = True,
) -> Resolution:
    """Resolve a backend selector to a concrete, available backend.

    ``choices`` are the valid explicit names (``"auto"`` is always also
    accepted).  ``ladder`` orders backends best-first for ``"auto"`` and
    for fallback walks; it defaults to ``choices``.  ``available`` maps a
    backend name to a probe returning ``(ok, reason)``; backends without
    a probe are always available.  The final rung of the ladder must be
    available — resolution degrades, it never fails for availability
    (only for unknown names).  ``setting`` is the environment variable
    consulted when the argument is absent or ``"auto"``.
    """
    ladder = list(ladder if ladder is not None else choices)
    probes = available or {}

    source = "argument"
    if requested in (None, "", "auto"):
        # The environment still gets its say (an explicit "auto"
        # argument defers to the env var).  Past that, an *explicit*
        # "auto" means "best available" (ladder walk below) while an
        # absent argument means the subsystem default.
        explicit_auto = requested == "auto"
        env_value = read(setting)
        if env_value:
            requested = env_value
            source = "env"
        elif explicit_auto:
            requested = "auto"
        else:
            requested = default
            source = "default"
    if requested != "auto" and requested not in choices:
        raise ValidationError(
            f"unknown {subsystem} backend {requested!r}; "
            f"choose from {tuple(choices)}"
        )

    def _probe(name: str) -> Tuple[bool, str]:
        probe = probes.get(name)
        if probe is None:
            return True, ""
        return probe()

    fallbacks: List[Tuple[str, str, str]] = []
    if requested == "auto":
        backend = ladder[-1]
        for name in ladder:
            ok, _reason = _probe(name)
            if ok:
                backend = name
                break
    else:
        backend = requested
        ok, reason = _probe(backend)
        if not ok:
            # Walk down the ladder from just below the requested rung.
            start = ladder.index(backend) + 1 if backend in ladder else 0
            for name in ladder[start:]:
                next_ok, _ = _probe(name)
                if next_ok:
                    fallbacks.append((backend, name, reason))
                    backend = name
                    break
            else:  # pragma: no cover - ladders end in an always-on rung
                raise ValidationError(
                    f"no available {subsystem} backend below {backend!r}"
                )

    resolution = Resolution(
        backend=backend,
        source=source,
        requested=requested,
        fallbacks=tuple(fallbacks),
    )
    if warn:
        for frm, to, reason in resolution.fallbacks:
            key = (subsystem, frm, to)
            with _ANNOUNCED_LOCK:
                seen = key in _ANNOUNCED
                _ANNOUNCED.add(key)
            if not seen:
                warnings.warn(
                    f"{subsystem} backend {frm!r} unavailable "
                    f"({reason}); falling back to {to!r}",
                    BackendFallbackWarning,
                    stacklevel=2,
                )
    return resolution


__all__ = [
    "BackendFallbackWarning",
    "Resolution",
    "SETTINGS",
    "Setting",
    "publish",
    "read",
    "resolve",
    "reset_fallback_announcements",
]
