"""Shared backend resolution: one precedence/fallback policy for every switch.

Two subsystems now pick an engine at run time — the cache simulator
(``reference`` | ``vectorized``) and the executor tier (``library`` |
``numpy`` | ``c``) — and they must behave identically:

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

The non-selector knobs follow the same argument > environment > default
precedence through :func:`resolve_flag` (on/off switches) and
:func:`resolve_count` (positive integers), so this module is the only
place a ``REPRO_*`` executor knob is read from ``os.environ``.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError


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
    env_var: str,
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
    (only for unknown names).
    """
    ladder = list(ladder if ladder is not None else choices)
    probes = available or {}

    source = "argument"
    if requested in (None, "", "auto"):
        # The environment still gets its say (matching the pre-existing
        # cachesim rule: an explicit "auto" argument defers to the env
        # var).  Past that, an *explicit* "auto" means "best available"
        # (ladder walk below) while an absent argument means the
        # subsystem default.
        explicit_auto = requested == "auto"
        env_value = os.environ.get(env_var) or None
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


_TRUTHY = frozenset({"1", "true", "on", "yes"})


def resolve_flag(value: Optional[bool], *, env_var: str) -> bool:
    """An on/off switch: argument > ``env_var`` (1/true/on/yes) > off."""
    if value is None:
        value = os.environ.get(env_var, "").strip().lower() in _TRUTHY
    return bool(value)


def resolve_count(
    value: Optional[int], *, env_var: str, default: Callable[[], int], what: str
) -> int:
    """A positive integer: argument > ``env_var`` > ``default()``."""
    if value is None:
        env = os.environ.get(env_var) or None
        if env is None:
            value = default()
        else:
            try:
                value = int(env)
            except ValueError:
                raise ValidationError(
                    f"{env_var} must be an integer, got {env!r}"
                ) from None
    value = int(value)
    if value < 1:
        raise ValidationError(f"{what} must be >= 1, got {value}")
    return value


__all__ = [
    "BackendFallbackWarning",
    "Resolution",
    "resolve",
    "resolve_count",
    "resolve_flag",
    "reset_fallback_announcements",
]
