"""Content-addressed store for compiled executor artifacts.

Lives under the plan cache root (``<cache_dir>/artifacts/``) so one
``REPRO_PLANCACHE_DIR`` governs both plan entries and compiled
executors.  Artifacts are keyed by the full build fingerprint —
lowered-IR hash x pass-config digest x emitter version x toolchain
fingerprint (see :func:`repro.lowering.executor.artifact_key`) — so a
warm bind loads a cached ``.so``/``.py`` byte-for-byte instead of
recompiling, and any change to the IR, the pass pipeline, an emitter, or
the system compiler silently addresses a fresh slot.

Paths, the crash-safe commit, scans and eviction are
:class:`~repro.plancache.filestore.FileStore`'s, shared with the plan
store: two racing builders of one key both succeed, with identical
content.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.plancache.filestore import FileStore, evict, eviction_summary
from repro.plancache.store import resolve_cache_dir

#: Subdirectory of the plan-cache root holding compiled artifacts.
ARTIFACT_SUBDIR = "artifacts"


class ArtifactStore(FileStore):
    """Filesystem store mapping ``(key, suffix)`` to one artifact file."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        super().__init__(resolve_cache_dir(directory) / ARTIFACT_SUBDIR)

    def get(self, key: str, suffix: str) -> Optional[Path]:
        path = self.path(key, suffix)
        return path if path.exists() else None

    def put_text(self, key: str, suffix: str, text: str) -> Path:
        return self.commit(
            self.path(key, suffix), lambda tmp: tmp.write_text(text)
        )

    def get_or_build_text(
        self, key: str, suffix: str, build: Callable[[], str]
    ) -> Tuple[Path, bool]:
        """Return ``(path, hit)``; on miss, build the text and store it."""
        existing = self.get(key, suffix)
        if existing is not None:
            return existing, True
        return self.put_text(key, suffix, build()), False

    def get_or_build_file(
        self, key: str, suffix: str, build: Callable[[Path], None]
    ) -> Tuple[Path, bool]:
        """Return ``(path, hit)``; on miss, ``build(tmp_path)`` must write
        the artifact to ``tmp_path``, which is then committed atomically."""
        existing = self.get(key, suffix)
        if existing is not None:
            return existing, True

        def write(tmp: Path) -> None:
            build(tmp)
            if not tmp.exists():
                raise RuntimeError(
                    f"artifact builder produced no file for {key}.{suffix}"
                )

        return self.commit(self.path(key, suffix), write), False

    def gc(self, max_bytes: int) -> dict:
        """Evict least-recently-used artifacts until the store fits a
        disk budget.

        Files sharing a key (the ``.c`` source, its ``.so``, the
        ``.proof``) are evicted together, ordered by the key's most
        recent mtime — so a warm executor never loses only part of its
        build, and the coldest builds go first.  Content addressing
        makes every eviction safe: the next bind of that executor is a
        rebuild (and a re-proof), never a wrong answer.

        Returns a summary dict (files/bytes removed, bytes remaining).
        """
        groups = list(self.file_groups().values())
        evict(groups, max_bytes)
        return eviction_summary(groups, max_bytes)

    def health(self) -> dict:
        by_suffix: dict = {}
        keys = set()
        for path, stat in self.scan():
            key, _, suffix = path.name.partition(".")
            keys.add(key)
            slot = by_suffix.setdefault(
                suffix or "?", {"files": 0, "bytes": 0}
            )
            slot["files"] += 1
            slot["bytes"] += stat.st_size
        return {
            "directory": str(self.root),
            "artifacts": len(keys),
            "total_bytes": sum(slot["bytes"] for slot in by_suffix.values()),
            "by_suffix": by_suffix,
        }


__all__ = ["ARTIFACT_SUBDIR", "ArtifactStore"]
