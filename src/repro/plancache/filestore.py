"""The one content-addressed file store under the plan-cache directory.

Everything a bind realises and persists — plans (``.npz``), emitted
executors (``.py`` / ``.c`` / ``.so``), IR proofs (``.proof``) — is one
file at ``<root>/<key[:2]>/<key>.<suffix>``.  This module is the only
definition of the fan-out path, the atomic commit, the directory scan
and grouped oldest-first eviction; ``DiskStore`` and ``ArtifactStore``
are codecs over it that say what their files hold and which leave
together, and a further persisted kind is a further codec.

Concurrency contract
--------------------

A cache directory is shared state: service worker threads and any
number of *processes* (fleet shards, grid workers, an operator's ``repro
doctor``) may hammer it at once, with no cross-process lock:

* writes are atomic (a tmp file in the shard directory, then
  ``os.replace``): racing writers of one key each publish a complete
  file, the last rename wins, and readers only ever see a complete file.
  Tmp files are invisible to every scan, so no peer's ``clear`` / ``gc``
  takes one from under its writer;
* a file or shard directory that *vanishes* mid-operation (a peer's
  eviction, ``clear()``, quarantine) is that peer having won the race: a
  scan skips it, an ``unlink`` of it removed nothing, and a commit whose
  shard was pruned under it re-creates the shard and retries once;
* a byte budget is enforced from a scan taken *after* the write it
  follows, never from a pre-write size check (the classic TOCTOU: a
  stale check lets N racing writers each conclude there is room), and
  never evicts a ``keep`` path.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CacheError

#: Sibling of the shard directories where corrupt plans land: live to no
#: scan but ``scan(quarantined=True)``.
QUARANTINE_DIR = "quarantine"


def move(src: Path, dst: Path) -> None:
    """The one rename; creates ``dst``'s directory.  ``FileNotFoundError``
    means ``src`` is gone."""
    dst.parent.mkdir(parents=True, exist_ok=True)
    os.replace(src, dst)


def remove(paths: Iterable[Path]) -> int:
    """Unlink ``paths`` and prune the shard directories that leaves
    empty; returns how many files *this* call removed (a failed
    ``unlink`` is a peer's win)."""
    removed = 0
    shards = set()
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        shards.add(path.parent)
    for shard in shards:
        try:
            os.rmdir(shard)
        except OSError:
            pass  # still populated, or a peer pruned it first
    return removed


def evict(
    groups: Iterable[dict], budget: int, keep: Optional[Path] = None
) -> int:
    """Evict whole groups, oldest first, until what is left fits ``budget``.

    A group is ``{"files": [paths], "bytes", "mtime"}`` — ``mtime`` its
    *newest* member's (a group recently extended is recently used) —
    from one store or from several sharing the budget.  A group holding
    ``keep`` is never touched.  Each evicted group is marked with
    ``"removed"``, the files this call itself unlinked (the rest were a
    peer's, and their bytes are gone either way); returns their sum.
    """
    if budget < 0:
        raise CacheError(
            f"gc budget must be >= 0, got {budget}",
            hint="pass --max-bytes 0 to clear the store entirely",
        )
    groups = sorted(groups, key=lambda g: (g["mtime"], str(g["files"][0])))
    total = sum(g["bytes"] for g in groups)
    for group in groups:
        if total <= budget:
            break
        if keep is None or keep not in group["files"]:
            group["removed"] = remove(group["files"])
            total -= group["bytes"]
    return sum(g.get("removed", 0) for g in groups)


def eviction_summary(groups: List[dict], budget: int) -> dict:
    """What :func:`evict` did to ``groups`` (one store's share of them,
    when stores shared the budget): ``removed_chains`` and
    ``remaining_keys`` count groups, ``remaining_entries`` files."""
    gone = [g for g in groups if "removed" in g]
    kept = [g for g in groups if "removed" not in g]
    return {
        "budget_bytes": budget,
        "removed_files": sum(g["removed"] for g in gone),
        "removed_bytes": sum(g["bytes"] for g in gone),
        "removed_chains": len(gone),
        "remaining_entries": sum(len(g["files"]) for g in kept),
        "remaining_keys": len(kept),
        "remaining_bytes": sum(g["bytes"] for g in kept),
    }


class FileStore:
    """Files at ``<root>/<key[:2]>/<key>.<suffix>``; ``suffix`` narrows
    the scans to names ending in it."""

    def __init__(self, root: Path, suffix: str = ""):
        self.root = Path(root)
        self.suffix = suffix

    def path(self, key: str, suffix: str) -> Path:
        # Two-level fan-out (like git) keeps directories small.
        return self.root / key[:2] / f"{key}.{suffix}"

    def commit(self, final: Path, write: Callable[[Path], None]) -> Path:
        """Publish what ``write(tmp)`` produces at ``final``, atomically.

        A racing ``clear`` / ``gc`` may prune the shard before the tmp
        exists in it — ``FileNotFoundError``, or ``FileExistsError`` when
        ``mkdir`` itself loses that race between its ``EEXIST`` and its
        ``is_dir()`` — which earns one more attempt.  The tmp never
        outlives a failure.
        """
        tmp = final.parent / f".tmp-{uuid.uuid4().hex}"

        def publish():
            final.parent.mkdir(parents=True, exist_ok=True)
            write(tmp)
            move(tmp, final)

        try:
            try:
                publish()
            except (FileNotFoundError, FileExistsError):
                publish()
        except BaseException:
            remove([tmp])
            raise
        return final

    def writable(self) -> bool:
        """Create the root if missing and touch a probe no scan sees."""
        probe = self.root / f".tmp-{uuid.uuid4().hex}"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            probe.touch()
            os.unlink(probe)
        except OSError:
            return False
        return True

    def scan(
        self, quarantined: bool = False
    ) -> Iterator[Tuple[Path, os.stat_result]]:
        """The one directory walk: every live file with its ``stat``.

        Skips tmp files, non-files, ``quarantine/`` (with ``quarantined``
        it yields only that directory's files) and whatever vanishes —
        a shard, a file — between being listed and being looked at.
        """

        def entries(directory):
            try:
                with os.scandir(directory) as it:
                    return list(it)
            except OSError:
                return []  # missing, or pruned by a peer mid-scan

        for shard in entries(self.root):
            if (shard.name == QUARANTINE_DIR) != quarantined:
                continue
            for entry in entries(shard.path):
                name = entry.name
                if name.startswith(".") or not name.endswith(self.suffix):
                    continue
                try:
                    if entry.is_file():
                        yield Path(entry.path), entry.stat()
                except OSError:
                    continue  # lost the race to a peer: already gone

    def file_groups(self) -> Dict[str, dict]:
        """One eviction group per key: the files sharing it (a build's
        ``.c`` + ``.so`` + ``.proof``) leave together."""
        groups: Dict[str, dict] = {}
        for path, stat in self.scan():
            group = groups.setdefault(
                path.name.split(".", 1)[0],
                {"files": [], "bytes": 0, "mtime": 0.0},
            )
            group["files"].append(path)
            group["bytes"] += stat.st_size
            group["mtime"] = max(group["mtime"], stat.st_mtime)
        return groups

    def keys(self) -> List[str]:
        return sorted(self.file_groups())

    def total_bytes(self) -> int:
        return sum(stat.st_size for _, stat in self.scan())

    def clear(self) -> int:
        return remove(path for path, _ in self.scan())


__all__ = [
    "FileStore", "QUARANTINE_DIR", "evict", "eviction_summary", "move",
    "remove",
]
