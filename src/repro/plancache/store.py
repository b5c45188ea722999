"""Two-tier content-addressed storage for inspector plans.

* :class:`MemoryLRU` — an in-process tier with a **byte budget**: entries
  are evicted least-recently-used when the realized index arrays would
  exceed the budget (inspector results are mostly ``int64`` arrays, so
  bytes — not entry counts — are the right unit).
* :class:`DiskStore` — a persistent tier of ``.npz`` artifacts under a
  configurable cache directory, one file per key: the plan codec over
  :mod:`repro.plancache.filestore` (paths, atomic commit, scans,
  eviction, and the concurrency contract of the shared directory).
  Unreadable or mismatched artifacts are a *safe miss*: they are
  counted, **quarantined** (moved to a ``quarantine/`` sibling with a
  reason file, so injected or real corruption stays observable and
  diagnosable), and the inspectors simply re-run.
* :class:`PlanCache` — the facade composing both tiers (disk optional),
  promoting disk hits into memory, and carrying the
  :class:`~repro.plancache.stats.CacheStats` counters; it serializes its
  in-process tier behind an ``RLock`` so service threads can share one
  facade.

Artifacts are self-describing: every ``.npz`` carries a ``__meta__``
JSON member recording the format version and its own key, which the
loader re-checks before trusting the arrays.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import backends
from repro.errors import CacheError
from repro.plancache.filestore import (
    QUARANTINE_DIR,
    FileStore,
    evict,
    eviction_summary,
    move,
    remove,
)
from repro.plancache.stats import CacheStats

#: Bump when the artifact layout changes; old artifacts become safe misses.
FORMAT_VERSION = 1

#: Default in-memory byte budget (64 MiB of realized index arrays).
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

#: In-process epoch-aux slots kept per :class:`PlanCache` (small: each
#: aux holds two int64 arrays over rows/occurrences plus a tile DAG).
AUX_SLOTS = 16


def resolve_max_bytes(max_bytes=None) -> Optional[int]:
    """Disk byte budget: explicit arg > ``REPRO_PLANCACHE_MAX_BYTES`` >
    unlimited (``None``; a budget of 0 also means unlimited)."""
    source = "max_bytes"
    if max_bytes is None:
        max_bytes = backends.read(backends.PLANCACHE_MAX_BYTES)
        source = backends.PLANCACHE_MAX_BYTES.name
        if max_bytes is None:
            return None
    max_bytes = int(max_bytes)
    if max_bytes < 0:
        raise CacheError(
            f"{source}={max_bytes} is a negative byte budget",
            stage="plancache",
            hint="set a byte count >= 0 (0 = unlimited)",
        )
    return max_bytes or None


def unwritable(directory, exc: OSError) -> CacheError:
    """The typed error of a write that failed under ``directory``."""
    return CacheError(
        f"cannot write cache artifact under {directory}: {exc}",
        stage="plancache",
        hint=f"point {backends.PLANCACHE_DIR.name} (or --cache-dir) "
        "at a writable directory, or disable the disk tier",
    )


def resolve_cache_dir(directory=None) -> Path:
    """The disk tier's directory: explicit arg > ``REPRO_PLANCACHE_DIR``
    > user cache."""
    if directory is None:
        directory = backends.read(backends.PLANCACHE_DIR)
        if directory is None:
            directory = "~/.cache/repro/plancache"
    return Path(directory).expanduser()


@dataclass
class CacheEntry:
    """One stored plan: JSON-able metadata + named index arrays.

    The arrays are read-only, so what is derived from them is a fact of
    the entry: :meth:`digests` computes it once and keeps it here, never
    in ``meta`` and never on disk (an entry loaded from disk derives its
    own)."""

    meta: dict
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    _digests: Optional[Dict[str, str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def digests(self, compute: Callable[[], Dict[str, str]]) -> Dict[str, str]:
        """The digests of what a hit serves from this entry, computed by
        ``compute`` at most once.  ``compute`` hashes what the entry's
        arrays alone determine, so two threads that derive them at once
        may both compute, and either result is the fact."""
        if self._digests is None:
            self._digests = compute()
        return self._digests

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values()) + len(
            json.dumps(self.meta)
        )


class MemoryLRU:
    """In-process LRU over a byte budget."""

    def __init__(self, budget_bytes: int, stats: Optional[CacheStats] = None):
        if budget_bytes <= 0:
            raise CacheError(
                f"memory budget must be positive, got {budget_bytes}",
                stage="plancache",
                hint="pass memory_budget_bytes > 0 or use_disk-only caching",
            )
        self.budget_bytes = int(budget_bytes)
        self.stats = stats if stats is not None else CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        size = entry.nbytes
        if size > self.budget_bytes:
            return  # larger than the whole tier: disk-only
        self.discard(key)
        self._entries[key] = entry
        self._bytes += size
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1

    def discard(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

    def clear(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self._bytes = 0
        return count


def _meta(npz) -> dict:
    return json.loads(bytes(npz["__meta__"]).decode("utf-8"))


class DiskStore(FileStore):
    """Persistent tier: one atomic-rename ``.npz`` artifact per key."""

    def __init__(
        self,
        directory=None,
        stats: Optional[CacheStats] = None,
        max_bytes=None,
    ):
        super().__init__(resolve_cache_dir(directory), suffix=".npz")
        self.directory = self.root
        self.quarantine_dir = self.root / QUARANTINE_DIR
        self.stats = stats if stats is not None else CacheStats()
        self.max_bytes = resolve_max_bytes(max_bytes)

    def _path(self, key: str) -> Path:
        return self.path(key, "npz")

    def get(self, key: str) -> Optional[CacheEntry]:
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = _meta(npz)
                if (
                    meta.get("format") != FORMAT_VERSION
                    or meta.get("key") != key
                ):
                    raise ValueError("artifact metadata mismatch")
                arrays = {
                    name: npz[name] for name in npz.files if name != "__meta__"
                }
                for array in arrays.values():
                    array.setflags(write=False)
        except FileNotFoundError:
            # Never stored — or a concurrent peer evicted or cleared it
            # under us.  A plain miss either way, not corruption.
            return None
        except Exception as exc:
            # Truncated, tampered, wrong-format, or foreign file: a safe
            # miss.  Quarantine it (don't silently unlink) so injected
            # corruption is observable, and the slot heals on next store.
            self.stats.corrupt += 1
            self._quarantine(path, key, exc)
            return None
        return CacheEntry(meta=meta, arrays=arrays)

    def _quarantine(self, path: Path, key: str, reason: BaseException) -> None:
        """Move a corrupt artifact into ``quarantine/`` with a reason file.

        Best-effort and race-tolerant: a peer may quarantine (or evict)
        the same file first — its rename wins, ours is a no-op.  Falls
        back to plain unlink if the quarantine directory cannot be
        created (e.g. a read-only sibling), so a corrupt entry never
        stays live under its key either way.
        """
        target = self.quarantine_dir / path.name
        try:
            move(path, target)
        except FileNotFoundError:
            return
        except OSError:
            remove([path])
            return
        self.stats.corrupt_quarantined += 1
        try:
            target.with_suffix(".reason.txt").write_text(
                f"key: {key}\n"
                f"error: {type(reason).__name__}: {reason}\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # the artifact itself is quarantined; the note is extra

    def quarantined(self) -> List[str]:
        """Keys currently sitting in quarantine (sorted)."""
        return sorted(p.stem for p, _ in self.scan(quarantined=True))

    def put(self, key: str, entry: CacheEntry) -> Path:
        meta = dict(entry.meta, format=FORMAT_VERSION, key=key)
        blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

        def write(tmp: Path) -> None:
            with open(tmp, "wb") as fh:
                np.savez(fh, __meta__=blob, **entry.arrays)

        try:
            path = self.commit(self._path(key), write)
        except OSError as exc:
            raise unwritable(self.directory, exc) from exc
        # Budget enforcement runs *after* the atomic rename (a pre-write
        # size check would be a TOCTOU against racing writers), artifact
        # by artifact, and never evicts the one just published.
        if self.max_bytes is not None:
            self.stats.evictions += evict(
                self.file_groups().values(), self.max_bytes, keep=path
            )
        return path

    def health(self) -> dict:
        """Cache-dir health for ``doctor``/``cache stats``: writability
        (by touching a probe file) and what one :meth:`chain_groups`
        pass saw — one ``stat`` and one ``__meta__`` read per artifact."""
        writable = self.writable()
        chains = self.chain_groups()
        groups = chains["groups"]
        return {
            "path": str(self.directory),
            "exists": self.directory.exists(),
            "writable": writable,
            "entries": sum(len(g["keys"]) for g in groups),
            "total_bytes": sum(g["bytes"] for g in groups),
            "unreadable": chains["unreadable"],
            "quarantined": len(self.quarantined()),
            # Epoch-chain observability (delta-binds link child epochs to
            # their parents via ``parent_key`` metadata).  Orphans are
            # reported distinctly: a child whose recorded parent artifact
            # is gone can no longer be walked back to its cold root.
            "epoch_chains": sum(len(g["keys"]) > 1 for g in groups),
            "epoch_children": sum(len(g["keys"]) - 1 for g in groups)
            + len(chains["orphans"]),
            "epoch_orphans": len(chains["orphans"]),
        }

    def chain_groups(self) -> dict:
        """Group live artifacts into epoch chains via ``parent_key`` links.

        Returns ``{"groups": [...], "orphans": [...], "unreadable": n}``.
        Each group is ``{"root", "keys", "files", "bytes", "mtime"}`` —
        ``keys`` (and their ``files``) sorted by epoch (root first),
        ``mtime`` the *newest* member's (a chain recently extended counts
        as recently used), ``root`` the highest ancestor still on disk.
        ``orphans`` lists keys whose recorded parent artifact is missing:
        the chain below the break is grouped under the highest
        *surviving* ancestor, but flagged because it can no longer be
        walked back to a cold bind.  An artifact whose ``__meta__``
        cannot be read is ``unreadable`` and a chain of its own; one that
        vanishes mid-pass (racing eviction/clear) is neither.
        """
        survey = self.file_groups()
        metas: Dict[str, dict] = {}
        unreadable = 0
        for key, group in survey.items():
            try:
                with np.load(group["files"][0], allow_pickle=False) as npz:
                    metas[key] = _meta(npz)
            except FileNotFoundError:
                continue
            except Exception:
                metas[key] = {}
                unreadable += 1
        members: Dict[str, List[str]] = {}
        orphans: List[str] = []
        for key in metas:
            node = key
            seen = {node}
            while True:
                parent = metas[node].get("parent_key")
                if not parent:
                    break
                if parent not in metas:
                    orphans.append(key)
                    break
                if parent in seen:
                    break  # defensive: a metadata cycle never recurses
                seen.add(parent)
                node = parent
            members.setdefault(node, []).append(key)
        groups = []
        for root, keys in members.items():
            keys.sort(key=lambda k: (int(metas[k].get("epoch", 0)), k))
            groups.append(
                {
                    "root": root,
                    "keys": keys,
                    "files": [survey[k]["files"][0] for k in keys],
                    "bytes": sum(survey[k]["bytes"] for k in keys),
                    "mtime": max(survey[k]["mtime"] for k in keys),
                }
            )
        groups.sort(key=lambda g: (g["mtime"], g["root"]))
        return {
            "groups": groups,
            "orphans": sorted(orphans),
            "unreadable": unreadable,
        }

    def gc(self, max_bytes: int) -> dict:
        """Evict down to ``max_bytes`` — whole epoch chains at a time.

        Per-artifact eviction could drop a parent epoch while its
        children survive, leaving the chain unwalkable (orphans); here a
        chain leaves the store only as a group, oldest newest-member
        first, so a live child always keeps its ancestry.
        """
        groups = self.chain_groups()["groups"]
        self.stats.evictions += evict(groups, int(max_bytes))
        return eviction_summary(groups, int(max_bytes))


class PlanCache:
    """The two-tier inspector plan cache.

    ``directory=None`` resolves via ``REPRO_PLANCACHE_DIR`` or the user
    cache directory; ``use_disk=False`` keeps the cache purely
    in-process (tests, ephemeral runs).
    """

    def __init__(
        self,
        directory=None,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        use_disk: bool = True,
        disk_max_bytes=None,
    ):
        self.stats = CacheStats()
        self.memory = MemoryLRU(memory_budget_bytes, stats=self.stats)
        self.disk: Optional[DiskStore] = (
            DiskStore(directory, stats=self.stats, max_bytes=disk_max_bytes)
            if use_disk
            else None
        )
        # The in-memory tier's OrderedDict is not safe under concurrent
        # mutation; the bind service shares one facade across worker
        # threads, so the tiered operations serialize here.
        self._lock = threading.RLock()
        # Epoch aux sidecars (delta-bind first-touch keys + tile DAG),
        # keyed by bind fingerprint.  In-process only: an aux is cheap
        # to rebuild (one O(E) scatter) so it is never persisted.
        self._aux: "OrderedDict[str, object]" = OrderedDict()

    # -- tiered get/put --------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """Look a key up (memory first, then disk); ``None`` on miss.

        Tier-attribution counters are updated here; whole-bind hit/miss
        and per-stage counters are recorded by the memoization layer,
        which knows the stage names.
        """
        with self._lock:
            entry = self.memory.get(key)
            if entry is not None:
                entry.meta["tier"] = "memory"
                return entry
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                entry.meta["tier"] = "disk"
                with self._lock:
                    self.memory.put(key, entry)
                return entry
        return None

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self.memory.put(key, entry)
        if self.disk is not None:
            self.disk.put(key, entry)
        with self._lock:
            self.stats.stores += 1

    def discard(self, key: str) -> None:
        with self._lock:
            self.memory.discard(key)
            self._aux.pop(key, None)

    # -- the stage memo --------------------------------------------------------

    def get_stage(self, key: str) -> Optional[CacheEntry]:
        """A stage's memoised inspector output; ``None`` if never kept."""
        with self._lock:
            return self.memory.get(key)

    def put_stage(self, key: str, entry: CacheEntry) -> None:
        """Keep a stage's inspector output in the memory tier, inside its
        byte budget and LRU order.  Never on disk: writing an artifact
        costs more than running most inspectors.  Not a ``store``."""
        with self._lock:
            self.memory.put(key, entry)

    def clear(self) -> int:
        """Drop both tiers, stage memo included; returns the number of
        disk artifacts removed."""
        with self._lock:
            self.memory.clear()
            self._aux.clear()
        return self.disk.clear() if self.disk is not None else 0

    # -- epoch aux sidecars ----------------------------------------------------

    def get_aux(self, key: str):
        """The epoch aux cached for a bind fingerprint (``None`` if cold)."""
        with self._lock:
            aux = self._aux.get(key)
            if aux is not None:
                self._aux.move_to_end(key)
            return aux

    def put_aux(self, key: str, aux) -> None:
        with self._lock:
            self._aux.pop(key, None)
            self._aux[key] = aux
            while len(self._aux) > AUX_SLOTS:
                self._aux.popitem(last=False)

    def describe(self) -> str:
        lines = [self.stats.describe()]
        lines.append(
            f"  memory tier: {len(self.memory)} entries (plans and stage "
            "outputs), "
            f"{self.memory.total_bytes} / {self.memory.budget_bytes} bytes"
        )
        lines.append(
            f"  disk tier: {self.disk.directory}"
            if self.disk is not None
            else "  disk tier: disabled"
        )
        return "\n".join(lines)


__all__ = [
    "AUX_SLOTS",
    "CacheEntry",
    "DEFAULT_MEMORY_BUDGET",
    "DiskStore",
    "FORMAT_VERSION",
    "MemoryLRU",
    "PlanCache",
    "resolve_cache_dir",
    "resolve_max_bytes",
    "unwritable",
]
