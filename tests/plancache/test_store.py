"""Two-tier store mechanics: LRU budget, atomic artifacts, safe misses."""

import shutil

import numpy as np
import pytest

from repro.errors import CacheError, ValidationError
from repro.plancache import (
    CacheEntry,
    DiskStore,
    MemoryLRU,
    PlanCache,
    resolve_cache_dir,
    resolve_max_bytes,
)

CACHE_DIR_ENV = "REPRO_PLANCACHE_DIR"
MAX_BYTES_ENV = "REPRO_PLANCACHE_MAX_BYTES"

pytestmark = pytest.mark.plancache


def entry_of(nbytes, tag="x"):
    """An entry whose array payload is roughly ``nbytes`` bytes."""
    return CacheEntry(
        meta={"tag": tag},
        arrays={"a": np.zeros(max(1, nbytes // 8), dtype=np.int64)},
    )


class TestMemoryLRU:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(CacheError):
            MemoryLRU(0)

    def test_evicts_least_recently_used_within_budget(self):
        lru = MemoryLRU(budget_bytes=4096)
        lru.put("a", entry_of(1500))
        lru.put("b", entry_of(1500))
        assert len(lru) == 2
        lru.get("a")  # touch: "b" is now the LRU victim
        lru.put("c", entry_of(1500))
        assert lru.get("b") is None
        assert lru.get("a") is not None and lru.get("c") is not None
        assert lru.stats.evictions == 1
        assert lru.total_bytes <= lru.budget_bytes

    def test_oversized_entry_is_not_admitted(self):
        lru = MemoryLRU(budget_bytes=1024)
        lru.put("big", entry_of(64 * 1024))
        assert len(lru) == 0 and lru.get("big") is None
        assert lru.stats.evictions == 0

    def test_reput_replaces_without_double_counting(self):
        lru = MemoryLRU(budget_bytes=8192)
        lru.put("a", entry_of(1000))
        before = lru.total_bytes
        lru.put("a", entry_of(1000))
        assert lru.total_bytes == before and len(lru) == 1

    def test_clear(self):
        lru = MemoryLRU(budget_bytes=8192)
        lru.put("a", entry_of(100))
        lru.put("b", entry_of(100))
        assert lru.clear() == 2
        assert len(lru) == 0 and lru.total_bytes == 0


class TestDiskStore:
    KEY = "ab" + "0" * 62  # fan-out prefix "ab"

    def test_round_trip_and_atomicity(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        entry = CacheEntry(
            meta={"note": "hello"},
            arrays={"sigma": np.arange(10, dtype=np.int64)},
        )
        path = store.put(self.KEY, entry)
        assert path.exists() and path.parent.name == "ab"
        # Atomic rename leaves no temp files behind.
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []
        loaded = store.get(self.KEY)
        assert loaded is not None
        assert loaded.meta["note"] == "hello"
        assert np.array_equal(loaded.arrays["sigma"], entry.arrays["sigma"])
        assert store.keys() == [self.KEY]
        assert store.total_bytes() > 0

    def test_truncated_artifact_is_safe_miss_and_removed(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        path = store.put(self.KEY, entry_of(256))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get(self.KEY) is None
        assert store.stats.corrupt == 1
        assert not path.exists()  # healed: the slot is free again

    def test_artifact_under_wrong_key_is_safe_miss(self, tmp_path):
        """An artifact copied to another key's slot must never be served."""
        store = DiskStore(tmp_path / "cache")
        src = store.put(self.KEY, entry_of(256, tag="original"))
        wrong = "cd" + "0" * 62
        dst = store._path(wrong)
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(src, dst)
        assert store.get(wrong) is None  # embedded key mismatch
        assert store.stats.corrupt == 1
        assert store.get(self.KEY) is not None  # the real slot is intact

    def test_format_version_mismatch_is_safe_miss(self, tmp_path, monkeypatch):
        from repro.plancache import store as store_mod

        store = DiskStore(tmp_path / "cache")
        store.put(self.KEY, entry_of(256))
        monkeypatch.setattr(store_mod, "FORMAT_VERSION", 2)
        assert store.get(self.KEY) is None
        assert store.stats.corrupt == 1

    def test_clear_and_health(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        path = store.put(self.KEY, entry_of(256))
        path.write_bytes(b"not an npz")
        health = store.health()
        assert health["exists"] and health["writable"]
        assert health["entries"] == 1 and health["unreadable"] == 1
        assert store.clear() == 1
        assert store.keys() == []

    def test_unwritable_directory_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go\n")
        store = DiskStore(blocker / "cache")
        with pytest.raises(CacheError):
            store.put(self.KEY, entry_of(64))


class TestResolveCacheDir:
    def test_explicit_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"

    def test_default_is_user_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        resolved = str(resolve_cache_dir())
        assert resolved.endswith("repro/plancache")


class TestResolveMaxBytes:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "100")
        assert resolve_max_bytes(50) == 50
        assert resolve_max_bytes() == 100

    def test_zero_and_unset_mean_unlimited(self, monkeypatch):
        monkeypatch.delenv(MAX_BYTES_ENV, raising=False)
        assert resolve_max_bytes() is None
        assert resolve_max_bytes(0) is None

    def test_negative_budget_is_refused_from_either_source(
        self, tmp_path, monkeypatch
    ):
        """A negative budget used to be accepted, and then every put
        published its artifact and raised from the eviction pass."""
        monkeypatch.delenv(MAX_BYTES_ENV, raising=False)
        with pytest.raises(CacheError, match=r"max_bytes=-5"):
            DiskStore(tmp_path, max_bytes=-5)
        monkeypatch.setenv(MAX_BYTES_ENV, "-5")
        with pytest.raises(CacheError, match=rf"{MAX_BYTES_ENV}=-5"):
            DiskStore(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_env_is_a_typed_error(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "lots")
        with pytest.raises(ValidationError, match=MAX_BYTES_ENV):
            resolve_max_bytes()


class TestPlanCache:
    def test_disk_hit_is_promoted_to_memory(self, tmp_path):
        key = "ef" + "0" * 62
        writer = PlanCache(directory=tmp_path / "cache")
        writer.put(key, entry_of(256))
        # A fresh facade over the same directory: cold memory tier.
        reader = PlanCache(directory=tmp_path / "cache")
        first = reader.get(key)
        assert first is not None and first.meta["tier"] == "disk"
        second = reader.get(key)
        assert second is not None and second.meta["tier"] == "memory"

    def test_memory_only_mode(self):
        cache = PlanCache(use_disk=False)
        key = "aa" + "0" * 62
        cache.put(key, entry_of(128))
        assert cache.get(key) is not None
        assert cache.disk is None
        assert cache.clear() == 0
        assert cache.get(key) is None

    def test_describe_mentions_both_tiers(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "cache")
        text = cache.describe()
        assert "memory tier" in text and "disk tier" in text
