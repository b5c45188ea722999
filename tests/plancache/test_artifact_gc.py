"""Artifact-store disk budgeting: LRU eviction by key group.

``gc`` must evict whole key groups (a build's ``.c`` + ``.so`` +
``.proof`` live or die together), oldest first by the group's newest
mtime, and stop as soon as the store fits the budget.  Content
addressing makes eviction always safe — a re-bind rebuilds — so the
only contract worth testing is *which* files go and *when*.
"""

import os

import pytest

from repro.errors import CacheError
from repro.plancache.artifacts import ArtifactStore


def _populate(store, keys, body=1000, proof=500):
    """One .c + one .proof per key, with strictly increasing mtimes."""
    for step, key in enumerate(keys):
        c_path = store.put_text(key, "c", "x" * body)
        p_path = store.put_text(key, "proof", "y" * proof)
        stamp = 1_000_000 + step * 100
        os.utime(c_path, (stamp, stamp))
        os.utime(p_path, (stamp + 1, stamp + 1))


KEYS = ["aa01", "bb02", "cc03", "dd04", "ee05"]


def test_gc_evicts_oldest_key_groups_first(tmp_path):
    store = ArtifactStore(tmp_path)
    _populate(store, KEYS)
    assert store.total_bytes() == 5 * 1500

    summary = store.gc(max_bytes=4000)
    assert summary["removed_files"] == 6  # three groups x two files
    assert summary["removed_bytes"] == 4500
    assert summary["remaining_bytes"] == 3000
    assert summary["remaining_keys"] == 2
    # The two youngest keys survive, with both of their files.
    assert set(store.keys()) == {"dd04", "ee05"}
    assert store.get("ee05", "c") and store.get("ee05", "proof")
    assert store.get("aa01", "c") is None


def test_gc_groups_are_atomic(tmp_path):
    """A key's files share one fate even when only one of them is old:
    the group ages by its *newest* file."""
    store = ArtifactStore(tmp_path)
    _populate(store, ["aa01", "bb02"])
    # Touch aa01's proof to be the newest file overall: the whole aa01
    # group is now younger than bb02.
    os.utime(store.path("aa01", "proof"), (2_000_000, 2_000_000))
    summary = store.gc(max_bytes=1500)
    assert set(store.keys()) == {"aa01"}
    assert summary["remaining_keys"] == 1


def test_gc_noop_under_budget(tmp_path):
    store = ArtifactStore(tmp_path)
    _populate(store, KEYS)
    summary = store.gc(max_bytes=10**9)
    assert summary["removed_files"] == 0
    assert summary["remaining_keys"] == 5


def test_gc_zero_budget_clears_everything(tmp_path):
    store = ArtifactStore(tmp_path)
    _populate(store, KEYS)
    summary = store.gc(max_bytes=0)
    assert summary["remaining_bytes"] == 0
    assert store.keys() == []
    # Emptied shard directories are pruned too.
    assert not any(store.root.iterdir()) or not store.root.exists()


def test_gc_negative_budget_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(CacheError, match="budget"):
        store.gc(max_bytes=-1)


def test_gc_on_empty_store(tmp_path):
    store = ArtifactStore(tmp_path)
    summary = store.gc(max_bytes=100)
    assert summary["removed_files"] == 0
    assert summary["remaining_bytes"] == 0


def test_health_reports_by_suffix(tmp_path):
    store = ArtifactStore(tmp_path)
    _populate(store, ["aa01", "bb02"])
    health = store.health()
    assert health["artifacts"] == 2
    assert health["total_bytes"] == 2 * 1500
    assert health["by_suffix"]["c"] == {"files": 2, "bytes": 2000}
    assert health["by_suffix"]["proof"] == {"files": 2, "bytes": 1000}


def test_legacy_dyn_files_are_never_loaded_and_age_out(
    tmp_path, monkeypatch, capsys
):
    """Older versions stored the dynamic scheduler's builds under
    ``dyn.*`` suffixes.  There is one artifact family now: a bind never
    reads such a file, ``cache stats`` counts it by kind like any other,
    and ``cache gc`` evicts it as an ordinary LRU entry."""
    from repro.__main__ import main
    from repro.lowering.executor import clear_executor_memo, compile_executor

    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_EXECUTOR_SCHEDULER", raising=False)
    clear_executor_memo()
    wave = compile_executor("moldyn", backend="numpy", tiled=True)
    key = os.path.basename(wave.artifact_path).split(".", 1)[0]
    store = ArtifactStore(tmp_path)
    # A poisoned legacy artifact under the very key a bind resolves to.
    legacy = store.put_text(key, "dyn.py", "raise SystemExit('loaded')\n")
    os.utime(legacy, (1_000_000, 1_000_000))
    clear_executor_memo()
    dynamic = compile_executor(
        "moldyn", backend="numpy", tiled=True, scheduler="dynamic"
    )
    clear_executor_memo()
    assert dynamic.artifact_path == wave.artifact_path != str(legacy)

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "by scheduler" not in out
    (line,) = [l for l in out.splitlines() if "artifacts by kind" in l]
    assert "py 2 (" in line and "proof 1 (" in line and "so 0 (0 B)" in line

    # Its own key group: evicted first, the live build untouched.
    other = store.put_text("ff99", "dyn.so", "z" * 64)
    os.utime(other, (1_000_001, 1_000_001))
    budget = store.total_bytes() - 1
    summary = store.gc(max_bytes=budget)
    assert summary["removed_files"] == 1 and not other.exists()
    assert os.path.exists(wave.artifact_path)
