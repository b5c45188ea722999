"""Concurrency contract of the shared cache directory.

Thread-level stress drives one :class:`PlanCache` facade from many
threads (the bind-service shape); process-level stress runs real child
processes against one directory with no coordination (the parallel-grid
shape).  Both must finish with zero corrupt-entry counts, a healthy
directory, and every surviving artifact readable and self-consistent.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.plancache import CacheEntry, DiskStore, PlanCache
from repro.plancache.artifacts import ArtifactStore

pytestmark = pytest.mark.plancache


def entry_for(key, nbytes=256):
    payload = np.full(max(1, nbytes // 8), abs(hash(key)) % 997, dtype=np.int64)
    return CacheEntry(meta={"tag": key}, arrays={"a": payload})


KEYS = [f"{i:02d}deadbeef{i:04d}" for i in range(8)]


def text_for(key):
    return f"/* {key} */\n" * 64


def _plan_round(store, key, worker_index, round_index):
    """put / get / sometimes clear; True when a *wrong* entry was read."""
    store.put(key, entry_for(key))
    got = store.get(key)
    # A racing clear/eviction makes None legitimate; a *wrong*
    # entry never is.
    wrong = got is not None and got.meta["tag"] != key
    if round_index % 5 == worker_index % 5:
        store.clear()
    return wrong


def _artifact_round(store, key, worker_index, round_index):
    """Even workers build and evict; odd workers are the operator beside
    them (``repro doctor`` / ``cache stats`` / ``cache gc``).  True when
    a torn file was read."""
    if worker_index % 2:
        store.health()
        store.total_bytes()
        store.keys()
        store.gc(10**9)
        return False
    store.put_text(key, "c", text_for(key))
    path = store.put_text(key, "proof", text_for(key))
    try:
        torn = path.read_text() != text_for(key)
    except FileNotFoundError:
        torn = False  # a peer's gc(0) / clear() got there first
    store.gc(0) if round_index % 2 else store.clear()
    return torn


def _process_worker(
    directory, worker_index, rounds, max_bytes, queue, artifacts=False
):
    """One unsynchronized writer/reader/evictor; reports its observations."""
    try:
        if artifacts:
            store, one_round = ArtifactStore(directory), _artifact_round
        else:
            store = DiskStore(directory, max_bytes=max_bytes)
            one_round = _plan_round
        mismatches = 0
        for round_index in range(rounds):
            key = KEYS[(worker_index + round_index) % len(KEYS)]
            mismatches += one_round(store, key, worker_index, round_index)
        corrupt = 0 if artifacts else store.stats.corrupt
        queue.put(("ok", mismatches, corrupt))
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        queue.put(("error", repr(exc), 0))


class TestThreadStress:
    def test_shared_facade_many_threads(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "cache")
        errors = []

        def worker(index):
            try:
                for round_index in range(30):
                    key = KEYS[(index + round_index) % len(KEYS)]
                    cache.put(key, entry_for(key))
                    got = cache.get(key)
                    if got is not None and got.meta["tag"] != key:
                        errors.append(f"wrong entry for {key}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert cache.stats.corrupt == 0
        health = cache.disk.health()
        assert health["unreadable"] == 0
        # Every surviving artifact is complete and self-consistent.
        for key in cache.disk.keys():
            got = cache.disk.get(key)
            assert got is None or got.meta["key"] == key

    def test_get_races_clear_is_a_plain_miss(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "cache")
        for key in KEYS:
            cache.put(key, entry_for(key))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                for key in KEYS:
                    try:
                        cache.get(key)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        return

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(20):
            cache.clear()
            for key in KEYS:
                cache.put(key, entry_for(key))
        stop.set()
        thread.join()
        assert errors == []
        assert cache.stats.corrupt == 0


class TestProcessStress:
    @pytest.mark.parametrize(
        "max_bytes, artifacts, rounds",
        [(None, False, 20), (2048, False, 20), (None, True, 400)],
        ids=["None", "2048", "artifacts"],
    )
    def test_uncoordinated_processes_share_one_directory(
        self, tmp_path, max_bytes, artifacts, rounds
    ):
        directory = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_process_worker,
                args=(
                    str(directory), index, rounds, max_bytes, queue, artifacts
                ),
            )
            for index in range(4)
        ]
        for p in workers:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for p in workers:
            p.join(timeout=120)

        failures = [o for o in outcomes if o[0] != "ok"]
        assert failures == [], failures
        # No worker ever read a wrong entry, and nothing it loaded was
        # flagged corrupt: concurrent writes stayed atomic.
        assert all(mismatches == 0 for _, mismatches, _ in outcomes)
        assert all(corrupt == 0 for _, _, corrupt in outcomes)

        if artifacts:
            survivors = ArtifactStore(directory)
            assert survivors.health()["total_bytes"] == survivors.total_bytes()
            for key in survivors.keys():
                for suffix in ("c", "proof"):
                    path = survivors.get(key, suffix)
                    assert path is None or path.read_text() == text_for(key)
            return
        survivors = DiskStore(directory)
        health = survivors.health()
        assert health["unreadable"] == 0
        for key in survivors.keys():
            got = survivors.get(key)
            assert got is None or got.meta["key"] == key

    def test_budget_eviction_under_concurrent_writers(self, tmp_path):
        directory = tmp_path / "cache"
        max_bytes = 4096
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_process_worker,
                args=(str(directory), index, 15, max_bytes, queue),
            )
            for index in range(3)
        ]
        for p in workers:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for p in workers:
            p.join(timeout=120)
        assert [o[0] for o in outcomes] == ["ok"] * 3

        # Stragglers may each have protected their own just-written
        # artifact (``keep=``), so allow one entry of slack per writer.
        store = DiskStore(directory, max_bytes=max_bytes)
        entry_bytes = max(
            (entry_for(k).nbytes for k in KEYS), default=0
        )
        assert store.total_bytes() <= max_bytes + 3 * (entry_bytes + 1024)
        # A final single-writer put must restore the budget exactly.
        store.put(KEYS[0], entry_for(KEYS[0]))
        assert store.total_bytes() <= max_bytes
