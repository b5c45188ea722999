"""The one file store under the cache directory: its four primitives, the
layout it must keep serving, and the guard that keeps it the only one.

Plans, compiled executors and proofs are codecs over
:mod:`repro.plancache.filestore`.  A rename, a temp file, an unlink, an
rmdir or a directory walk anywhere else under ``plancache/`` or
``lowering/`` is a second commit path or a second scan growing back —
checked on the syntax tree, like the inspectors' sort guard.
"""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import CacheError
from repro.plancache import CacheEntry, DiskStore, PlanCache
from repro.plancache.artifacts import ArtifactStore
from repro.plancache.filestore import FileStore, evict, remove

pytestmark = pytest.mark.plancache

SRC = Path(repro.__file__).parent

#: attribute name of a guarded call -> the ``filestore`` functions that
#: may make it (the writability probe unlinks its own probe).
GUARDED_CALLS = {
    "replace": ("move",),
    "rename": (),
    "mkstemp": (),
    "unlink": ("remove", "writable"),
    "rmdir": ("remove",),
    "scandir": ("entries",),
    "glob": (),
    "iterdir": (),
    "listdir": (),
    "walk": (),
}


def _file_calls(path):
    """``(enclosing function, attribute name, line)`` of every guarded
    call written ``x.f(...)`` — ``os.replace``, ``path.unlink`` alike."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in GUARDED_CALLS
            # ``str.replace`` takes two arguments and is everywhere.
            and not (node.func.attr == "replace" and _is_text_replace(node))
        ):
            found.append((function, node.func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _is_text_replace(call):
    owner = call.func.value
    return not (isinstance(owner, ast.Name) and owner.id == "os")


def test_file_operations_live_in_the_file_store_only():
    offenders = []
    for package in ("plancache", "lowering"):
        for path in sorted((SRC / package).glob("*.py")):
            for function, call, line in _file_calls(path):
                if (
                    path.name != "filestore.py"
                    or function not in GUARDED_CALLS[call]
                ):
                    offenders.append(
                        f"{package}/{path.name}:{line} {function}() "
                        f"calls {call}"
                    )
    assert not offenders, (
        "a commit, an unlink or a directory walk outside "
        "repro.plancache.filestore — store it through FileStore:\n"
        + "\n".join(offenders)
    )


def test_guard_sees_a_planted_commit(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os, tempfile\n"
        "def put(path, text):\n"
        "    fd, tmp = tempfile.mkstemp(dir=path.parent)\n"
        "    os.replace(tmp, path)\n"
        "    return text.replace('a', 'b')\n"
        "def clear(root):\n"
        "    for p in root.iterdir():\n"
        "        p.unlink()\n"
    )
    assert [(fn, call) for fn, call, _ in _file_calls(planted)] == [
        ("put", "mkstemp"),
        ("put", "replace"),
        ("clear", "iterdir"),
        ("clear", "unlink"),
    ]


class TestCommit:
    def test_recreates_a_shard_pruned_before_the_write(self, tmp_path):
        """A racing ``gc`` rmdirs the shard between ``mkdir`` and the
        tmp's creation: the write runs once more, into a fresh shard."""
        store = FileStore(tmp_path)
        final = store.path("ab12", "c")
        attempts = []

        def write(tmp):
            attempts.append(tmp)
            if len(attempts) == 1:
                os.rmdir(tmp.parent)  # the peer
            tmp.write_text("body")

        assert store.commit(final, write) == final
        assert final.read_text() == "body" and len(attempts) == 2
        assert [p.name for p in final.parent.iterdir()] == [final.name]

    def test_a_failed_write_leaves_no_tmp_and_no_file(self, tmp_path):
        store = FileStore(tmp_path)
        final = store.path("ab12", "c")

        def write(tmp):
            tmp.write_text("half")
            raise RuntimeError("builder died")

        with pytest.raises(RuntimeError, match="builder died"):
            store.commit(final, write)
        assert not final.exists()
        assert list(tmp_path.rglob("*")) == []  # the emptied shard went too

    def test_a_shard_that_stays_gone_is_an_error(self, tmp_path):
        store = FileStore(tmp_path)

        def write(tmp):
            os.rmdir(tmp.parent)
            tmp.write_text("body")

        with pytest.raises(FileNotFoundError):
            store.commit(store.path("ab12", "c"), write)


class TestScan:
    def test_skips_tmp_quarantine_foreign_files_and_directories(
        self, tmp_path
    ):
        store = DiskStore(tmp_path)
        live = store.put("ab" + "0" * 62, CacheEntry(meta={}, arrays={}))
        (live.parent / ".tmp-deadbeef").write_text("a writer's tmp")
        (live.parent / "notes.txt").write_text("foreign")
        (live.parent / "nested.npz").mkdir()
        ArtifactStore(tmp_path).put_text("cd34", "c", "x")
        store.quarantine_dir.mkdir()
        (store.quarantine_dir / "ee55.npz").write_text("corrupt")
        (store.quarantine_dir / "ee55.reason.txt").write_text("why")

        assert [p for p, _ in store.scan()] == [live]
        assert store.keys() == [live.stem]
        assert store.total_bytes() == live.stat().st_size
        assert store.quarantined() == ["ee55"]
        # clear() takes the live file and nothing else.
        assert store.clear() == 1
        assert (live.parent / ".tmp-deadbeef").exists()
        assert (store.quarantine_dir / "ee55.npz").exists()
        assert ArtifactStore(tmp_path).keys() == ["cd34"]

    def test_a_missing_root_is_an_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.keys() == [] and store.total_bytes() == 0
        assert store.clear() == 0
        assert store.health()["artifacts"] == 0

    def test_files_vanishing_mid_scan_are_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        paths = [store.put_text(f"aa{i:02d}", "c", "x" * 10) for i in range(4)]
        seen = []
        for path, stat in store.scan():
            seen.append(path)
            remove(p for p in paths if p not in seen)  # the peer's clear()
        assert len(seen) == 1


class TestEvict:
    @staticmethod
    def _groups(store, count=4, size=100):
        for i in range(count):
            path = store.put_text(f"{i:02d}aa", "c", "x" * size)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return list(store.file_groups().values())

    def test_never_touches_the_kept_path(self, tmp_path):
        store = ArtifactStore(tmp_path)
        groups = self._groups(store)
        oldest = store.path("00aa", "c")
        assert evict(groups, 100, keep=oldest) == 3
        assert store.keys() == ["00aa"]

    def test_a_failed_unlink_is_a_peers_win(self, tmp_path):
        store = ArtifactStore(tmp_path)
        groups = self._groups(store)
        os.unlink(store.path("00aa", "c"))  # the peer evicted it first
        assert evict(groups, 200) == 1  # 00aa (not ours) and 01aa (ours)
        assert [g["removed"] for g in groups if "removed" in g] == [0, 1]
        assert store.keys() == ["02aa", "03aa"]

    def test_negative_budget_is_typed(self, tmp_path):
        with pytest.raises(CacheError, match="budget"):
            DiskStore(tmp_path).gc(-1)


def test_a_directory_in_the_frozen_layout_is_served(tmp_path, monkeypatch):
    """Paths and formats are a contract with every cache directory
    already on disk: files laid out by hand the way every earlier
    version wrote them — ``<dir>/<k2>/<key>.npz``,
    ``<dir>/artifacts/<k2>/<key>.<suffix>`` — are a plan hit, an artifact
    hit and a proof hit."""
    from repro.lowering.executor import clear_executor_memo, compile_executor
    from repro.plancache.fingerprint import bind_fingerprint
    from repro.runtime.planspec import plan_from_spec
    from tests.plancache.conftest import tiny_data

    plan = plan_from_spec({"kernel": "moldyn", "steps": [{"type": "cpack"}]})
    data = tiny_data()
    written = tmp_path / "written"
    cold = plan.bind(data, cache=PlanCache(directory=written))
    assert cold.report.cache == "stored"
    clear_executor_memo()
    built = compile_executor(
        "moldyn", backend="numpy", tiled=True, cache_dir=written
    )
    assert not built.from_cache and not built.proof_from_cache

    plan_key = bind_fingerprint(plan, data)
    py_key = Path(built.artifact_path).name.split(".")[0]
    proof_key = Path(built.proof_path).name.split(".")[0]
    layout = {
        Path(plan_key[:2], f"{plan_key}.npz"),
        Path("artifacts", py_key[:2], f"{py_key}.py"),
        Path("artifacts", proof_key[:2], f"{proof_key}.proof"),
    }
    files = {p.relative_to(written) for p in written.rglob("*") if p.is_file()}
    assert files == layout
    with np.load(written / plan_key[:2] / f"{plan_key}.npz") as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
    assert meta["format"] == 1 and meta["key"] == plan_key

    served = tmp_path / "served"
    for relative in layout:  # by hand: no store code lays this directory out
        (served / relative).parent.mkdir(parents=True, exist_ok=True)
        (served / relative).write_bytes((written / relative).read_bytes())
    warm = plan.bind(data, cache=PlanCache(directory=served))
    assert warm.report.cache == "hit"
    clear_executor_memo()
    rebuilt = compile_executor(
        "moldyn", backend="numpy", tiled=True, cache_dir=served
    )
    clear_executor_memo()
    assert rebuilt.from_cache and rebuilt.proof_from_cache
    assert rebuilt.artifact_path == str(
        served / "artifacts" / py_key[:2] / f"{py_key}.py"
    )


def test_cache_stats_opens_each_plan_once(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    store = DiskStore(tmp_path)
    for i in range(5):
        entry = CacheEntry(meta={}, arrays={"a": np.arange(4)})
        store.put(f"{i:02d}" + "f" * 62, entry)
    opened = []
    real_load = np.load

    def counting_load(path, *args, **kwargs):
        opened.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting_load)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert sorted(opened) == [f"{key}.npz" for key in store.keys()]
    assert "entries: 5" in capsys.readouterr().out
    opened.clear()
    health = store.health()
    assert len(opened) == 5 and health["entries"] == 5
    assert health["total_bytes"] == store.total_bytes()
