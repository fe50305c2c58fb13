"""Contract tests for the pluggable store backends.

One suite, parameterized over every :class:`StoreBackend` implementation:
whatever holds for the filesystem backend must hold for sqlite and memory
too — especially the three atomic primitives the distributed dispatcher's
lease protocol is built on (`put`, `put_if_absent`, `compare_and_put`),
which are exercised under real thread races here, not just sequentially.
"""

from __future__ import annotations

import threading

import pytest

from repro.campaigns import ArtifactStore, diff_stores, get_grid, run_campaign
from repro.campaigns.backends import (
    FilesystemBackend,
    MemoryBackend,
    SQLiteBackend,
    open_backend,
    validate_backend_key,
)
from repro.campaigns.store import blob_key_for
from repro.exceptions import InvalidParameterError

BACKEND_KINDS = ("file", "sqlite", "memory")


def make_backend(kind: str, tmp_path):
    if kind == "file":
        return FilesystemBackend(tmp_path / "store")
    if kind == "sqlite":
        return SQLiteBackend(tmp_path / "store.db")
    return MemoryBackend()


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    return make_backend(request.param, tmp_path)


class TestBackendContract:
    def test_get_put_exists_delete_round_trip(self, backend):
        assert backend.get("a/b") is None
        assert not backend.exists("a/b")
        backend.put("a/b", b"one")
        assert backend.get("a/b") == b"one"
        assert backend.exists("a/b")
        backend.put("a/b", b"two")  # last writer wins
        assert backend.get("a/b") == b"two"
        assert backend.delete("a/b")
        assert not backend.delete("a/b")
        assert backend.get("a/b") is None

    def test_put_if_absent_single_winner(self, backend):
        assert backend.put_if_absent("k", b"first")
        assert not backend.put_if_absent("k", b"second")
        assert backend.get("k") == b"first"

    def test_compare_and_put_exact_semantics(self, backend):
        assert not backend.compare_and_put("k", b"new", expected=b"old")  # missing
        backend.put("k", b"old")
        assert not backend.compare_and_put("k", b"new", expected=b"wrong")
        assert backend.get("k") == b"old"
        assert backend.compare_and_put("k", b"new", expected=b"old")
        assert backend.get("k") == b"new"
        # The CAS token is the *previous* bytes: reusing it must fail.
        assert not backend.compare_and_put("k", b"newer", expected=b"old")

    def test_list_keys_by_prefix_sorted(self, backend):
        for key in ("leases/b", "ab/one.json", "leases/a", "cd/two.json"):
            backend.put(key, b"x")
        assert backend.list_keys() == [
            "ab/one.json", "cd/two.json", "leases/a", "leases/b",
        ]
        assert backend.list_keys("leases/") == ["leases/a", "leases/b"]
        assert backend.list_keys("nope/") == []

    @pytest.mark.parametrize("bad", ["", "/abs", "trail/", "a//b", "../up", "a/./b"])
    def test_malformed_keys_rejected(self, backend, bad):
        with pytest.raises(InvalidParameterError):
            validate_backend_key(bad)
        with pytest.raises(InvalidParameterError):
            backend.put(bad, b"x")

    def test_describe_reopens_same_blobs(self, backend, tmp_path):
        if isinstance(backend, MemoryBackend):
            backend = MemoryBackend("shared-describe")
        backend.put("aa/k.json", b"payload")
        reopened = open_backend(backend.describe())
        assert reopened.get("aa/k.json") == b"payload"

    def test_put_if_absent_race_has_exactly_one_winner(self, backend):
        barrier = threading.Barrier(8)
        wins = []

        def contender(i):
            barrier.wait()
            if backend.put_if_absent("contested", b"worker-%d" % i):
                wins.append(i)

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert backend.get("contested") == b"worker-%d" % wins[0]

    def test_compare_and_put_race_has_exactly_one_winner(self, backend):
        backend.put("contested", b"base")
        barrier = threading.Barrier(8)
        wins = []

        def contender(i):
            barrier.wait()
            if backend.compare_and_put("contested", b"worker-%d" % i, expected=b"base"):
                wins.append(i)

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert backend.get("contested") == b"worker-%d" % wins[0]


class TestFilesystemHygiene:
    def test_delete_prunes_empty_directories(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "store")
        backend.put("ab/cd/deep.json", b"x")
        assert backend.delete("ab/cd/deep.json")
        # A cleanly emptied store leaves no skeleton dirs behind — that's
        # what keeps `diff -r` against a never-written store empty.
        assert not (tmp_path / "store" / "ab").exists()

    def test_transients_hidden_from_listing_and_swept(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "store")
        backend.put("ab/real.json", b"x")
        (tmp_path / "store" / "ab" / "orphan.tmp").write_bytes(b"torn")
        (tmp_path / "store" / "ab" / "real.json.lock").write_bytes(b"")
        assert backend.list_keys() == ["ab/real.json"]
        assert backend.sweep_transients() == 2
        assert backend.list_keys() == ["ab/real.json"]
        assert backend.sweep_transients() == 0

    def test_put_never_leaves_torn_blob_when_killed_mid_write(self, tmp_path, monkeypatch):
        # Kill-point test: crash the writer at the atomic-rename boundary —
        # the worst possible moment — and require the target key to be
        # wholly absent, with only sweepable temp residue on disk.
        backend = FilesystemBackend(tmp_path / "store")

        def exploding_replace(src, dst):
            raise KeyboardInterrupt("killed mid-publish")

        monkeypatch.setattr("repro.campaigns.backends.os.replace", exploding_replace)
        with pytest.raises(KeyboardInterrupt):
            backend.put("ab/victim.json", b"half-written")
        monkeypatch.undo()
        assert backend.get("ab/victim.json") is None
        assert backend.list_keys() == []
        backend.sweep_transients()
        backend.put("ab/victim.json", b"clean")
        assert backend.get("ab/victim.json") == b"clean"


class TestOpenBackend:
    def test_plain_path_and_file_scheme_are_filesystem(self, tmp_path):
        for spec in (tmp_path / "plain", f"file:{tmp_path / 'scheme'}"):
            backend = open_backend(spec)
            assert isinstance(backend, FilesystemBackend)

    def test_sqlite_and_memory_schemes(self, tmp_path):
        assert isinstance(open_backend(f"sqlite:{tmp_path / 'kv.db'}"), SQLiteBackend)
        a, b = open_backend("memory:shared-open"), open_backend("memory:shared-open")
        a.put("k", b"v")
        assert b.get("k") == b"v"  # named memory namespaces are shared

    def test_backend_instances_pass_through(self, tmp_path):
        backend = MemoryBackend()
        assert open_backend(backend) is backend

    def test_empty_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            open_backend("")


class TestArtifactStoreOverBackends:
    @pytest.fixture(params=BACKEND_KINDS)
    def store(self, request, tmp_path):
        return ArtifactStore(backend=make_backend(request.param, tmp_path))

    def test_save_load_keys(self, store):
        store.save("ab12cd34", {"x": 1})
        assert store.has("ab12cd34")
        assert store.load("ab12cd34") == {"x": 1}
        assert list(store.keys()) == ["ab12cd34"]
        assert store.delete("ab12cd34") and not store.has("ab12cd34")

    def test_save_if_absent_first_writer_wins(self, store):
        assert store.save_if_absent("ab12cd34", {"x": 1})
        assert not store.save_if_absent("ab12cd34", {"x": 2})
        assert store.load("ab12cd34") == {"x": 1}

    def test_lease_keys_excluded_from_artifact_keyspace(self, store):
        store.save("ab12cd34", {"x": 1})
        store.backend.put("leases/ab12cd34", b"claim")
        assert list(store.keys()) == ["ab12cd34"]

    def test_path_for_only_on_filesystem(self, store):
        if store.root is not None:
            assert store.path_for("ab12cd34").name == "ab12cd34.json"
        else:
            with pytest.raises(InvalidParameterError):
                store.path_for("ab12cd34")

    def test_bytes_identical_across_backends(self, tmp_path):
        payload = {"z": [1.5, float("inf")], "a": {"nested": (1, 2)}}
        stores = [
            ArtifactStore(backend=make_backend(kind, tmp_path))
            for kind in BACKEND_KINDS
        ]
        blobs = []
        for store in stores:
            store.save("ab12cd34", payload)
            blobs.append(store.backend.get(blob_key_for("ab12cd34")))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_diff_stores_reports_membership_and_byte_differences(self, tmp_path):
        a = ArtifactStore(backend=MemoryBackend())
        b = ArtifactStore(backend=SQLiteBackend(tmp_path / "b.db"))
        a.save("ab12cd34", {"x": 1})
        b.save("ab12cd34", {"x": 1})
        assert diff_stores(a, b) == []
        a.save("ffee0011", {"only": "a"})
        b.backend.put(blob_key_for("ab12cd34"), b'{"x":2}\n')
        lines = diff_stores(a, b)
        assert any("only in memory:" in line and "ffee0011" in line for line in lines)
        assert "artifact bytes differ: ab12cd34" in lines


class TestRunnerOnKeyedBackends:
    def test_campaign_resumes_with_full_cache_hits_on_sqlite(self, tmp_path):
        store = ArtifactStore.open(f"sqlite:{tmp_path / 'grid.db'}")
        tasks = get_grid("smoke").tasks()
        first = run_campaign(tasks, store)
        assert first.computed == len(tasks) and first.cached == 0
        second = run_campaign(tasks, store)
        assert second.computed == 0 and second.cached == len(tasks)

    def test_sqlite_store_matches_filesystem_store(self, tmp_path):
        tasks = get_grid("smoke").tasks()
        fs_store = ArtifactStore(tmp_path / "fs")
        kv_store = ArtifactStore.open(f"sqlite:{tmp_path / 'kv.db'}")
        run_campaign(tasks, fs_store)
        run_campaign(tasks, kv_store)
        assert diff_stores(fs_store, kv_store) == []
