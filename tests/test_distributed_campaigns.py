"""Tests for the lease protocol and the work-stealing campaign executor.

The protocol pieces (claim/renew/steal/release) are unit-tested with an
injected clock so expiry is deterministic; the executor is integration-
tested with real thread fleets over a shared in-memory backend and with
worker processes on a filesystem store, including the crash paths:
expired-lease stealing, lost publish races, a worker killed at the
atomic-write boundary and a task whose compute or publish raises.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignTask,
    diff_stores,
    gc_store,
    run_campaign,
    run_worker,
)
from repro.campaigns.backends import MemoryBackend
from repro.campaigns.distributed import (
    LeaseHeartbeat,
    decode_lease,
    default_worker_id,
    encode_lease,
    lease_key_for,
    release_lease,
    renew_lease,
    try_claim,
)
from repro.campaigns.store import LEASE_PREFIX
from repro.cli import main
from repro.exceptions import InvalidParameterError, ReproError

TINY_E1 = {"epsilons": (0.5,), "workloads": ("poisson-pareto",)}


def _tiny_task(seed=7, variant="tiny"):
    return CampaignTask.create("E1", variant=variant, seed=seed, overrides=TINY_E1)


def _memory_store() -> ArtifactStore:
    return ArtifactStore(backend=MemoryBackend())


KEY = "ab12cd34ab12cd34"


class TestLeaseProtocol:
    def test_fresh_claim_then_rival_blocked_until_expiry(self):
        store = _memory_store()
        token = try_claim(store, KEY, "w1", ttl=30, clock=lambda: 1000.0)
        assert decode_lease(token) == {"worker": "w1", "expires_at": 1030.0, "seq": 0}
        assert try_claim(store, KEY, "w2", ttl=30, clock=lambda: 1000.0) is None
        stolen = try_claim(store, KEY, "w2", ttl=30, clock=lambda: 1031.0)
        assert decode_lease(stolen)["worker"] == "w2"
        assert decode_lease(stolen)["seq"] == 1  # steals are counted

    def test_only_one_concurrent_stealer_wins(self):
        store = _memory_store()
        store.backend.put(lease_key_for(KEY), encode_lease("dead", 0.0, 0))
        barrier = threading.Barrier(4)
        winners = []

        def stealer(i):
            barrier.wait()
            token = try_claim(store, KEY, f"w{i}", ttl=30, clock=lambda: 100.0)
            if token is not None:
                winners.append(i)

        threads = [threading.Thread(target=stealer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1

    def test_corrupt_lease_blob_is_stealable(self):
        store = _memory_store()
        store.backend.put(lease_key_for(KEY), b"\xffnot json")
        assert decode_lease(b"\xffnot json") is None
        token = try_claim(store, KEY, "w1", ttl=30, clock=lambda: 1000.0)
        assert decode_lease(token)["worker"] == "w1"

    def test_renew_extends_only_with_the_live_token(self):
        store = _memory_store()
        token = try_claim(store, KEY, "w1", ttl=30, clock=lambda: 1000.0)
        renewed = renew_lease(store, KEY, token, "w1", ttl=30, clock=lambda: 1010.0)
        assert decode_lease(renewed)["expires_at"] == 1040.0
        # The superseded token is dead: renewing with it must fail (this is
        # exactly how an owner discovers its lease was stolen).
        assert renew_lease(store, KEY, token, "w1", ttl=30, clock=lambda: 1011.0) is None

    def test_release_only_removes_own_lease(self):
        store = _memory_store()
        token = try_claim(store, KEY, "w1", ttl=30, clock=lambda: 1000.0)
        release_lease(store, KEY, b"someone elses token")
        assert store.backend.exists(lease_key_for(KEY))
        release_lease(store, KEY, token)
        assert not store.backend.exists(lease_key_for(KEY))

    def test_heartbeat_keeps_slow_task_leased(self):
        store = _memory_store()
        token = try_claim(store, KEY, "w1", ttl=0.2, clock=time.time)
        heartbeat = LeaseHeartbeat(store, KEY, token, "w1", ttl=0.2)
        heartbeat.start()
        try:
            time.sleep(0.5)  # well past the original expiry
            assert try_claim(store, KEY, "w2", ttl=0.2) is None
            assert not heartbeat.lost
        finally:
            heartbeat.stop()

    def test_heartbeat_flags_stolen_lease(self):
        store = _memory_store()
        token = try_claim(store, KEY, "w1", ttl=0.2, clock=time.time)
        heartbeat = LeaseHeartbeat(store, KEY, token, "w1", ttl=0.2)
        store.backend.put(lease_key_for(KEY), encode_lease("thief", 9e12, 1))
        heartbeat.start()
        time.sleep(0.2)
        heartbeat.stop()
        assert heartbeat.lost

    def test_default_worker_id_carries_host_and_pid(self):
        assert len(default_worker_id().rsplit("-", 1)) == 2


class TestRunWorker:
    def test_thread_fleet_computes_each_task_exactly_once(self):
        store = _memory_store()
        tasks = [_tiny_task(seed=s) for s in range(6)]
        summaries = [None] * 3

        def worker(i):
            summaries[i] = run_worker(
                store, tasks, worker_id=f"w{i}", lease_ttl=5, poll_interval=0.01
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(s.computed for s in summaries) == len(tasks)
        # Every worker accounts for the full grid (computed + cached), and
        # nothing but artifacts survives: all leases were released.
        assert all(s.total == len(tasks) for s in summaries)
        assert len(store) == len(tasks)
        assert store.backend.list_keys(LEASE_PREFIX) == []

    def test_expired_lease_from_crashed_worker_is_stolen(self):
        store = _memory_store()
        task = _tiny_task()
        # A "crashed" rival: claimed long ago, never heartbeat, never freed.
        store.backend.put(
            lease_key_for(task.key()), encode_lease("crashed-worker", 1.0, 0)
        )
        summary = run_worker(store, [task], worker_id="survivor", lease_ttl=5)
        assert summary.computed == 1
        assert store.has(task.key())
        assert store.backend.list_keys(LEASE_PREFIX) == []

    def test_worker_clears_moot_lease_of_finished_task(self):
        store = _memory_store()
        task = _tiny_task()
        run_campaign([task], store)
        store.backend.put(lease_key_for(task.key()), encode_lease("dead", 9e12, 0))
        summary = run_worker(store, [task], worker_id="w1")
        assert summary.cached == 1 and summary.computed == 0
        assert store.backend.list_keys(LEASE_PREFIX) == []

    def test_lost_publish_race_counts_as_cached(self):
        store = _memory_store()
        task = _tiny_task()
        real_runner = __import__(
            "repro.campaigns.tasks", fromlist=["run_task"]
        ).run_task

        def racing_runner(t):
            payload = real_runner(t)
            # A rival stole the lease and published while we computed.
            store.save_if_absent(t.key(), payload)
            return payload

        lines = []
        summary = run_worker(
            store, [task], worker_id="loser", task_runner=racing_runner,
            progress=lines.append,
        )
        assert summary.computed == 0 and summary.cached == 1
        assert any("lost publish race" in line for line in lines)
        assert store.has(task.key())

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    @pytest.mark.parametrize("stage", ["compute", "publish"])
    def test_failed_task_releases_its_lease(self, stage, error, monkeypatch):
        # An interrupted or crashed worker must not leave its lease for the
        # next run to wait out (one TTL): the release happens before the
        # exception leaves run_worker.
        store = _memory_store()
        task = _tiny_task()

        def fail(*_args):
            raise error("stop")

        if stage == "publish":
            monkeypatch.setattr(store, "save_if_absent", fail)
        with pytest.raises(error):
            run_worker(
                store, [task], worker_id="w1",
                task_runner=fail if stage == "compute" else (lambda t: {"x": 1}),
            )
        assert store.backend.list_keys(LEASE_PREFIX) == []
        assert not store.has(task.key())

    def test_duplicate_tasks_deduped_like_pool_runner(self):
        store = _memory_store()
        task = _tiny_task()
        summary = run_worker(store, [task, task], worker_id="w1")
        assert summary.total == 2 and summary.computed == 1 and summary.cached == 1

    def test_invalid_lease_ttl_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            run_worker(_memory_store(), [_tiny_task()], lease_ttl=0)
        # Refused before any worker process starts, not by each of them.
        with pytest.raises(InvalidParameterError, match="lease_ttl"):
            run_campaign([_tiny_task()], ArtifactStore(tmp_path), workers=2, lease_ttl=0)

    def test_killed_mid_publish_leaves_no_torn_artifact(self, tmp_path, monkeypatch):
        # Kill-point: die exactly at the publish rename.  The store must not
        # contain a half-written artifact, and a clean rerun must produce a
        # store byte-identical to one that never crashed.
        store = ArtifactStore(tmp_path / "crashed")
        task = _tiny_task()

        def exploding_link(src, dst):
            raise KeyboardInterrupt("kill -9 at the worst byte offset")

        # run_worker publishes with save_if_absent -> os.link (atomic create).
        monkeypatch.setattr("repro.campaigns.backends.os.link", exploding_link)
        with pytest.raises(KeyboardInterrupt):
            run_worker(store, [task], worker_id="victim", lease_ttl=5)
        monkeypatch.undo()
        assert list(store.keys()) == []
        gc_store(store)
        summary = run_worker(store, [task], worker_id="recovery", lease_ttl=5)
        assert summary.computed == 1
        pristine = ArtifactStore(tmp_path / "pristine")
        run_worker(pristine, [task], worker_id="ref")
        assert diff_stores(store, pristine) == []


class TestGcStore:
    def test_collects_moot_expired_and_corrupt_leases_only(self):
        store = _memory_store()
        done = _tiny_task(seed=1)
        run_campaign([done], store)
        store.backend.put(lease_key_for(done.key()), encode_lease("w", 9e12, 0))
        store.backend.put(lease_key_for("aa" * 8), encode_lease("w", 50.0, 0))
        store.backend.put(lease_key_for("bb" * 8), b"corrupt")
        store.backend.put(lease_key_for("cc" * 8), encode_lease("live", 9e12, 0))
        removed = gc_store(store, clock=lambda: 100.0)
        assert removed == {"leases": 3, "transients": 0}
        assert store.backend.list_keys(LEASE_PREFIX) == [lease_key_for("cc" * 8)]

    def test_sweeps_filesystem_transients(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save("ab12cd34", {"x": 1})
        (tmp_path / "store" / "ab" / "orphan.tmp").write_bytes(b"torn")
        removed = gc_store(store)
        assert removed["transients"] == 1
        assert list(store.keys()) == ["ab12cd34"]


class TestRunCampaign:
    def test_worker_processes_report_outcomes_in_grid_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tasks = [_tiny_task(seed=s) for s in (3, 1, 2)] + [_tiny_task(seed=1)]
        lines = []
        summary = run_campaign(
            tasks, store, workers=2, worker_id="pw", progress=lines.append
        )
        assert [outcome.task for outcome in summary.outcomes] == tasks
        assert [outcome.cached for outcome in summary.outcomes] == [False] * 3 + [True]
        assert summary.workers == 2 and summary.computed == 3
        # Both processes report every task they saw, under suffixed ids.
        assert {line.split("]")[0] for line in lines} == {"[pw-0", "[pw-1"}
        assert store.backend.list_keys(LEASE_PREFIX) == []

    def test_memory_store_refuses_worker_processes(self):
        with pytest.raises(InvalidParameterError, match="memory:"):
            run_campaign([_tiny_task()], _memory_store(), workers=2)

    def test_failed_worker_process_is_reported(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        broken = CampaignTask.create("E1", overrides={"not_a_field": 1})
        with pytest.raises(ReproError, match=r"campaign worker w-\d exited with code 1"):
            run_campaign([broken], store, workers=2, worker_id="w")
        assert store.backend.list_keys(LEASE_PREFIX) == []
        assert len(store) == 0


class TestCampaignCliDistributed:
    def test_worker_flag_runs_fleet_of_one(self, tmp_path, capsys):
        code = main(["campaign", "run", "--grid", "smoke",
                     "--worker-id", "cli-w1", "--store", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 computed, 0 cached" in out
        assert "[cli-w1]" in out

    def test_sqlite_backend_flag_equivalent_to_scheme(self, tmp_path, capsys):
        args = ["campaign", "run", "--grid", "smoke", "--quiet",
                "--store", f"sqlite:{tmp_path / 'kv.db'}"]
        assert main(args) == 0
        assert main(args) == 0
        assert "100% cache hits" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--worker"], ["--backend", "sqlite"]], ids=["--worker", "--backend"]
    )
    def test_removed_flags_are_refused(self, flag, tmp_path):
        # Every run is a lease worker, and the store spec's scheme picks
        # the backend: argparse refuses both retired flags.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--grid", "smoke", "--store", str(store), *flag])
        assert exc.value.code == 2
        assert not store.exists()

    def test_worker_processes_relay_progress_under_suffixed_ids(self, tmp_path, capsys):
        code = main(["campaign", "run", "--grid", "smoke", "--workers", "2",
                     "--worker-id", "cli", "--lease-ttl", "5",
                     "--store", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 computed, 0 cached" in out and "with 2 worker(s)" in out
        assert "[cli-0]" in out and "[cli-1]" in out

    def test_diff_identical_and_differing_stores(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["campaign", "run", "--grid", "smoke", "--quiet",
                         "--store", str(tmp_path / name)]) == 0
        assert main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "stores identical" in capsys.readouterr().out
        ArtifactStore(tmp_path / "b").save("ab12cd34", {"extra": True})
        assert main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "stores differ" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["", "file:", "sqlite:"])
    def test_diff_refuses_missing_stores(self, scheme, tmp_path, capsys):
        # A mistyped spec in a CI gate must fail, not diff two new empty stores.
        empty = tmp_path / "empty"
        empty.mkdir()
        typo = f"{scheme}{tmp_path / 'typo'}"
        for specs in ((typo, f"{typo}-b"), (str(empty), typo)):
            assert main(["campaign", "diff", *specs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: store {typo!r} does not exist" in captured.err
            assert list(tmp_path.iterdir()) == [empty]
        # An existing empty directory is still a valid store.
        assert main(["campaign", "diff", str(empty), str(empty)]) == 0
        assert "stores identical: 0 artifact(s)" in capsys.readouterr().out

    def test_gc_reports_removals(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        store.backend.put(lease_key_for("ab" * 8), b"corrupt")
        code = main(["campaign", "gc", "--store", str(tmp_path / "store")])
        assert code == 0
        assert "removed 1 lease(s)" in capsys.readouterr().out
