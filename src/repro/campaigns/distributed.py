"""Campaign execution: lease workers cooperating over a shared store.

Every campaign run is one or more lease workers.  Any number of independent
worker processes (or hosts) pointed at one store backend cooperatively
execute one campaign grid — no coordinator, no assignment step, per-task
resume.  The whole protocol is built from the backend's three atomic
primitives and one reserved key prefix:

* **claim** — a worker claims a task by atomically creating the lease
  marker ``leases/<task key>`` (``put_if_absent``).  The lease carries the
  worker id, an absolute expiry (wall clock + TTL) and a steal counter.
* **heartbeat** — while computing, a background thread renews the lease by
  compare-and-set every ``ttl / 4``, so live workers keep long tasks.
* **steal** — a worker finding an *expired* lease CASes its own lease over
  the old blob; exactly one concurrent stealer wins.  This is the whole
  crash story: a worker killed mid-task simply stops heartbeating, and its
  task is re-executed elsewhere after at most one TTL.
* **publish** — results are published with ``save_if_absent`` (first
  writer wins).  Duplicated work — an owner that lost its lease but
  finished anyway — is harmless: artifacts are canonical JSON keyed by
  content hash, so every writer holds identical bytes.
* **release** — the lease is deleted once the task is published *or* its
  compute or publish raised (``KeyboardInterrupt`` included), so an
  interrupted run leaves no lease for the next run to wait out; once the
  artifact exists, any worker that sees a leftover lease clears it.  A
  finished store therefore contains artifacts only, byte-identical to a
  one-worker run on any backend.

Workers exit when every task's artifact exists, so ``run_worker`` doubles
as a barrier: whichever process returns last observed the completed grid.
:func:`run_campaign` is the entry point: one worker in this process, or N
worker processes whose summaries it merges.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.campaigns.backends import MemoryBackend
from repro.campaigns.store import LEASE_PREFIX, ArtifactStore
from repro.campaigns.tasks import CampaignTask, run_task
from repro.exceptions import InvalidParameterError, ReproError
from repro.utils.serialization import canonical_json

#: Default lease time-to-live.  Generous relative to heartbeat cadence
#: (ttl/4) so GC pauses don't cause spurious steals, small enough that a
#: crashed worker's task is rerun quickly.
DEFAULT_LEASE_TTL = 30.0


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task during a campaign run."""

    task: CampaignTask
    key: str
    cached: bool
    duration_s: float | None = None


@dataclass
class CampaignRunSummary:
    """Bookkeeping for one campaign run: one outcome per task, in grid order."""

    outcomes: list[TaskOutcome] = field(default_factory=list)
    workers: int = 1
    wall_time_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def computed(self) -> int:
        return self.total - self.cached

    @property
    def cache_hit_fraction(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def describe(self) -> str:
        """One-line human summary, e.g. ``9 tasks: 0 computed, 9 cached (100% cache hits)``."""
        return (
            f"{self.total} tasks: {self.computed} computed, {self.cached} cached "
            f"({100 * self.cache_hit_fraction:.0f}% cache hits) "
            f"in {self.wall_time_s:.2f}s with {self.workers} worker(s)"
        )


def default_worker_id() -> str:
    """A worker id unique per (host, process): ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def lease_key_for(key: str) -> str:
    """Backend key of the lease marker guarding artifact ``key``."""
    return f"{LEASE_PREFIX}{key}"


def encode_lease(worker: str, expires_at: float, seq: int) -> bytes:
    """Canonical lease blob; CAS tokens compare these bytes exactly."""
    return canonical_json(
        {"worker": worker, "expires_at": expires_at, "seq": seq}
    ).encode("utf-8")


def decode_lease(blob: bytes) -> "dict | None":
    """Parse a lease blob; ``None`` for corrupt blobs (treated as expired)."""
    try:
        lease = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(lease, dict) or "expires_at" not in lease:
        return None
    return lease


def try_claim(
    store: ArtifactStore,
    key: str,
    worker: str,
    ttl: float,
    clock: Callable[[], float] = time.time,
) -> "bytes | None":
    """Attempt to claim (or steal) the lease for ``key``.

    Returns the lease blob now held — the CAS token for renewal/release —
    or ``None`` if another worker holds an unexpired lease.
    """
    backend = store.backend
    lkey = lease_key_for(key)
    now = clock()
    fresh = encode_lease(worker, now + ttl, 0)
    if backend.put_if_absent(lkey, fresh):
        return fresh
    current = backend.get(lkey)
    if current is None:
        # Released between our put_if_absent and get: retry the create once;
        # losing again means a rival claimed it first.
        return fresh if backend.put_if_absent(lkey, fresh) else None
    lease = decode_lease(current)
    if lease is not None and lease.get("worker") != worker and lease["expires_at"] > now:
        return None
    seq = (lease or {}).get("seq", 0)
    stolen = encode_lease(worker, now + ttl, int(seq) + 1)
    return stolen if backend.compare_and_put(lkey, stolen, expected=current) else None


def renew_lease(
    store: ArtifactStore,
    key: str,
    token: bytes,
    worker: str,
    ttl: float,
    clock: Callable[[], float] = time.time,
) -> "bytes | None":
    """Extend a held lease; returns the new token, or ``None`` if lost."""
    lease = decode_lease(token) or {"seq": 0}
    renewed = encode_lease(worker, clock() + ttl, int(lease.get("seq", 0)))
    if store.backend.compare_and_put(lease_key_for(key), renewed, expected=token):
        return renewed
    return None


def release_lease(store: ArtifactStore, key: str, token: bytes) -> None:
    """Drop a held lease (best effort — a stolen lease is left alone)."""
    lkey = lease_key_for(key)
    if store.backend.get(lkey) == token:
        store.backend.delete(lkey)


class LeaseHeartbeat(threading.Thread):
    """Renews one lease every ``ttl / 4`` until stopped or lost."""

    def __init__(
        self,
        store: ArtifactStore,
        key: str,
        token: bytes,
        worker: str,
        ttl: float,
        clock: Callable[[], float] = time.time,
    ):
        super().__init__(daemon=True, name=f"lease-heartbeat-{key[:8]}")
        self._store = store
        self._key = key
        self.token = token
        self._worker = worker
        self._ttl = ttl
        self._clock = clock
        self._stopped = threading.Event()
        #: Set when a renewal CAS fails — the lease was stolen (or cleared);
        #: the owner may still finish and publish, that's safe by design.
        self.lost = False

    def run(self) -> None:
        interval = max(self._ttl / 4.0, 0.01)
        while not self._stopped.wait(interval):
            renewed = renew_lease(
                self._store, self._key, self.token, self._worker, self._ttl,
                clock=self._clock,
            )
            if renewed is None:
                self.lost = True
                return
            self.token = renewed

    def stop(self) -> None:
        """Stop renewing; safe on a thread interrupted while starting."""
        self._stopped.set()
        if self.is_alive():
            self.join()


def run_worker(
    store: ArtifactStore,
    tasks: Sequence[CampaignTask],
    *,
    worker_id: "str | None" = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: "float | None" = None,
    task_runner: Callable[[CampaignTask], dict] = run_task,
    progress=None,
    clock: Callable[[], float] = time.time,
) -> CampaignRunSummary:
    """Run one cooperative worker until every task's artifact exists.

    Computes in-process, one task at a time: parallelism comes from running
    several ``run_worker`` processes (or threads, in tests) against the
    same store.  The returned summary is this worker's view — tasks it
    computed count as computed, everything satisfied from the store
    (pre-existing artifacts *and* rivals' results) counts as cached — so
    summing ``computed`` across a fleet equals the number of distinct tasks.
    A config repeated inside the grid is computed once and counts as cached
    at its later positions.
    """
    if lease_ttl <= 0:
        raise InvalidParameterError(f"lease_ttl must be > 0, got {lease_ttl}")
    worker = worker_id or default_worker_id()
    wait = poll_interval if poll_interval is not None else min(0.2, lease_ttl / 10.0)
    start = time.perf_counter()
    keyed = [(task, task.key()) for task in tasks]
    remaining: dict[str, CampaignTask] = {}
    for task, key in keyed:
        remaining.setdefault(key, task)
    computed: dict[str, TaskOutcome] = {}

    def note(line: str) -> None:
        if progress is not None:
            progress(f"[{worker}] {line}")

    while remaining:
        progressed = False
        for key in list(remaining):
            task = remaining[key]
            if store.has(key):
                # Computed before this run or by a rival worker just now;
                # either way the lease (if any survives) is moot.
                store.backend.delete(lease_key_for(key))
                note(f"cached   {task.label} [{key}]")
                del remaining[key]
                progressed = True
                continue
            token = try_claim(store, key, worker, lease_ttl, clock=clock)
            if token is None:
                continue
            heartbeat = LeaseHeartbeat(store, key, token, worker, lease_ttl, clock=clock)
            try:
                heartbeat.start()
                started = time.perf_counter()
                payload = task_runner(task)
                duration = time.perf_counter() - started
                published = store.save_if_absent(key, payload)
            finally:
                heartbeat.stop()
                release_lease(store, key, heartbeat.token)
            if published:
                computed[key] = TaskOutcome(task=task, key=key, cached=False, duration_s=duration)
                note(f"computed {task.label} [{key}] ({duration:.2f}s)")
            else:
                # A stealer published first; identical bytes, count as cached.
                note(f"duplicate {task.label} [{key}] (lost publish race)")
            del remaining[key]
            progressed = True
        if remaining and not progressed:
            time.sleep(wait)

    outcomes = [
        computed.pop(key, None) or TaskOutcome(task=task, key=key, cached=True)
        for task, key in keyed
    ]
    return CampaignRunSummary(
        outcomes=outcomes, workers=1, wall_time_s=time.perf_counter() - start
    )


def gc_store(
    store: ArtifactStore,
    *,
    clock: Callable[[], float] = time.time,
) -> dict:
    """Collect protocol residue a crashed worker can leave behind.

    Removes lease markers that are moot (their artifact exists), expired or
    corrupt, plus the filesystem backend's orphaned temp/lock files.  Safe
    to run any time; only leases of *live* in-flight tasks survive.  After
    a campaign finishes this restores the store to artifacts-only, so
    cross-store comparisons (``diff -r``, ``repro campaign diff``) see
    exactly the sequential store's contents.
    """
    now = clock()
    removed_leases = 0
    for lkey in store.backend.list_keys(LEASE_PREFIX):
        key = lkey[len(LEASE_PREFIX):]
        blob = store.backend.get(lkey)
        if blob is None:
            continue
        lease = decode_lease(blob)
        if store.has(key) or lease is None or lease["expires_at"] <= now:
            if store.backend.delete(lkey):
                removed_leases += 1
    removed_transients = store.backend.sweep_transients()
    return {"leases": removed_leases, "transients": removed_transients}


def _worker_process(store, tasks, worker_id, lease_ttl, conn) -> None:
    """Body of one worker process: progress lines, then the summary, on ``conn``."""
    try:
        conn.send(
            run_worker(
                store, tasks, worker_id=worker_id, lease_ttl=lease_ttl, progress=conn.send
            )
        )
    finally:
        conn.close()


def run_campaign(
    tasks: Sequence[CampaignTask],
    store: ArtifactStore,
    *,
    workers: int = 1,
    worker_id: "str | None" = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    progress=None,
) -> CampaignRunSummary:
    """Execute a campaign grid with ``workers`` lease workers on ``store``.

    With ``workers == 1`` :func:`run_worker` runs in this process.  Otherwise
    ``workers`` processes named ``<worker_id>-0`` … ``<worker_id>-<N-1>``
    each run one on the same store, while this process computes nothing: it
    relays their progress lines, waits for them and merges their summaries
    (``workers == N``, outcomes in grid order).  Every run is a lease
    worker, so separate ``run_campaign`` processes on one store cooperate
    as one wider fleet.  An interrupt (Ctrl-C, ``timeout -s INT``) reaches
    the whole process group; each worker releases its lease and exits.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if lease_ttl <= 0:
        raise InvalidParameterError(f"lease_ttl must be > 0, got {lease_ttl}")
    if workers == 1:
        return run_worker(
            store, tasks, worker_id=worker_id, lease_ttl=lease_ttl, progress=progress
        )
    if isinstance(store.backend, MemoryBackend):
        raise InvalidParameterError(
            f"store {store.describe()!r} lives in this process's memory, which "
            f"worker processes cannot see; run it with workers=1"
        )
    base = worker_id or default_worker_id()
    start = time.perf_counter()
    # The default start method (fork on Linux) is safe here: this process
    # has started no lease or heartbeat thread of its own.
    members = []
    for k in range(workers):
        receiver, sender = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_worker_process,
            args=(store, tasks, f"{base}-{k}", lease_ttl, sender),
            name=f"{base}-{k}",
        )
        process.start()
        sender.close()
        members.append((process, receiver))
    summaries: list[CampaignRunSummary] = []
    listening = [receiver for _, receiver in members]
    try:
        while listening:
            for receiver in multiprocessing.connection.wait(listening):
                try:
                    message = receiver.recv()
                except EOFError:
                    listening.remove(receiver)
                    continue
                if isinstance(message, CampaignRunSummary):
                    summaries.append(message)
                elif progress is not None:
                    progress(message)
    finally:
        for process, receiver in members:
            process.join()
            receiver.close()
    failed = [process for process, _ in members if process.exitcode != 0]
    if failed:
        raise ReproError(
            "; ".join(f"campaign worker {p.name} exited with code {p.exitcode}" for p in failed)
        )
    # Each key is published by exactly one worker: the merged outcome at a
    # grid position is the worker's that computed it, if any did.
    outcomes = [
        next((outcome for outcome in column if not outcome.cached), column[0])
        for column in zip(*(summary.outcomes for summary in summaries))
    ]
    return CampaignRunSummary(
        outcomes=outcomes, workers=workers, wall_time_s=time.perf_counter() - start
    )
