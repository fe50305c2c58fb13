"""Benchmark harness emitting canonical-JSON ``BENCH_<slug>.json``.

This module is ``repro bench``, the in-repo timer for hand runs; paired
``perfbench/`` runs (``python -m benchmarks.pairs``) are what gate time in
CI.  It provides:

* a registry of named benchmark cases covering the hot paths (Theorem 1
  dispatch under smooth and overload traffic, the no-rejection baselines,
  the speed-scaling engine, the chunked 100k-job generators, the solver
  facade and the raw event queue);
* a runner measuring median-of-k wall times and event throughput;
* one canonical-JSON artifact per case with the schema
  ``{bench, n_jobs, median_s, events_per_sec, fingerprint, ...}`` written
  through :mod:`repro.utils.serialization`, so artifacts are byte-stable
  for identical measurements and diffable across commits.

Wall times vary with the host; fingerprints and event counts do not.  The
fingerprint hashes the workload recipe (generator parameters, size,
algorithm), and the event count follows from the schedule, so tier-1 pins
both for every recipe (``tests/test_benchmark_harness.py``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.utils.serialization import canonical_json, stable_hash

#: Artifact filename prefix (``BENCH_<slug>.json``).
ARTIFACT_PREFIX = "BENCH_"

#: Default repeat counts (median-of-k) for quick and full runs.
QUICK_REPEATS = 3
FULL_REPEATS = 5


@dataclass
class BenchCase:
    """One prepared, timeable workload.

    ``run`` executes a single measured iteration and returns the number of
    processed events (simulator events, generated jobs, queue operations —
    whatever the case's throughput is counted in).
    """

    n_jobs: int
    fingerprint: str
    run: Callable[[], int]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    """Registry entry: a named benchmark and how to build it."""

    slug: str
    description: str
    build: Callable[[float], BenchCase]
    #: Included in ``--quick`` (every case but the slow full-only ones).
    quick: bool = True


def _fingerprint(recipe: dict) -> str:
    """Content hash identifying a benchmark's workload recipe."""
    return stable_hash(recipe)


# --------------------------------------------------------------------------------------
# Benchmark cases
# --------------------------------------------------------------------------------------


def _scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def _bench_e1_dispatch(scale: float, dispatch: str | None = None) -> BenchCase:
    """Theorem 1 on E1's overload-burst workload at n=10k.

    The hot path of the reproduction: every arrival evaluates ``lambda_ij``
    against the pending sets and the rejection rules fire constantly.  The
    burst regime is where queues actually build up, i.e. where the indexed
    scheduler state earns its keep.  ``e1_flow_time`` runs the default
    dispatch mode; ``e1_scan`` pins ``dispatch`` and records it in the
    recipe, so a hand run times both modes side by side on one workload
    and each mode keeps its own fingerprint.
    """
    from repro.core.flow_time import RejectionFlowTimeScheduler
    from repro.simulation.engine import FlowTimeEngine
    from repro.workloads.adversarial import overload_burst_instance

    machines = 8
    burst_jobs = _scaled(1225, scale)
    trailing = _scaled(200, scale)
    instance = overload_burst_instance(
        num_machines=machines, burst_jobs=burst_jobs, trailing_shorts=trailing
    )
    engine = FlowTimeEngine(instance, dispatch=dispatch)
    policy = RejectionFlowTimeScheduler(epsilon=0.5)
    recipe = {
        "workload": "overload-burst",
        "machines": machines,
        "burst_jobs": burst_jobs,
        "trailing_shorts": trailing,
        "algorithm": "rejection-flow(eps=0.5)",
    }
    if dispatch is not None:
        # Keyed only when pinned, so the default run keeps its fingerprint.
        recipe["dispatch"] = dispatch
    return BenchCase(
        n_jobs=instance.num_jobs,
        fingerprint=_fingerprint(recipe),
        run=lambda: engine.run(policy).extras["events"],
        meta=recipe,
    )


def _bench_e1_scan(scale: float) -> BenchCase:
    return _bench_e1_dispatch(scale, "scan")


def _bench_e1_poisson(scale: float) -> BenchCase:
    """Theorem 1 on the smooth E1 workload (poisson arrivals, pareto sizes)."""
    from repro.core.flow_time import RejectionFlowTimeScheduler
    from repro.simulation.engine import FlowTimeEngine
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(10_000, scale)
    generator = InstanceGenerator(num_machines=8, seed=1, size_distribution="pareto")
    instance = generator.generate(n)
    engine = FlowTimeEngine(instance)
    policy = RejectionFlowTimeScheduler(epsilon=0.5)
    recipe = {"workload": "poisson-pareto", "machines": 8, "seed": 1, "n": n,
              "algorithm": "rejection-flow(eps=0.5)"}
    return BenchCase(
        n_jobs=n,
        fingerprint=_fingerprint(recipe),
        run=lambda: engine.run(policy).extras["events"],
        meta=recipe,
    )


def _bench_greedy_overload(scale: float) -> BenchCase:
    """Rejection-free greedy under sustained overload (load 1.2).

    Without rejections the queues grow linearly, which made the scan-based
    select-next quadratic; the indexed pending heaps keep it n log n.
    """
    from repro.baselines.greedy import GreedyDispatchScheduler
    from repro.simulation.engine import FlowTimeEngine
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(10_000, scale)
    generator = InstanceGenerator(
        num_machines=8, seed=5, size_distribution="exponential", load=1.2
    )
    instance = generator.generate_large(n)
    engine = FlowTimeEngine(instance)
    policy = GreedyDispatchScheduler("spt")
    recipe = {"workload": "poisson-exponential-overload", "machines": 8, "seed": 5,
              "n": n, "load": 1.2, "algorithm": "greedy-spt"}
    return BenchCase(
        n_jobs=n,
        fingerprint=_fingerprint(recipe),
        run=lambda: engine.run(policy).extras["events"],
        meta=recipe,
    )


def _bench_energy_flow(scale: float) -> BenchCase:
    """Theorem 2 (weighted flow time plus energy) on the speed-scaling engine."""
    from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
    from repro.simulation.speed_engine import SpeedScalingEngine
    from repro.workloads.generators import WeightedInstanceGenerator

    n = _scaled(4_000, scale)
    generator = WeightedInstanceGenerator(num_machines=4, seed=9, alpha=2.5)
    instance = generator.generate_large(n)
    engine = SpeedScalingEngine(instance)
    policy = RejectionEnergyFlowScheduler(epsilon=0.5)
    recipe = {"workload": "weighted-pareto", "machines": 4, "seed": 9, "n": n,
              "alpha": 2.5, "algorithm": "rejection-flow+energy(eps=0.5)"}
    return BenchCase(
        n_jobs=n,
        fingerprint=_fingerprint(recipe),
        run=lambda: engine.run(policy).extras["events"],
        meta=recipe,
    )


def _bench_generator_100k(scale: float) -> BenchCase:
    """Chunked numpy-backed generation of a 100k-job instance."""
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(100_000, scale)
    generator = InstanceGenerator(num_machines=8, seed=2018, size_distribution="pareto")

    def run() -> int:
        instance = generator.generate_large(n)
        return instance.num_jobs

    recipe = {"component": "generate_large", "machines": 8, "seed": 2018, "n": n}
    return BenchCase(n_jobs=n, fingerprint=_fingerprint(recipe), run=run, meta=recipe)


def _bench_event_queue(scale: float) -> BenchCase:
    """Raw event-queue throughput: interleaved pushes and ordered pops."""
    from repro.simulation.events import EventQueue

    n = _scaled(200_000, scale)

    def run() -> int:
        queue = EventQueue()
        for k in range(n):
            queue.push_arrival(float(k % 977), job_id=k)
        count = 0
        while queue:
            queue.pop()
            count += 1
        return 2 * count

    recipe = {"component": "event-queue", "n": n}
    return BenchCase(n_jobs=n, fingerprint=_fingerprint(recipe), run=run, meta=recipe)


def _bench_solver_facade(scale: float) -> BenchCase:
    """``repro.solve()`` end to end (registry dispatch + engine + metrics)."""
    from repro.solvers import solve
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(2_000, scale)
    instance = InstanceGenerator(num_machines=4, seed=11, size_distribution="uniform").generate(n)

    def run() -> int:
        outcome = solve(instance, "rejection-flow", epsilon=0.5)
        return outcome.result.extras["events"]

    recipe = {"component": "solve-facade", "machines": 4, "seed": 11, "n": n,
              "algorithm": "rejection-flow(eps=0.5)"}
    return BenchCase(n_jobs=n, fingerprint=_fingerprint(recipe), run=run, meta=recipe)


def _bench_frontier_100k(scale: float) -> BenchCase:
    """FCFS across a 100k-job instance — the full-scale engine sweep (slow)."""
    from repro.baselines.fcfs import FCFSScheduler
    from repro.simulation.engine import FlowTimeEngine
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(100_000, scale)
    generator = InstanceGenerator(
        num_machines=8, seed=2018, size_distribution="pareto", load=0.9
    )
    instance = generator.generate_large(n)
    engine = FlowTimeEngine(instance)
    policy = FCFSScheduler()
    recipe = {"workload": "poisson-pareto", "machines": 8, "seed": 2018, "n": n,
              "load": 0.9, "algorithm": "fcfs"}
    return BenchCase(
        n_jobs=n,
        fingerprint=_fingerprint(recipe),
        run=lambda: engine.run(policy).extras["events"],
        meta=recipe,
    )


def _bench_session_ingest(scale: float) -> BenchCase:
    """Streaming-session ingestion of a 10k-job workload (Theorem 1).

    The same workload the batch ``solver_facade``/``e1_poisson`` paths run,
    fed job-by-job through ``open_session`` with a poll per submission —
    the `repro serve` hot path.  The target is <10% overhead over batch
    (asserted in ``tests/test_session.py``); this case times the session
    path's own events/s.
    """
    from repro.service import open_session
    from repro.workloads.generators import InstanceGenerator

    n = _scaled(10_000, scale)
    generator = InstanceGenerator(num_machines=8, seed=1, size_distribution="pareto")
    instance = generator.generate(n)

    def run() -> int:
        session = open_session("rejection-flow", instance.machines, epsilon=0.5)
        for job in instance.jobs:
            session.submit(job)
            session.poll()
        outcome = session.finalize()
        return outcome.result.extras["events"]

    # Every session frees handed-out events; the recipe keeps its
    # event-buffer key so its fingerprint stays the one pinned in tier-1.
    recipe = {"workload": "poisson-pareto", "machines": 8, "seed": 1, "n": n,
              "algorithm": "rejection-flow(eps=0.5)", "path": "session-ingest",
              "retain_events": False}
    return BenchCase(
        n_jobs=n,
        fingerprint=_fingerprint(recipe),
        run=run,
        meta=recipe,
    )


def _bench_e14_robustness(scale: float) -> BenchCase:
    """Trace-driven scenario ingestion: a multi-tenant trace through a session.

    The E14 hot path — scenario chunks bulk-submitted to a streaming session
    (``submit_many`` per chunk, finalize once).  Chunk generation happens
    outside the timed run, so the timing covers the ingestion + scheduling
    path the robustness sweep and ``repro serve --trace`` exercise.
    """
    from repro.service import open_session
    from repro.workloads.scenarios import get_scenario

    machines = 8
    n = _scaled(8_000, scale)
    scenario = get_scenario("multi-tenant-mix")
    chunks = list(scenario.job_chunks(n, num_machines=machines, seed=2018))

    def run() -> int:
        session = open_session("rejection-flow", machines, epsilon=0.5)
        for chunk in chunks:
            session.submit_many(chunk)
        outcome = session.finalize()
        return outcome.result.extras["events"]

    recipe = {"workload": "scenario:multi-tenant-mix", "machines": machines,
              "seed": 2018, "n": n, "algorithm": "rejection-flow(eps=0.5)",
              "path": "session-chunk-ingest"}
    return BenchCase(n_jobs=n, fingerprint=_fingerprint(recipe), run=run, meta=recipe)


def _bench_e15_service(scale: float) -> BenchCase:
    """The multi-session service end to end: 8 concurrent loadgen streams.

    Each measured iteration boots a loopback asyncio server on its own
    thread, drives 8 concurrent sessions (one thread + TCP connection each)
    through chunked submit/poll round trips, and drains it — the E15 hot
    path and the ``repro serve --listen`` serving stack.  Throughput is
    counted in decision events received over the wire.
    """
    from repro.service.client import run_loadgen
    from repro.service.server import start_server_thread

    sessions = 8
    n = _scaled(400, scale)
    chunk_size = 32

    def run() -> int:
        with start_server_thread() as handle:
            report = run_loadgen(
                handle.host,
                handle.port,
                sessions=sessions,
                jobs=n,
                machines=4,
                seed=2018,
                params={"epsilon": 0.5},
                chunk_size=chunk_size,
            )
        return report.total_decisions

    recipe = {"component": "service-loadgen", "sessions": sessions, "n": n,
              "machines": 4, "seed": 2018, "chunk_size": chunk_size,
              "algorithm": "rejection-flow(eps=0.5)", "scenarios": "catalog"}
    return BenchCase(
        n_jobs=sessions * n, fingerprint=_fingerprint(recipe), run=run, meta=recipe
    )


def _bench_e17_adaptive(scale: float) -> BenchCase:
    """The adaptive meta-scheduler on a drifting trace through a session.

    The E17 hot path — a ramp-into-heavy-tail scenario stream bulk-submitted
    to a ``meta`` session, so every arrival pays the telemetry monitor, the
    threshold controller and (on regime changes) a sub-policy rebuild on top
    of the plain E14-style ingestion cost.  Throughput counts simulator
    events, making the meta overhead directly comparable against an
    ``e14_robustness`` run on the same host.
    """
    from repro.service import open_session
    from repro.workloads.scenarios import get_scenario

    machines = 8
    n = _scaled(8_000, scale)
    scenario = get_scenario("drift-ramp-heavytail")
    chunks = list(scenario.job_chunks(n, num_machines=machines, seed=2018))

    def run() -> int:
        session = open_session("meta", machines, policy="threshold", epsilon=0.25)
        for chunk in chunks:
            session.submit_many(chunk)
        outcome = session.finalize()
        return outcome.result.extras["events"]

    recipe = {"workload": "scenario:drift-ramp-heavytail", "machines": machines,
              "seed": 2018, "n": n, "algorithm": "meta(threshold,eps=0.25)",
              "path": "session-chunk-ingest"}
    return BenchCase(n_jobs=n, fingerprint=_fingerprint(recipe), run=run, meta=recipe)


#: The benchmark registry, in reporting order.
SPECS: dict[str, BenchSpec] = {
    spec.slug: spec
    for spec in (
        BenchSpec("e1_flow_time", "Theorem 1 on the E1 overload-burst workload (n=10k)",
                  _bench_e1_dispatch),
        BenchSpec("e1_scan", "E1 overload-burst pinned to the scan dispatch backend",
                  _bench_e1_scan),
        BenchSpec("e1_poisson", "Theorem 1 on the smooth E1 poisson-pareto workload (n=10k)",
                  _bench_e1_poisson),
        BenchSpec("greedy_overload", "greedy baseline under sustained overload (n=10k)",
                  _bench_greedy_overload),
        BenchSpec("energy_flow", "Theorem 2 on the speed-scaling engine (n=4k)",
                  _bench_energy_flow),
        BenchSpec("generator_100k", "chunked generation of a 100k-job instance",
                  _bench_generator_100k),
        BenchSpec("event_queue", "raw event-queue push/pop throughput",
                  _bench_event_queue),
        BenchSpec("solver_facade", "repro.solve() end to end (n=2k)",
                  _bench_solver_facade),
        BenchSpec("e13_session", "streaming-session ingestion, poll per submit (n=10k)",
                  _bench_session_ingest),
        BenchSpec("e14_robustness", "multi-tenant scenario trace through a session (n=8k)",
                  _bench_e14_robustness),
        BenchSpec("e15_service", "loopback service: 8 concurrent loadgen sessions (n=8x400)",
                  _bench_e15_service),
        BenchSpec("e17_adaptive", "meta-scheduler on a drifting trace through a session (n=8k)",
                  _bench_e17_adaptive),
        BenchSpec("frontier_100k", "FCFS over a 100k-job instance (full runs only)",
                  _bench_frontier_100k, quick=False),
    )
}


# --------------------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------------------


def run_bench(spec: BenchSpec, repeats: int, scale: float = 1.0) -> dict:
    """Measure one benchmark: median-of-``repeats`` wall time plus throughput."""
    case = spec.build(scale)
    wall_times: list[float] = []
    events = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        events = case.run()
        wall_times.append(time.perf_counter() - start)
    median_s = statistics.median(wall_times)
    return {
        "bench": spec.slug,
        "description": spec.description,
        "n_jobs": case.n_jobs,
        "repeats": len(wall_times),
        "wall_times_s": wall_times,
        "median_s": median_s,
        "events": events,
        "events_per_sec": events / median_s if median_s > 0 else float("inf"),
        "fingerprint": case.fingerprint,
        "meta": case.meta,
    }


def artifact_path(out_dir: "str | Path", slug: str) -> Path:
    """Where the artifact for ``slug`` is written."""
    return Path(out_dir) / f"{ARTIFACT_PREFIX}{slug}.json"


def write_artifact(out_dir: "str | Path", result: dict) -> Path:
    """Write one ``BENCH_<slug>.json`` artifact (canonical JSON)."""
    path = artifact_path(out_dir, result["bench"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(result, indent=2) + "\n", encoding="utf-8")
    return path


def run_benchmarks(
    out_dir: "str | Path",
    only: Sequence[str] | None = None,
    quick: bool = False,
    repeats: int | None = None,
    scale: float = 1.0,
    progress: Callable[[str], None] | None = None,
) -> list[dict]:
    """Run the selected benchmarks and write one artifact per case."""
    if only:
        unknown = sorted(set(only) - set(SPECS))
        if unknown:
            raise KeyError(f"unknown benchmarks {unknown}; available: {sorted(SPECS)}")
        selected = [SPECS[slug] for slug in only]
    else:
        selected = [spec for spec in SPECS.values() if spec.quick or not quick]
    if repeats is None:
        repeats = QUICK_REPEATS if quick else FULL_REPEATS
    results = []
    for spec in selected:
        result = run_bench(spec, repeats=repeats, scale=scale)
        path = write_artifact(out_dir, result)
        if progress is not None:
            progress(
                f"{spec.slug:>16s}: {result['median_s']:8.3f}s median, "
                f"{result['events_per_sec']:>12,.0f} events/s -> {path}"
            )
        results.append(result)
    return results


# --------------------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The harness CLI behind ``repro bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the benchmark suite and emit BENCH_<slug>.json artifacts",
    )
    parser.add_argument("--out", default="bench-artifacts",
                        help="directory for BENCH_*.json artifacts (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the full-only cases and use fewer repeats")
    parser.add_argument("--only", nargs="+", metavar="SLUG",
                        help="run only the named benchmarks")
    parser.add_argument("--repeats", type=int, default=None,
                        help="median-of-k repeats (default: 3 quick / 5 full)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor for workload sizes (testing hook)")
    parser.add_argument("--list", action="store_true", help="list benchmarks and exit")
    return parser


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """CLI entry point; returns the process exit code.

    ``out``/``err`` default to the process streams; ``repro bench`` threads
    its own streams through so callers capturing CLI output see ours too.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = build_parser().parse_args(argv)
    if args.list:
        for spec in SPECS.values():
            marker = "quick" if spec.quick else "full-only"
            print(f"{spec.slug:>16s}  [{marker:9s}] {spec.description}", file=out)
        return 0
    try:
        run_benchmarks(
            args.out,
            only=args.only,
            quick=args.quick,
            repeats=args.repeats,
            scale=args.scale,
            progress=lambda line: print(line, file=out),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=err)
        return 2
    return 0
