"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (``benchspec.WORKLOADS``):

* ``flash-trace`` — batch solves of a seeded trace file in a fresh worker
  process (``batch_worker.py``);
* ``tenant-service`` — ``repro serve --listen`` in its own process, driven
  by one client process over one connection (``service_client.py``).

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes the traced run and reports the per-layer
metrics.  Inputs are generated from ``--seed`` before anything is timed, and
every output is checked after the timed phase.  Each run prints one JSON
line describing the host and the run, then, as its last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  A run that cannot
measure exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import median

from benchenv import (
    CACHE,
    HERE,
    BenchError,
    host_info,
    import_program,
    percentile,
    pin_to_bench_cpu,
    run_script,
    stop,
    timed_first_line,
)
from benchspec import WORKLOADS, BatchSpec, batch_input, describe, operations, session_inputs
from hostspeed import calibrate, factors

#: Measured set-ups per run; the median is reported.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "cpu_us_per_job": "us/job",
    "peak_rss_mb": "MiB",
    "rtt_p50_ms": "ms",
    "rtt_p99_ms": "ms",
}

#: Per-layer metrics; a workload reports 0 for a layer it does not reach.
PER_LAYER = {
    "setup.import_s": "s",
    "service.ready_s": "s",
    "workloads.read_s": "s",
    "workloads.rows": "count",
    "workloads.bytes": "bytes",
    "workloads.build_s": "s",
    "solvers.policy_s": "s",
    "solvers.outcome_s": "s",
    "simulation.offer_s": "s",
    "simulation.drain_s": "s",
    "simulation.drain_self_s": "s",
    "simulation.finish_s": "s",
    "simulation.events": "count",
    "simulation.events.dispatch": "count",
    "simulation.events.start": "count",
    "simulation.events.complete": "count",
    "simulation.events.reject": "count",
    "core.arrival_s": "s",
    "core.arrival_calls": "count",
    "core.rule1_rejections": "count",
    "core.rule2_rejections": "count",
    "utils.encode_s": "s",
    "utils.encode_bytes": "bytes",
    "service.round_trips": "count",
    "service.bytes_out": "bytes",
    "service.bytes_in": "bytes",
    "service.decisions": "count",
    "service.throttled": "count",
    "service.client_cpu_us_per_job": "us/job",
    "service.server_busy_share": "share",
    "service.parse_us_per_job": "us/job",
    "service.submit_us_per_job": "us/job",
    "service.poll_us_per_job": "us/job",
    "service.close_us_per_job": "us/job",
    "service.encode_us_per_job": "us/job",
    "service.transport_us_per_job": "us/job",
    "trace.pass_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_share": "share",
}

#: Span names of a traced batch pass -> per-layer metric of their duration.
BATCH_SPANS = {
    "workloads.read": "workloads.read_s",
    "workloads.build": "workloads.build_s",
    "solvers.policy": "solvers.policy_s",
    "solvers.outcome": "solvers.outcome_s",
    "simulation.offer": "simulation.offer_s",
    "simulation.drain": "simulation.drain_s",
    "simulation.finish": "simulation.finish_s",
    "core.arrival": "core.arrival_s",
    "utils.encode": "utils.encode_s",
}

#: Replayed server calls -> per-layer metric of their time per job.
SERVICE_SPANS = ("parse", "submit", "poll", "close", "encode")


class Run:
    """What one workload run found: operations, failures and metrics."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0) if traced else {}
        self.details: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def result(self) -> dict:
        units = PER_LAYER if self.traced else END_TO_END
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0 and not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def layer_seconds(run: Run, table: dict, root: str, speed: float) -> dict:
    """Check that the self times add up to the traced root and scale the
    table to reference seconds; records each span's share of the root."""
    total = table[root]["total_s"]
    attributed = sum(row["self_s"] for row in table.values())
    if abs(attributed - total) > 1e-6 * max(total, 1.0):
        run.fail(f"self times sum to {attributed} s, traced {root} took {total} s")
    run.details["layer_shares"] = {name: row["self_s"] / total for name, row in table.items()}
    return {
        name: {"calls": row["calls"], "total_s": row["total_s"] * speed,
               "self_s": row["self_s"] * speed}
        for name, row in table.items()
    }


def setup_probe_samples(algorithm: str) -> tuple[list[float], list[float], list[float]]:
    """Fresh-interpreter set-up: ``import repro`` plus a solver lookup.

    Returns the set-up and import times in reference seconds and the raw
    set-up times.
    """
    raw, imports, brackets = [], [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        proc, elapsed, line = timed_first_line([str(HERE / "setup_probe.py"), algorithm])
        stop(proc)
        brackets.append(calibrate())
        raw.append(elapsed)
        imports.append(json.loads(line)["import_s"])
    speeds = factors(brackets)
    return ([t * f for t, f in zip(raw, speeds)], [t * f for t, f in zip(imports, speeds)],
            raw)


# -- batch workloads -------------------------------------------------------------------


def run_batch(run: Run, workload: str, seed: int, seconds: int, trace_id: str) -> None:
    from repro.solvers import solve
    from repro.utils.serialization import canonical_json
    from repro.workloads.traces import trace_instance

    spec: BatchSpec = WORKLOADS[workload]
    path = batch_input(workload, seed)
    setups, imports, raw_setups = setup_probe_samples(spec.algorithm)
    spans_out = CACHE / "spans" / f"{trace_id}.ndjson"
    count = operations(workload, seconds)
    if run.traced:
        count = max(count, 6)  # at least three traced and three untraced passes
    report = run_script("batch_worker.py", workload, str(path), str(count),
                        "1" if run.traced else "0", trace_id, str(spans_out))

    passes = report["passes"]
    reference = canonical_json(
        solve(trace_instance(path), spec.algorithm, dispatch="scan",
              epsilon=spec.epsilon).as_row()
    )
    for sample, row in zip(passes, report["rows"]):
        if row != reference:
            sample["ok"] = False
            run.errors.append(f"outcome row differs from the scan reference: {row}")
    run.attempted = len(passes)
    run.failed = sum(1 for sample in passes if not sample["ok"])
    run.errors.extend(report["errors"])
    timed = [s for s in passes if "wall_s" in s]
    for sample, speed in zip(timed, factors(report["brackets_s"])):
        sample["speed"] = speed
    plain = [s for s in timed if not s["traced"]]
    if not plain:
        raise BenchError("no untraced pass completed")
    walls = [s["wall_s"] * s["speed"] for s in plain]

    if not run.traced:
        run.metrics.update({
            "setup_s": median(setups),
            "jobs_per_s": report["jobs"] / median(walls),
            "cpu_us_per_job": 1e6 * median([s["cpu_s"] * s["speed"] for s in plain])
            / report["jobs"],
            "peak_rss_mb": report["peak_rss_mb"],
            # One operation is one whole solve: its latency is the pass.
            "rtt_p50_ms": 1e3 * median(walls),
            "rtt_p99_ms": 1e3 * percentile(walls, 99.0),
        })
        run.details["raw"] = {
            "setup_s": raw_setups,
            "pass_s": [s["wall_s"] for s in plain],
            "speed": [s["speed"] for s in plain],
        }
        return

    traced = [s for s in timed if s["traced"]]
    table = layer_seconds(run, report["layers"], "pass", median([s["speed"] for s in traced]))
    run.metrics.update(report["counters"])
    run.metrics.update({metric: table.get(name, {}).get("total_s", 0.0)
                        for name, metric in BATCH_SPANS.items()})
    run.metrics.update({
        "setup.import_s": median(imports),
        "simulation.drain_self_s": table["simulation.drain"]["self_s"],
        "core.arrival_calls": table.get("core.arrival", {}).get("calls", 0.0),
        "trace.pass_s": table["pass"]["total_s"],
        "trace.glue_s": table["pass"]["self_s"],
        "trace.overhead_share":
            median([s["wall_s"] * s["speed"] for s in traced]) / median(walls) - 1.0,
    })
    run.details["spans"] = str(spans_out.relative_to(CACHE.parent))


# -- streaming workload ----------------------------------------------------------------


def start_server() -> tuple[subprocess.Popen, int, float, float]:
    """Spawn ``repro serve --listen``.

    Returns the process, its port, and the seconds until the ``listening``
    line (ready) and until the first ``hello`` reply (set-up).
    """
    from repro.service.client import ServiceClient

    proc, ready, line = timed_first_line(["-m", "repro", "serve", "--listen", "127.0.0.1:0"])
    started = time.perf_counter() - ready
    try:
        port = int(json.loads(line)["port"])
        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            client.hello()
    except BaseException:
        proc.kill()
        stop(proc)
        raise
    return proc, port, ready, time.perf_counter() - started


def stop_server(proc: subprocess.Popen, port: int) -> int:
    """Ask the server to shut down; returns its exit code."""
    from repro.service.client import ServiceClient

    try:
        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            client.shutdown()
        proc.stdout.read()
    finally:
        stop(proc, timeout=30.0)
    return proc.returncode


def run_service(run: Run, workload: str, seed: int, seconds: int, trace_id: str) -> None:
    from repro.solvers import solve
    from repro.utils.serialization import canonical_json
    from repro.workloads.traces import trace_instance

    spec = WORKLOADS[workload]
    inputs = session_inputs(workload, seed, spec.distinct_sessions)
    imports: list[float] = []
    if run.traced:
        _, imports, _ = setup_probe_samples(spec.algorithm)
    readies: list[float] = []
    setups: list[float] = []
    brackets = [calibrate()]
    for i in range(SETUP_SAMPLES):
        proc, port, ready, setup = start_server()
        brackets.append(calibrate())
        readies.append(ready)
        setups.append(setup)
        if i < SETUP_SAMPLES - 1:
            stop_server(proc, port)
    speeds = factors(brackets)
    readies = [t * f for t, f in zip(readies, speeds)]
    raw_setups, setups = setups, [t * f for t, f in zip(setups, speeds)]

    spans_out = CACHE / "spans" / f"{trace_id}.ndjson"
    count = spec.min_sessions if run.traced else operations(workload, seconds)
    try:
        report = run_script(
            "service_client.py", "127.0.0.1", str(port), str(proc.pid), str(count),
            "1" if run.traced else "0", trace_id, str(spans_out), *map(str, inputs),
        )
    finally:
        code = stop_server(proc, port)
    run.attempted = report["attempted"]
    for message in report["errors"]:
        run.fail(message)
    if code != 0:
        run.fail(f"server exited with code {code}: unclean sessions")
    references: dict[int, str] = {}
    for session in report["sessions"]:
        index = session["input"]
        if index not in references:
            outcome = solve(trace_instance(inputs[index]), spec.algorithm, epsilon=spec.epsilon)
            references[index] = canonical_json(outcome.as_row())
        if session["final"] != references[index]:
            run.fail(f"session on input {index}: final row differs from repro.solve")

    speeds = factors(report["brackets_s"])
    for session, speed in zip(report["sessions"], speeds):
        session["speed"] = speed
    plain = [s for s in report["sessions"] if not s["traced"]]
    if not plain:
        raise BenchError("no untraced session completed")
    jobs = sum(s["jobs"] for s in plain)
    wall = sum(s["wall_s"] * s["speed"] for s in plain)
    server_cpu = sum(s["server_cpu_s"] * s["speed"] for s in plain)
    if not run.traced:
        rtts = [rtt * s["speed"] for s in plain for rtt in s["rtts_s"]]
        run.metrics.update({
            "setup_s": median(setups),
            "jobs_per_s": jobs / wall,
            "cpu_us_per_job": 1e6 * server_cpu / jobs,
            "peak_rss_mb": report["peak_rss_mb"],
            "rtt_p50_ms": 1e3 * percentile(rtts, 50.0),
            "rtt_p99_ms": 1e3 * percentile(rtts, 99.0),
        })
        run.details["raw"] = {
            "setup_s": raw_setups,
            "jobs_per_s": jobs / sum(s["wall_s"] for s in plain),
            "speed": [s["speed"] for s in plain],
        }
        return

    # The last bracket pair surrounds the in-process replay.
    table = layer_seconds(run, report["layers"], "replay", speeds[-1])
    per_job = {
        name: 1e6 * table.get(f"service.{name}", {}).get("total_s", 0.0) / report["replay_jobs"]
        for name in SERVICE_SPANS
    }
    events = report["replay_events"]
    traced = [s for s in report["sessions"] if s["traced"]]
    traced_wall_per_job = sum(s["wall_s"] * s["speed"] for s in traced) / sum(
        s["jobs"] for s in traced
    )
    run.metrics.update(report["counters"])
    run.metrics.update({f"service.{name}_us_per_job": value for name, value in per_job.items()})
    run.metrics.update({f"simulation.events.{kind}": count for kind, count in events.items()})
    run.metrics.update({f"core.{rule}_rejections": count
                        for rule, count in report["replay_rejections"].items()})
    run.metrics.update({
        "setup.import_s": median(imports),
        "service.ready_s": median(readies),
        "service.throttled": report["throttled"],
        "service.client_cpu_us_per_job":
            1e6 * sum(s["client_cpu_s"] * s["speed"] for s in plain) / jobs,
        "service.server_busy_share": server_cpu / wall,
        "service.transport_us_per_job": 1e6 * server_cpu / jobs - sum(per_job.values()),
        "simulation.events": sum(events.values()),
        "core.arrival_s": table.get("core.arrival", {}).get("total_s", 0.0),
        "core.arrival_calls": table.get("core.arrival", {}).get("calls", 0.0),
        "trace.pass_s": table["replay"]["total_s"],
        "trace.glue_s": table["replay"]["self_s"],
        "trace.overhead_share": traced_wall_per_job / (wall / jobs) - 1.0,
    })
    run.details["client_layers"] = report["client_layers"]
    run.details["spans"] = str(spans_out.relative_to(CACHE.parent))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        host = host_info()
        host["bench_cpu"] = pin_to_bench_cpu()
        # Importing the program here compiles its byte-code before any
        # fresh interpreter is timed.
        import_program()
        import repro  # noqa: F401
        run = Run(traced=bool(args.trace))
        trace_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
        body = run_service if args.workload == "tenant-service" else run_batch
        body(run, args.workload, args.seed, args.seconds, trace_id)
        result = run.result()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "run": {**describe(args.workload), "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "trace_id": trace_id},
        "host": host,
        "errors": run.errors,
        **run.details,
    }))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
