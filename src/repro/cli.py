"""Command-line interface.

The subcommands cover the common workflows::

    python -m repro experiments --only E1 E2
    python -m repro solve --algorithm rejection-flow --param epsilon=0.5 --jobs 200 --gantt
    python -m repro serve --algorithm rejection-flow --machines 4 < jobs.ndjson
    python -m repro serve --listen 127.0.0.1:7077
    python -m repro loadgen --sessions 8 --jobs 500 --verify
    python -m repro trace generate --scenario flash-crowd --jobs 1000 --out crowd.ndjson
    python -m repro adaptive --scenario drift-ramp-heavytail --policy threshold
    python -m repro bounds --epsilon 0.25 --alpha 3
    python -m repro campaign run --grid small --store /tmp/store-a
    python -m repro campaign diff /tmp/store-a /tmp/store-b

* ``experiments`` regenerates experiment tables (same engine as
  ``examples/reproduce_experiments.py``).
* ``solve`` runs *any* registered algorithm through the unified solver
  registry (``--list-algorithms`` enumerates them with their capability
  metadata; ``--param name=value`` passes schema-validated parameters;
  ``--json`` emits the outcome row as canonical JSON for scripted callers).
  Jobs come from the random generator, a catalog scenario (``--scenario``)
  or a trace file (``--trace``).  ``--gantt`` and ``--schedule-csv`` print
  the schedule after the summary: an ASCII Gantt chart and a CSV of its
  events.
* ``serve`` runs a streaming scheduler session: job rows in (stdin or
  ``--trace FILE``, NDJSON or CSV via ``--trace-format``), decision-event
  lines out as jobs arrive, and a final summary line when the stream ends.
  With ``--listen HOST:PORT`` it instead hosts the multi-session asyncio
  service (many named concurrent sessions, bounded-queue backpressure,
  ``snapshot``/``restore`` for sessions that must outlive the server).
* ``loadgen`` drives N concurrent scenario streams against a service server
  (or a self-hosted loopback one) and reports throughput and decision
  latency; ``--verify`` checks every session's final summary byte-identical
  to the batch ``repro.solve`` of the same instance.
* ``trace`` works with job traces: ``inspect`` (streamed statistics),
  ``convert`` (NDJSON <-> CSV plus deterministic transforms: load scaling,
  time warping, truncation, sharding), ``generate`` (export a catalog
  scenario as a trace file) and ``scenarios`` (list the catalog).
* ``adaptive`` runs the drifting-regret evaluation (experiment E17): each
  drift scenario is solved by every fixed candidate policy and by the
  algorithm-switching ``meta`` solver, and the per-scenario verdict — does
  adaptivity beat the worst (or every) fixed policy in hindsight — is printed
  after the table (``--json`` emits the verdict summary as canonical JSON).
* ``bounds`` prints the paper's closed-form guarantees for given parameters.
* ``campaign`` runs (experiment × variant × seed) grids against a cached
  artifact store and aggregates the results (``run``/``list``/``report``).
  ``--store`` is a directory.  ``run`` computes, in this process, exactly
  the tasks whose artifacts are missing, so a re-run is all cache hits and
  an interrupted run resumes where it stopped.  ``diff`` byte-compares the
  artifacts of two stores.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.bounds import (
    energy_flow_competitive_ratio,
    energy_min_competitive_ratio,
    energy_min_lower_bound,
    flow_time_competitive_ratio,
    flow_time_rejection_budget,
)
from repro.exceptions import InvalidParameterError, ReproError
from repro.simulation.engine import DISPATCH_MODES
from repro.simulation.validation import validate_result
from repro.solvers import get_solver, list_algorithms, solve
from repro.utils.serialization import canonical_json
from repro.utils.tabulate import format_table


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="run the registered experiments and print their tables"
    )
    experiments.add_argument("--only", nargs="*", default=None, help="experiment ids to run")
    experiments.add_argument("--list", action="store_true", help="list experiments and exit")

    solve_cmd = subparsers.add_parser(
        "solve", help="run any registered algorithm via the unified solver registry"
    )
    solve_cmd.add_argument(
        "--list-algorithms", action="store_true",
        help="list registered algorithms with their capability metadata and exit",
    )
    solve_cmd.add_argument(
        "--streaming", action="store_true",
        help="with --list-algorithms: only algorithms usable as streaming "
             "sessions (repro serve / the multi-session service)",
    )
    solve_cmd.add_argument("--algorithm", default="rejection-flow",
                           help="registry id (see --list-algorithms)")
    solve_cmd.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="algorithm parameter, validated against the registry schema (repeatable)",
    )
    solve_cmd.add_argument("--jobs", type=int, default=200)
    solve_cmd.add_argument("--machines", type=int, default=None,
                           help="machine count (default: 4, or the width of --trace)")
    solve_cmd.add_argument("--seed", type=int, default=0)
    solve_cmd.add_argument("--alpha", type=float, default=3.0,
                           help="power exponent of the generated machines")
    solve_cmd.add_argument("--size-distribution", default="pareto",
                           choices=("uniform", "exponential", "pareto", "bimodal"))
    solve_cmd.add_argument(
        "--json", action="store_true",
        help="print the outcome row (SolveOutcome.as_row) as canonical JSON "
             "instead of the human-readable summary",
    )
    solve_cmd.add_argument("--scenario", default=None, metavar="NAME",
                           help="take jobs from this catalog scenario (see `repro trace "
                                "scenarios`) instead of the random generator")
    solve_cmd.add_argument("--trace", default=None, metavar="FILE",
                           help="take jobs from this trace file (NDJSON / CSV) instead "
                                "of the random generator")
    solve_cmd.add_argument("--dispatch", default=None,
                           choices=DISPATCH_MODES,
                           help="engine dispatch mode (default: indexed, env REPRO_DISPATCH)")
    solve_cmd.add_argument("--gantt", action="store_true",
                           help="after the summary, print an ASCII Gantt chart of the schedule")
    solve_cmd.add_argument("--schedule-csv", action="store_true",
                           help="after the summary, print the schedule's events as CSV")

    serve = subparsers.add_parser(
        "serve", help="stream newline-delimited job JSON through a scheduler session"
    )
    serve.add_argument("--algorithm", default="rejection-flow",
                       help="streaming-capable registry id (see solve --list-algorithms)")
    serve.add_argument("--machines", type=int, default=4,
                       help="size of the identical machine fleet")
    serve.add_argument("--alpha", type=float, default=3.0,
                       help="power exponent of the machines (speed-scaling models)")
    serve.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="algorithm parameter, validated against the registry schema (repeatable)",
    )
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="read job lines from FILE instead of stdin ('-' = stdin)")
    serve.add_argument("--trace-format", default="auto",
                       choices=("auto", "ndjson", "csv"),
                       help="trace format (auto = by file extension; stdin defaults "
                            "to ndjson)")
    serve.add_argument("--dispatch", default=None,
                       choices=DISPATCH_MODES,
                       help="engine dispatch mode (default: indexed, env REPRO_DISPATCH)")
    serve.add_argument("--name", default=None,
                       help="session label (used for the assembled instance and result)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-decision event lines (only the final summary)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="host the multi-session asyncio service on HOST:PORT "
                            "(port 0 = ephemeral) instead of a stdio session; the "
                            "other flags become the defaults for created sessions")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="per-session bound on submitted-but-unprocessed jobs "
                            "(backpressure; service mode)")

    loadgen = subparsers.add_parser(
        "loadgen", help="drive concurrent scenario streams against the service"
    )
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="target an already-running `repro serve --listen` server "
                              "(default: self-host a loopback server for the run)")
    loadgen.add_argument("--sessions", type=int, default=4,
                         help="number of concurrent sessions (one thread + connection each)")
    loadgen.add_argument("--jobs", type=int, default=256,
                         help="jobs streamed per session")
    loadgen.add_argument("--machines", type=int, default=4)
    loadgen.add_argument("--seed", type=int, default=2018,
                         help="base seed; session i uses seed+i")
    loadgen.add_argument("--alpha", type=float, default=3.0)
    loadgen.add_argument("--algorithm", default="rejection-flow",
                         help="streaming-capable registry id")
    loadgen.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="algorithm parameter, validated against the registry schema (repeatable)",
    )
    loadgen.add_argument("--dispatch", default=None,
                         choices=DISPATCH_MODES)
    loadgen.add_argument("--scenario", action="append", default=None, metavar="NAME",
                         help="catalog scenario to cycle across sessions "
                              "(repeatable; default: the whole catalog)")
    loadgen.add_argument("--chunk-size", type=int, default=32,
                         help="jobs per submit round-trip")
    loadgen.add_argument("--rate", type=float, default=None, metavar="JOBS_PER_S",
                         help="pace each session to this many jobs/second "
                              "(default: unthrottled)")
    loadgen.add_argument("--verify", action="store_true",
                         help="check every final summary byte-identical to the "
                              "batch repro.solve of the same instance")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as canonical JSON")

    trace = subparsers.add_parser(
        "trace", help="inspect, convert and generate job traces (NDJSON / CSV)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _format_arg(sub: argparse.ArgumentParser, flag: str = "--format") -> None:
        sub.add_argument(flag, default="auto", choices=("auto", "ndjson", "csv"),
                         help="trace format (auto = by file extension)")

    trace_inspect = trace_sub.add_parser(
        "inspect", help="stream a trace and print its aggregate statistics"
    )
    trace_inspect.add_argument("file", help="trace file to inspect")
    _format_arg(trace_inspect)
    trace_inspect.add_argument("--json", action="store_true",
                               help="print the statistics as canonical JSON")

    trace_convert = trace_sub.add_parser(
        "convert", help="convert between formats, optionally applying transforms"
    )
    trace_convert.add_argument("input", help="source trace file")
    trace_convert.add_argument("output", help="destination trace file")
    _format_arg(trace_convert, "--from-format")
    _format_arg(trace_convert, "--to-format")
    trace_convert.add_argument("--load-scale", type=float, default=None, metavar="F",
                               help="multiply every processing size by F")
    trace_convert.add_argument("--time-warp", type=float, default=None, metavar="F",
                               help="multiply every release/deadline by F "
                                    "(F < 1 raises the arrival rate)")
    trace_convert.add_argument("--max-jobs", type=int, default=None, metavar="N",
                               help="keep only the first N jobs")
    trace_convert.add_argument("--max-time", type=float, default=None, metavar="T",
                               help="drop jobs released after T")
    trace_convert.add_argument("--shard", default=None, metavar="I/K",
                               help="keep shard I of K (every K-th job starting at I; "
                                    "renumbers ids)")

    trace_generate = trace_sub.add_parser(
        "generate", help="export a catalog scenario as a trace file"
    )
    trace_generate.add_argument("--scenario", required=True,
                                help="scenario name (see `repro trace scenarios`)")
    trace_generate.add_argument("--jobs", type=int, default=1000)
    trace_generate.add_argument("--machines", type=int, default=4)
    trace_generate.add_argument("--seed", type=int, default=2018)
    trace_generate.add_argument("--out", required=True, metavar="FILE",
                                help="destination trace file")
    _format_arg(trace_generate)

    trace_sub.add_parser("scenarios", help="list the heavy-traffic scenario catalog")

    adaptive = subparsers.add_parser(
        "adaptive",
        help="evaluate the algorithm-switching meta-scheduler on drifting workloads (E17)",
    )
    adaptive.add_argument("--scenario", action="append", default=None, metavar="NAME",
                          help="drifting scenario to evaluate (repeatable; default: "
                               "the full drift catalog)")
    adaptive.add_argument("--policy", action="append", default=None,
                          choices=("threshold", "bandit"),
                          help="meta switch-policy family (repeatable; default: both)")
    adaptive.add_argument("--candidate", action="append", default=None,
                          metavar="ALGORITHM",
                          help="candidate portfolio entry, a streaming registry id "
                               "(repeatable; default: the meta solver's portfolio)")
    adaptive.add_argument("--jobs", type=int, default=300)
    adaptive.add_argument("--machines", type=int, default=4)
    adaptive.add_argument("--seed", type=int, default=2018)
    adaptive.add_argument("--window", type=int, default=64,
                          help="telemetry monitor window (samples per statistic)")
    adaptive.add_argument("--cooldown", type=int, default=32,
                          help="minimum arrivals between algorithm switches")
    adaptive.add_argument("--epsilon", type=float, default=0.25,
                          help="rejection budget shared by every policy that takes one")
    adaptive.add_argument("--ingest", default="session", choices=("session", "batch"),
                          help="stream chunks through a session or solve a batch "
                               "instance (byte-identical outcomes)")
    adaptive.add_argument("--json", action="store_true",
                          help="print the per-scenario verdict summary as canonical JSON")

    bounds = subparsers.add_parser("bounds", help="print the paper's closed-form guarantees")
    bounds.add_argument("--epsilon", type=float, default=0.5)
    bounds.add_argument("--alpha", type=float, default=3.0)

    campaign = subparsers.add_parser(
        "campaign", help="run experiment grids against a cached artifact store"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _common_campaign_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--grid", default="small", help="grid name (see `campaign list`)")
        sub.add_argument("--store", default="campaign-artifacts",
                         help="artifact store directory")
        sub.add_argument("--master-seed", type=int, default=None,
                         help="master seed the per-task seeds are derived from")
        sub.add_argument("--csv", metavar="DIR", default=None,
                         help="also export the aggregated tables as CSV files into DIR")

    campaign_run = campaign_sub.add_parser(
        "run", help="run a grid, skipping tasks whose artifacts are cached"
    )
    _common_campaign_args(campaign_run)
    campaign_run.add_argument("--quiet", action="store_true",
                              help="suppress per-task progress lines")

    campaign_list = campaign_sub.add_parser("list", help="list grids (or one grid's tasks)")
    campaign_list.add_argument("--grid", default=None, help="show the tasks of this grid")
    campaign_list.add_argument("--master-seed", type=int, default=None)

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate already-stored artifacts without running anything"
    )
    _common_campaign_args(campaign_report)

    campaign_diff = campaign_sub.add_parser(
        "diff", help="byte-compare the artifacts of two stores"
    )
    campaign_diff.add_argument("store_a", help="first store directory")
    campaign_diff.add_argument("store_b", help="second store directory")

    return parser


def _cmd_experiments(args: argparse.Namespace, out) -> int:
    from repro.experiments import available_experiments, run_experiment

    if args.list:
        for experiment_id, description in available_experiments().items():
            print(f"{experiment_id}: {description}", file=out)
        return 0
    ids = [e.upper() for e in (args.only or available_experiments())]
    for experiment_id in ids:
        result = run_experiment(experiment_id)
        print(result.render(), file=out)
        print("", file=out)
    return 0


def _parse_param(raw: str):
    """Parse one ``NAME=VALUE`` pair; values become bool/None/int/float/str."""
    name, sep, value = raw.partition("=")
    if not sep or not name:
        raise ReproError(f"--param expects NAME=VALUE, got {raw!r}")
    lowered = value.lower()
    if lowered in ("true", "false"):
        return name, lowered == "true"
    if lowered in ("none", "null"):
        return name, None
    for cast in (int, float):
        try:
            return name, cast(value)
        except ValueError:
            continue
    return name, value


def _cmd_solve(args: argparse.Namespace, out) -> int:
    if args.list_algorithms:
        rows = list_algorithms(streaming=True if args.streaming else None)
        columns = [
            "algorithm", "model", "objective",
            "supports_rejection", "supports_streaming", "params",
        ]
        title = "== registered algorithms (repro.solve) =="
        if args.streaming:
            title = "== streaming-capable algorithms (repro serve / service) =="
        print(
            format_table(
                headers=columns,
                rows=[[row[col] for col in columns] for row in rows],
                title=title,
            ),
            file=out,
        )
        return 0
    if args.streaming:
        raise ReproError("--streaming only filters --list-algorithms output")
    if args.gantt or args.schedule_csv:
        if args.json:
            raise ReproError("--json prints one line; it does not combine with "
                             "--gantt or --schedule-csv")
        if get_solver(args.algorithm).model == "reference":
            raise ReproError(f"algorithm {args.algorithm!r} is a reference solver: it has "
                             "no schedule for --gantt or --schedule-csv")

    params = dict(_parse_param(raw) for raw in args.param)
    instance = _solve_source(args)
    outcome = solve(instance, args.algorithm, dispatch=args.dispatch, **params)
    if outcome.result is not None:
        validate_result(outcome.result)

    if args.json:
        # Canonical JSON keeps the output byte-stable for identical runs, so
        # scripted callers can diff and cache it instead of scraping tables.
        print(canonical_json(outcome.as_row()), file=out)
        return 0

    print(f"instance      : {instance.name}", file=out)
    print(f"algorithm     : {outcome.algorithm} (model {outcome.model})", file=out)
    print(f"label         : {outcome.label}", file=out)
    shown_params = ", ".join(f"{k}={v}" for k, v in sorted(outcome.params.items())) or "-"
    print(f"params        : {shown_params}", file=out)
    print(f"objective     : {outcome.objective} = {outcome.objective_value:.3f}", file=out)
    for component, value in sorted(outcome.breakdown.items()):
        print(f"  {component:22s}: {value:.3f}", file=out)
    print(
        f"rejected      : {outcome.rejected_count} jobs "
        f"({100 * outcome.rejected_fraction:.1f}%, "
        f"{100 * outcome.rejected_weight_fraction:.1f}% of weight)",
        file=out,
    )
    if args.gantt or args.schedule_csv:
        from repro.analysis.traces import ascii_gantt, trace_to_csv

        if args.gantt:
            print("", file=out)
            print(ascii_gantt(outcome.result), file=out)
        if args.schedule_csv:
            print("", file=out)
            print(trace_to_csv(outcome.result), file=out, end="")
    return 0


def _solve_source(args: argparse.Namespace):
    """Build the instance ``solve`` runs: a scenario, a trace or generated.

    A trace brings its own machine count, which an explicit ``--machines``
    must match; the scenario and the generator default to 4 machines.
    """
    if args.scenario is not None and args.trace is not None:
        raise ReproError("--scenario and --trace are mutually exclusive")
    if args.trace is not None:
        from repro.workloads.traces import trace_instance

        return trace_instance(args.trace, machines=args.machines, alpha=args.alpha)
    machines = 4 if args.machines is None else args.machines
    if args.scenario is not None:
        from repro.workloads.scenarios import get_scenario
        from repro.workloads.traces import chunks_to_instance

        return chunks_to_instance(
            get_scenario(args.scenario).job_chunks(args.jobs, machines, seed=args.seed),
            machines=machines, alpha=args.alpha,
            name=f"{args.scenario}(m={machines},n={args.jobs})",
        )
    from repro.workloads.generators import InstanceGenerator

    generator = InstanceGenerator(
        num_machines=machines,
        size_distribution=args.size_distribution,
        alpha=args.alpha,
        seed=args.seed,
    )
    return generator.generate(args.jobs)


def _parse_host_port(value: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into an address tuple."""
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = "", value
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"expected HOST:PORT, got {value!r}") from None
    return host or "127.0.0.1", port


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.service.manager import SessionManager
    from repro.service.protocol import decision_line, final_line

    params = dict(_parse_param(raw) for raw in args.param)
    reserved = {"algorithm", "machines", "alpha", "dispatch", "name"} & params.keys()
    if reserved:
        raise ReproError(
            f"--param cannot set session option(s) {sorted(reserved)}; use the "
            "dedicated flags (--algorithm, --machines, --alpha, --dispatch, --name)"
        )
    defaults = {
        "algorithm": args.algorithm,
        "machines": args.machines,
        "alpha": args.alpha,
        "dispatch": args.dispatch,
        "params": params,
    }
    manager_kwargs: dict = {"defaults": defaults}
    if args.max_pending is not None:
        manager_kwargs["max_pending"] = args.max_pending
    manager = SessionManager(**manager_kwargs)

    if args.listen is not None:
        import asyncio

        from repro.service.server import ServiceServer

        host, port = _parse_host_port(args.listen)
        # Every ``create`` builds its session from the defaults: build and
        # drop one now, so a bad default exits 2 before anything listens,
        # as it does on the stdio path.
        SessionManager(defaults=defaults).create("defaults")
        server = ServiceServer(manager, host=host, port=port, out=out)
        return asyncio.run(server.run())

    # Stdio path: a thin single-session client of the same SessionManager the
    # network service uses, so the two share lifecycle and error semantics.
    from repro.workloads.traces import read_trace_jobs

    name = args.name or "serve"
    manager.create(name)
    fmt = None if args.trace_format == "auto" else args.trace_format
    source = args.trace if args.trace and args.trace != "-" else sys.stdin
    for _, job in read_trace_jobs(source, fmt):
        manager.submit(name, [job])
        events = manager.poll(name)
        if events and not args.quiet:
            for event in events:
                print(decision_line(event), file=out)
            # Flush per poll batch: with a piped stdout the stream would
            # otherwise sit in the block buffer until EOF, defeating the
            # "decisions out as jobs arrive" contract for live feeds.
            out.flush()
    row, events = manager.close(name)
    if not args.quiet:
        for event in events:
            print(decision_line(event), file=out)
    print(final_line(row), file=out)
    out.flush()
    return 0


def _cmd_loadgen(args: argparse.Namespace, out) -> int:
    from repro.service.client import run_loadgen

    params = dict(_parse_param(raw) for raw in args.param)
    handle = None
    if args.connect is not None:
        host, port = _parse_host_port(args.connect)
    else:
        from repro.service.server import start_server_thread

        handle = start_server_thread()
        host, port = handle.host, handle.port
    try:
        report = run_loadgen(
            host,
            port,
            sessions=args.sessions,
            jobs=args.jobs,
            machines=args.machines,
            seed=args.seed,
            alpha=args.alpha,
            algorithm=args.algorithm,
            dispatch=args.dispatch,
            params=params,
            scenarios=args.scenario,
            chunk_size=args.chunk_size,
            rate=args.rate,
            verify=args.verify,
        )
    finally:
        if handle is not None:
            handle.stop()

    if args.json:
        print(canonical_json(report.as_dict()), file=out)
    else:
        target = args.connect or f"{host}:{port} (self-hosted)"
        print(f"server        : {target}", file=out)
        print(f"sessions      : {len(report.sessions)}", file=out)
        print(f"jobs          : {report.total_jobs} total ({args.jobs}/session)", file=out)
        print(f"decisions     : {report.total_decisions}", file=out)
        print(f"elapsed       : {report.elapsed:.3f} s", file=out)
        print(f"throughput    : {report.throughput_jobs_per_s:.1f} jobs/s", file=out)
        print(f"latency p50   : {report.latency_p50_ms:.2f} ms", file=out)
        print(f"latency p99   : {report.latency_p99_ms:.2f} ms", file=out)
        print(f"throttled     : {report.total_throttled} submits", file=out)
        if args.verify:
            print(
                f"verified      : {report.verified}/{len(report.sessions)} sessions "
                "byte-identical to batch solve",
                file=out,
            )
        columns = ["session", "scenario", "jobs", "decisions", "latency_p99_ms"]
        rows = [
            [r.as_dict()[col] for col in columns] for r in report.sessions
        ]
        print("", file=out)
        print(format_table(headers=columns, rows=rows), file=out)
    if args.verify and report.verified != len(report.sessions):
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.workloads import traces
    from repro.workloads.scenarios import available_scenarios, get_scenario

    if args.trace_command == "scenarios":
        for name, description in available_scenarios().items():
            print(f"{name}: {description}", file=out)
        return 0

    if args.trace_command == "inspect":
        fmt = None if args.format == "auto" else args.format
        stats = traces.trace_stats(traces.read_trace_chunks(args.file, fmt))
        if args.json:
            print(canonical_json(stats.as_row()), file=out)
            return 0
        for key, value in stats.as_row().items():
            print(f"{key:15s}: {value}", file=out)
        return 0

    if args.trace_command == "generate":
        scenario = get_scenario(args.scenario)
        fmt = None if args.format == "auto" else args.format
        count = traces.write_trace(
            scenario.job_chunks(args.jobs, args.machines, seed=args.seed),
            args.out,
            fmt,
        )
        print(f"wrote {count} jobs of scenario {scenario.name!r} to {args.out}", file=out)
        return 0

    # convert
    from_fmt = None if args.from_format == "auto" else args.from_format
    to_fmt = None if args.to_format == "auto" else args.to_format
    chunks = traces.read_trace_chunks(args.input, from_fmt)
    if args.load_scale is not None:
        chunks = traces.scale_load(chunks, args.load_scale)
    if args.time_warp is not None:
        chunks = traces.time_warp(chunks, args.time_warp)
    if args.max_jobs is not None or args.max_time is not None:
        chunks = traces.truncate(chunks, max_jobs=args.max_jobs, max_time=args.max_time)
    if args.shard is not None:
        index, sep, total = args.shard.partition("/")
        try:
            index, total = int(index), int(total)
        except ValueError:
            sep = ""
        if not sep:
            raise ReproError(f"--shard expects I/K (e.g. 0/4), got {args.shard!r}")
        chunks = traces.shard(chunks, total, index)
    count = traces.write_trace(chunks, args.output, to_fmt)
    print(f"wrote {count} jobs to {args.output}", file=out)
    return 0


def _campaign_tasks(args: argparse.Namespace):
    from repro.campaigns import DEFAULT_MASTER_SEED, get_grid

    master_seed = args.master_seed if args.master_seed is not None else DEFAULT_MASTER_SEED
    return get_grid(args.grid).tasks(master_seed=master_seed)


#: Store-spec schemes that older command lines may still pass: refused, so
#: that ``--store sqlite:grid.db`` fails instead of creating a directory of
#: that name.
_RETIRED_STORE_SCHEMES = ("file", "sqlite", "memory")


def _open_store(spec: str, *, must_exist: bool = False):
    """The :class:`ArtifactStore` at directory ``spec``; creates nothing.

    A path that exists but is not a directory, a path below a regular file,
    or a retired ``scheme:`` spec, is an attributed error; so is a missing
    directory when ``must_exist`` (``campaign diff`` would otherwise compare
    empty stores).
    """
    from repro.campaigns import ArtifactStore

    scheme, sep, _ = spec.partition(":")
    if sep and scheme in _RETIRED_STORE_SCHEMES:
        raise InvalidParameterError(
            f"store {spec!r}: the {scheme}: scheme is gone; a store is a directory path"
        )
    store = ArtifactStore(spec)
    # The nearest existing path decides: `run` would otherwise compute a
    # task and then fail creating the directories to save it in.
    existing = next((path for path in (store.root, *store.root.parents) if path.exists()), None)
    if existing is not None and not existing.is_dir():
        where = "" if existing == store.root else f" ({str(existing)!r} is a file)"
        raise InvalidParameterError(f"store {spec!r} is not a directory{where}")
    if must_exist and not store.root.exists():
        raise InvalidParameterError(f"store {spec!r} does not exist: no directory")
    return store


def _cmd_campaign(args: argparse.Namespace, out) -> int:
    from repro.analysis.reporting import render_report
    from repro.campaigns import (
        aggregate_tables,
        available_grids,
        diff_stores,
        export_csv,
        run_campaign,
        summary_table,
    )

    if args.campaign_command == "list":
        if args.grid is None:
            for name, description in available_grids().items():
                print(f"{name}: {description}", file=out)
            return 0
        for task in _campaign_tasks(args):
            print(f"{task.label} [{task.key()}]", file=out)
        return 0

    if args.campaign_command == "diff":
        store_a = _open_store(args.store_a, must_exist=True)
        store_b = _open_store(args.store_b, must_exist=True)
        lines = diff_stores(store_a, store_b)
        for line in lines:
            print(line, file=out)
        if lines:
            print(f"stores differ: {len(lines)} difference(s)", file=out)
            return 1
        print(f"stores identical: {len(store_a)} artifact(s)", file=out)
        return 0

    store = _open_store(args.store)
    tasks = _campaign_tasks(args)

    if args.campaign_command == "run":
        progress = None if args.quiet else (lambda line: print(line, file=out))
        summary = run_campaign(tasks, store, progress=progress)
        print(summary.describe(), file=out)
        print("", file=out)
        print(summary_table(summary.outcomes).render(), file=out)
        print("", file=out)
    else:  # report
        missing = [task.label for task in tasks if not store.has(task.key())]
        if missing:
            print(
                f"error: {len(missing)} task artifact(s) missing from {args.store} "
                f"(e.g. {missing[0]}); run `repro campaign run --grid {args.grid}` first",
                file=out,
            )
            return 1

    tables = aggregate_tables(store, tasks)
    print(render_report(tables, header=f"# campaign: grid {args.grid!r}"), file=out)
    if args.csv:
        written = export_csv(tables, args.csv)
        print("", file=out)
        for path in written:
            print(f"csv: {path}", file=out)
    return 0


def _cmd_adaptive(args: argparse.Namespace, out) -> int:
    from repro.experiments import run_experiment

    overrides: dict = {
        "num_jobs": args.jobs,
        "num_machines": args.machines,
        "seed": args.seed,
        "window": args.window,
        "cooldown": args.cooldown,
        "epsilon": args.epsilon,
        "ingest": args.ingest,
    }
    if args.scenario:
        overrides["scenarios"] = tuple(args.scenario)
    if args.policy:
        overrides["meta_policies"] = tuple(args.policy)
    if args.candidate:
        overrides["candidates"] = tuple(args.candidate)
    result = run_experiment("E17", **overrides)
    if args.json:
        print(canonical_json(result.raw["summary"]), file=out)
        return 0
    print(result.render(), file=out)
    print("", file=out)
    for entry in result.raw["summary"]:
        verdict = (
            "beats every fixed policy"
            if entry["beats_all_fixed"]
            else "beats the worst fixed policy"
            if entry["beats_worst_fixed"]
            else "does NOT beat the worst fixed policy"
        )
        print(
            f"{entry['scenario']:24s} {entry['policy']:16s}: "
            f"{entry['objective_value']:.1f} vs fixed "
            f"[best {entry['best_fixed']:.1f}, worst {entry['worst_fixed']:.1f}], "
            f"{entry['switches']} switch(es) -- {verdict}",
            file=out,
        )
    return 0


def _cmd_bounds(args: argparse.Namespace, out) -> int:
    print(f"epsilon = {args.epsilon}, alpha = {args.alpha}", file=out)
    print(
        f"Theorem 1 (flow time)         : ratio <= {flow_time_competitive_ratio(args.epsilon):.3f}, "
        f"rejections <= {flow_time_rejection_budget(args.epsilon):.3f} of the jobs",
        file=out,
    )
    print(
        f"Theorem 2 (flow time + energy): ratio <= "
        f"{energy_flow_competitive_ratio(args.epsilon, args.alpha):.3f}, "
        f"rejected weight <= {args.epsilon:.3f} of the total",
        file=out,
    )
    print(
        f"Theorem 3 (energy, deadlines) : ratio <= {energy_min_competitive_ratio(args.alpha):.3f}",
        file=out,
    )
    print(
        f"Lemma 2   (lower bound)       : ratio >= {energy_min_lower_bound(args.alpha):.6f} "
        "for every deterministic algorithm",
        file=out,
    )
    return 0


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`ReproError`: unknown ids, schema-rejected
    parameters, infeasible instances) print ``error: ...`` to ``err``
    (stderr by default, so redirected data output stays clean) and exit 2
    on every subcommand; only genuine bugs escape as tracebacks.  A reader
    that closes stdout early (``repro ... | head``) ends the run with exit
    status 1 and no traceback; an interrupt (Ctrl-C) prints
    ``error: interrupted`` and exits 130, the shell's code for SIGINT.
    ``serve --listen`` handles SIGINT itself and drains its sessions.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        code = _main(list(sys.argv[1:] if argv is None else argv), out, err)
        out.flush()
    except KeyboardInterrupt:
        print("error: interrupted", file=err)
        return 130
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; with fd 1 on devnull
        # that flush cannot raise (and print) a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(raw_argv: list[str], out, err) -> int:
    args = build_parser().parse_args(raw_argv)
    try:
        if args.command == "experiments":
            return _cmd_experiments(args, out)
        if args.command == "solve":
            return _cmd_solve(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "loadgen":
            return _cmd_loadgen(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "campaign":
            return _cmd_campaign(args, out)
        if args.command == "adaptive":
            return _cmd_adaptive(args, out)
        return _cmd_bounds(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=err)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
