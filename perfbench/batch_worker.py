"""Batch process under test: read a trace, solve it, encode the outcome row.

One pass is what a ``repro solve`` user waits for: ``trace_instance`` on the
trace file, ``repro.solve(instance, ALGORITHM, epsilon=EPS)`` on the default
dispatch path, and ``canonical_json`` of the outcome row.  The worker makes
``PASSES`` passes, timing wall and CPU seconds of each, with a host-speed
bracket (``hostspeed.calibrate``) before the first pass and after each.

With ``--trace 1`` every second pass is a traced pass: the same calls split
into the public functions they are made of (``read_trace_chunks``,
``chunks_to_instance``, ``make_policy``, ``engine.stepper`` + ``offer_many``,
``drain``, ``finish``, ``outcome_from_result``, ``canonical_json``), each
inside a span, with the policy's ``on_arrival`` wrapped in a span per call
and a counting decision observer on the stepper.

Output checks run outside every timed span: each pass's outcome must pass
``validate_result`` and ``assert_rejection_budget``.  The last stdout line
is one JSON object with the samples, the outcome rows (which the caller
compares with a ``dispatch="scan"`` solve), counters and check failures.

Usage: python perfbench/batch_worker.py WORKLOAD TRACE PASSES TRACE_FLAG TRACE_ID SPANS_OUT
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import repro
from repro.exceptions import ScheduleValidationError
from repro.simulation import FlowTimeEngine
from repro.simulation.validation import assert_rejection_budget, validate_result
from repro.solvers import get_solver, make_policy, outcome_from_result
from repro.utils.serialization import canonical_json
from repro.workloads.traces import chunks_to_instance, read_trace_chunks, trace_instance

from benchspec import WORKLOADS
from hostspeed import calibrate
from spantrace import Tracer, layer_table

EVENT_KINDS = ("dispatch", "start", "complete", "reject")


def plain_pass(path: Path, spec):
    instance = trace_instance(path)
    outcome = repro.solve(instance, spec.algorithm, epsilon=spec.epsilon)
    return outcome, canonical_json(outcome.as_row())


def traced_pass(path: Path, spec, tracer: Tracer, counters: Counter):
    solver = get_solver(spec.algorithm)
    params = solver.validate_params({"epsilon": spec.epsilon})
    events: Counter = Counter()

    def observe(event) -> None:
        events[event.kind] += 1

    with tracer.span("pass"):
        with tracer.span("workloads.read"):
            chunks = list(read_trace_chunks(path))
        with tracer.span("workloads.build"):
            instance = chunks_to_instance(chunks, name=path.name)
        with tracer.span("solvers.policy"):
            policy = make_policy(spec.algorithm, **params)
        policy.on_arrival = tracer.wrap(policy.on_arrival, "core.arrival")
        with tracer.span("simulation.offer"):
            stepper = FlowTimeEngine(instance).stepper(policy, observe)
            stepper.offer_many(instance.jobs)
        with tracer.span("simulation.drain"):
            stepper.drain()
        with tracer.span("simulation.finish"):
            result = stepper.finish()
        with tracer.span("solvers.outcome"):
            outcome = outcome_from_result(solver, params, result, policy=policy)
        with tracer.span("utils.encode"):
            row = canonical_json(outcome.as_row())

    diagnostics = policy.diagnostics()
    counters["workloads.rows"] += sum(len(chunk) for chunk in chunks)
    counters["workloads.bytes"] += path.stat().st_size
    counters["utils.encode_bytes"] += len(row.encode())
    counters["simulation.events"] += sum(events.values())
    for kind in EVENT_KINDS:
        counters[f"simulation.events.{kind}"] += events[kind]
    for rule in ("rule1", "rule2"):
        counters[f"core.{rule}_rejections"] += diagnostics[f"{rule}_rejections"]
    return outcome, row


def check(outcome, spec) -> "str | None":
    """Schedule checks and Theorem 1's budget (2ε of the jobs) on one outcome;
    the failure, if any."""
    try:
        validate_result(outcome.result)
        assert_rejection_budget(outcome.result, 2.0 * spec.epsilon)
    except ScheduleValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def main(argv: list[str]) -> None:
    workload, trace, passes_arg, trace_flag, trace_id, spans_out = argv
    spec = WORKLOADS[workload]
    path = Path(trace)
    traced_run = trace_flag == "1"
    count = int(passes_arg)
    tracer = Tracer(trace_id)
    counters: Counter = Counter()

    passes: list[dict] = []
    rows: list[str] = []
    errors: list[str] = []
    brackets = [calibrate()]
    for i in range(count):
        traced = traced_run and i % 2 == 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                outcome, row = traced_pass(path, spec, tracer, counters)
            else:
                outcome, row = plain_pass(path, spec)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            errors.append(traceback.format_exc(limit=3))
            passes.append({"traced": traced, "ok": False})
            break
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problem = check(outcome, spec)
        if problem:
            errors.append(problem)
        passes.append({"traced": traced, "ok": problem is None, "wall_s": wall, "cpu_s": cpu})
        rows.append(row)
        del outcome  # before the bracket, whose table then reuses the pass's memory
        brackets.append(calibrate())
    report: dict = {
        "jobs": spec.jobs,
        "passes": passes,
        "rows": rows,
        "brackets_s": brackets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }
    if traced_run:
        traced_passes, table = layer_table(tracer.spans, "pass")
        report["layers"] = table
        report["counters"] = {k: v / max(traced_passes, 1) for k, v in counters.items()}
        tracer.write(Path(spans_out))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
