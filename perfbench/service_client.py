"""Service client process: one ``ServiceClient`` connection, sessions back to back.

Each session creates a named ``rejection-flow`` session on the server, then
repeats one step per chunk of job rows: submit the chunk, poll, and read
until the poll's terminator.  The session ends with ``close`` and its
``final`` row.  Job rows are pre-encoded before the first submit, so a step
costs the client one string concatenation.  A step's round trip runs from
sending its submit until its poll's terminator arrives.

Untraced (``TRACE_FLAG`` 0): ``SESSIONS`` sessions cycle through the input
files, with a host-speed bracket (``hostspeed.calibrate``) before the first
session and after each.  The server's peak RSS is read after ``min_sessions`` sessions, a
fixed amount of work, because the server keeps every closed session.
Traced (1): ``SESSIONS`` sessions alternate untraced and traced on the same
inputs (spans per request, bytes counted each way); then the request lines
of the traced sessions are replayed in this process through
``protocol.parse_request``, ``SessionManager.create/submit/poll/close`` and
``protocol.decision_line``/``final_line``, each inside a span, with the
hosted policy's ``on_arrival`` wrapped as in the batch workload.

The last stdout line is one JSON object with samples, counters and checks.

Usage: python perfbench/service_client.py HOST PORT SERVER_PID SESSIONS TRACE_FLAG
       TRACE_ID SPANS_OUT INPUT...
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.manager import SessionManager
from repro.service.protocol import TERMINATORS, decision_line, final_line, parse_request
from repro.utils.serialization import canonical_json

from benchenv import proc_cpu_s, proc_peak_rss_mb
from benchspec import WORKLOADS
from hostspeed import calibrate
from spantrace import Tracer, layer_table

SPEC = WORKLOADS["tenant-service"]


class Session:
    """One session input: its job rows pre-encoded as JSON arrays per step."""

    def __init__(self, path: Path) -> None:
        rows = [json.loads(line) for line in path.read_text().splitlines() if line]
        self.jobs = len(rows)
        self.chunks = [
            canonical_json(rows[i : i + SPEC.chunk]) for i in range(0, len(rows), SPEC.chunk)
        ]


class Driver:
    """Runs sessions over one connection.

    Every request counts as one attempted operation; the per-layer tally
    (round trips, bytes, decisions) covers the traced sessions only.
    """

    def __init__(self, client: ServiceClient, tracer: Tracer) -> None:
        self.client = client
        self.tracer = tracer
        self.tally: Counter = Counter()
        self.recorded: list[str] = []
        self.traced = False
        self.requests = 0
        self.throttled = 0

    def exchange(self, line: str, op: str) -> dict:
        """Send one request line; read rows until its terminator."""
        self.client.send_line(line)
        self.requests += 1
        if self.traced:
            self.recorded.append(line)
            self.tally["service.round_trips"] += 1
            self.tally["service.bytes_out"] += len(line) + 1
        terminator = TERMINATORS[op]
        while True:
            row = self.client.read_row()
            if self.traced:
                # The server writes canonical JSON, so re-encoding gives its bytes.
                self.tally["service.bytes_in"] += len(canonical_json(row)) + 1
            event = row.get("event")
            if event == "decision":
                if self.traced:
                    self.tally["service.decisions"] += 1
                continue
            if event == terminator or (op == "submit" and event == "throttled"):
                return row
            raise ServiceError(f"{op}: unexpected {event!r} reply: {row.get('error', row)}")

    def run_session(self, name: str, session: Session, rtts: list[float]) -> str:
        """One whole session; returns its final row (canonical JSON)."""
        create = canonical_json({
            "op": "create", "session": name, "algorithm": SPEC.algorithm,
            "machines": SPEC.machines, "params": {"epsilon": SPEC.epsilon}, "v": 1,
        })
        poll = canonical_json({"op": "poll", "session": name, "v": 1})
        close = canonical_json({"op": "close", "session": name, "v": 1})
        head = '{"jobs":'
        tail = ',"op":"submit","session":"%s","v":1}' % name
        with self.span("service.create"):
            self.exchange(create, "create")
        for jobs in session.chunks:
            with self.span("service.step"):
                started = time.perf_counter()
                while self.exchange(head + jobs + tail, "submit")["event"] == "throttled":
                    self.throttled += 1
                    self.exchange(poll, "poll")
                self.exchange(poll, "poll")
                rtts.append(time.perf_counter() - started)
        with self.span("service.close"):
            final = self.exchange(close, "close")
        return canonical_json({k: v for k, v in final.items() if k not in ("event", "session")})

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else nullcontext()


def replay(lines: list[str], tracer: Tracer) -> tuple[list[str], Counter, Counter]:
    """Serve recorded request lines in-process.

    Returns the final lines, the decision events by kind and the policies'
    diagnostics summed over the replayed sessions.
    """
    manager = SessionManager()
    finals: list[str] = []
    events: Counter = Counter()
    rejections: Counter = Counter()
    with tracer.span("replay"):
        for lineno, line in enumerate(lines, 1):
            with tracer.span("service.parse"):
                request = parse_request(line, lineno)
            name, payload = request.session, request.payload
            if request.op == "create":
                with tracer.span("service.create"):
                    hosted = manager.create(
                        name, algorithm=payload["algorithm"], machines=payload["machines"],
                        params=payload["params"],
                    )
                policy = hosted.session.policy
                policy.on_arrival = tracer.wrap(policy.on_arrival, "core.arrival")
            elif request.op == "submit":
                with tracer.span("service.submit"):
                    manager.submit(name, request.jobs)
            elif request.op == "poll":
                with tracer.span("service.poll"):
                    decided = manager.poll(name)
                with tracer.span("service.encode"):
                    for event in decided:
                        decision_line(event, name)
                events.update(event.kind for event in decided)
            elif request.op == "close":
                with tracer.span("service.close"):
                    row, decided = manager.close(name)
                rejections.update(manager.get(name).session.policy.diagnostics())
                with tracer.span("service.encode"):
                    for event in decided:
                        decision_line(event, name)
                    finals.append(final_line(row, name))
                events.update(event.kind for event in decided)
            else:
                raise ServiceError(f"unexpected op {request.op!r} in the recorded lines")
    return finals, events, rejections


def main(argv: list[str]) -> None:
    host, port, server_pid, sessions_arg, trace_flag, trace_id, spans_out, *inputs = argv
    count = int(sessions_arg)
    server_pid_i = int(server_pid)
    traced_run = trace_flag == "1"
    sessions = [Session(Path(path)) for path in inputs]
    tracer = Tracer(trace_id)
    report: dict = {"sessions": [], "errors": [], "brackets_s": [calibrate()]}

    with ServiceClient(host, int(port), timeout=60.0) as client:
        driver = Driver(client, tracer)
        for k in range(count):
            if traced_run:
                index, driver.traced = k // 2, k % 2 == 1
            else:
                index = k % len(sessions)
            name = f"t{k:03d}"
            rtts: list[float] = []
            cpu0, server0, wall0 = time.process_time(), proc_cpu_s(server_pid_i), time.perf_counter()
            try:
                with driver.span("session"):
                    final = driver.run_session(name, sessions[index], rtts)
            except (ServiceError, OSError) as exc:
                report["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
                break
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            server_cpu = proc_cpu_s(server_pid_i) - server0
            report["brackets_s"].append(calibrate())
            report["sessions"].append({
                "input": index,
                "traced": driver.traced,
                "jobs": sessions[index].jobs,
                "wall_s": wall,
                "client_cpu_s": cpu,
                "server_cpu_s": server_cpu,
                "rtts_s": rtts,
                "final": final,
            })
            if k + 1 == SPEC.min_sessions:
                report["peak_rss_mb"] = proc_peak_rss_mb(server_pid_i)
        report.setdefault("peak_rss_mb", proc_peak_rss_mb(server_pid_i))
        report["attempted"] = driver.requests
        report["throttled"] = driver.throttled

    if traced_run:
        finals, events, rejections = replay(driver.recorded, tracer)
        report["brackets_s"].append(calibrate())
        live = [final_line(json.loads(s["final"]), f"t{k:03d}")
                for k, s in enumerate(report["sessions"]) if s["traced"]]
        if finals != live:
            report["errors"].append("in-process replay final rows differ from the live ones")
        _, report["client_layers"] = layer_table(tracer.spans, "session")
        _, report["layers"] = layer_table(tracer.spans, "replay")
        report["counters"] = dict(driver.tally)
        report["replay_events"] = dict(events)
        report["replay_rejections"] = {
            rule: rejections[f"{rule}_rejections"] for rule in ("rule1", "rule2")
        }
        report["replay_jobs"] = sum(s["jobs"] for s in report["sessions"] if s["traced"])
        tracer.write(Path(spans_out))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
