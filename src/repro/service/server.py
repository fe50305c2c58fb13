"""Asyncio NDJSON server hosting many concurrent scheduler sessions.

``repro serve --listen HOST:PORT`` runs this server: one process, one
:class:`~repro.service.manager.SessionManager`, many TCP client connections
speaking the versioned control protocol of :mod:`repro.service.protocol`.
Sessions are server-global (named, manager-owned), so they survive client
disconnects and can be listed and snapshotted; a snapshot the client keeps
can be ``restore``d on this or another server instance.  Every line a client
sends is a control message; job rows travel in ``submit`` ops.

Flow control happens at two layers: the per-session bounded offer queue
(the manager refuses over-limit submissions with a ``throttled`` line) and
TCP itself (every response line is written through ``drain()``, so a client
that stops reading stalls its own connection, not the server).

Shutdown semantics (the contract the CLI exit code reports):

* SIGINT/SIGTERM (or a client ``shutdown`` op) stop accepting connections,
  close the open ones, then **drain** every still-open session — each is
  finalized and its ``final`` summary line is flushed to the server's own
  output stream;
* the exit code is ``0`` only when every session had been cleanly closed by
  its client before shutdown; a session that was still open (abandoned, e.g.
  its client was killed mid-stream) or whose finalize failed makes the exit
  code ``1`` — the sessions were *unclean* even though their summaries were
  flushed.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from typing import Any, Mapping

from repro.exceptions import ReproError, ServiceError
from repro.service.manager import DEFAULT_MAX_PENDING, SessionManager
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Request,
    decision_line,
    error_line,
    final_line,
    parse_request,
    response_line,
)
from repro.service.session import streaming_algorithms

__all__ = ["ServiceServer", "ServerHandle", "start_server_thread", "MAX_LINE_BYTES"]

#: Per-line read limit.  Restore ops carry whole op-log snapshots, which can
#: be orders of magnitude larger than job or control lines.
MAX_LINE_BYTES = 32 * 1024 * 1024


class ServiceServer:
    """One asyncio TCP server multiplexing sessions of one manager."""

    def __init__(
        self,
        manager: "SessionManager | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        out=None,
    ) -> None:
        self.manager = manager if manager is not None else SessionManager()
        self.requested_host = host
        self.requested_port = port
        self.out = out if out is not None else sys.stdout
        self.address: "tuple[str, int] | None" = None
        self._shutdown = asyncio.Event()
        self._shutdown_reason: "str | None" = None
        self._server: "asyncio.AbstractServer | None" = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.exit_code: "int | None" = None

    # -- lifecycle -----------------------------------------------------------------

    def request_shutdown(self, reason: str = "signal") -> None:
        """Initiate a drain-and-exit (idempotent; safe from signal handlers)."""
        if not self._shutdown.is_set():
            self._shutdown_reason = reason
            self._shutdown.set()

    async def run(
        self,
        *,
        ready: "threading.Event | None" = None,
        install_signal_handlers: bool = True,
    ) -> int:
        """Serve until shutdown is requested; return the process exit code."""
        self._server = await asyncio.start_server(
            self._handle_client,
            self.requested_host,
            self.requested_port,
            limit=MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, self.request_shutdown, sig.name)
        self._print(
            response_line(
                "listening",
                host=self.address[0],
                port=self.address[1],
                protocol=PROTOCOL_VERSION,
            )
        )
        if ready is not None:
            ready.set()
        await self._shutdown.wait()

        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        # Let closed connections unwind before draining the sessions.
        await asyncio.sleep(0)
        self.exit_code = self._drain_and_flush()
        return self.exit_code

    def _drain_and_flush(self) -> int:
        """Drain open sessions, flush their summaries, compute the exit code."""
        abandoned = self.manager.open_sessions()
        for name, row, error in self.manager.drain():
            if error is not None:
                self._print(error_line(error, session=name, code="finalize-failed"))
            else:
                self._print(final_line(row, session=name))
        failed = self.manager.unclean_sessions()
        self._print(
            response_line(
                "shutdown",
                reason=self._shutdown_reason or "requested",
                drained=len(abandoned),
                unclean=sorted(set(abandoned) | set(failed)),
            )
        )
        return 1 if abandoned or failed else 0

    def _print(self, line: str) -> None:
        print(line, file=self.out)
        try:
            self.out.flush()
        except (AttributeError, ValueError):
            pass

    # -- connection handling -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            lineno = 0
            while not self._shutdown.is_set():
                try:
                    raw = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send(writer, [error_line("line too long", code="protocol")])
                    break
                if not raw:
                    break
                lineno += 1
                line = raw.decode("utf-8", errors="replace").strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    request = parse_request(line, lineno)
                except ReproError as exc:
                    await self._send(writer, [error_line(str(exc), code="protocol")])
                    continue
                await self._send(writer, self._dispatch(request))
                if request.op == "shutdown":
                    self.request_shutdown("shutdown-op")
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, lines: list[str]) -> None:
        writer.write(("\n".join(lines) + "\n").encode("utf-8"))
        # TCP-level backpressure: a client that stops reading stalls here
        # instead of growing the server's write buffer.
        await writer.drain()

    # -- request dispatch ----------------------------------------------------------

    def _dispatch(self, request: Request) -> list[str]:
        """One control message -> its response lines (terminator last)."""
        op, name, payload = request.op, request.session, request.payload
        try:
            if op == "hello":
                return [
                    response_line(
                        "hello",
                        protocol=PROTOCOL_VERSION,
                        algorithms=streaming_algorithms(),
                        sessions=len(self.manager),
                    )
                ]
            if op == "sessions":
                return [response_line("sessions", sessions=self.manager.sessions())]
            if op in ("create", "restore"):
                if op == "create":
                    # parse_request admits only the create options.
                    hosted = self.manager.create(name, **payload)
                    restored = {}
                else:
                    hosted = self.manager.restore(name, payload["snapshot"])
                    restored = {"restored": True, "submitted": hosted.session.num_submitted}
                return [
                    response_line(
                        "created",
                        name,
                        algorithm=hosted.session.algorithm,
                        dispatch=hosted.session.dispatch,
                        max_pending=hosted.max_pending,
                        **restored,
                    )
                ]
            if op == "submit":
                outcome = self.manager.submit(name, request.jobs)
                kind = "accepted" if outcome.accepted else "throttled"
                return [
                    response_line(
                        kind,
                        name,
                        count=outcome.count,
                        pending=outcome.pending,
                        max_pending=outcome.max_pending,
                    )
                ]
            if op == "stats":
                return [response_line("stats", name, stats=self.manager.stats(name))]
            if op == "poll":
                events = self.manager.poll(name)
                lines = [decision_line(event, name) for event in events]
                lines.append(
                    response_line(
                        "polled",
                        name,
                        count=len(events),
                        time=self.manager.get(name).session.time,
                    )
                )
                return lines
            if op == "advance":
                events = self.manager.advance(name, payload["t"])
                lines = [decision_line(event, name) for event in events]
                lines.append(
                    response_line(
                        "advanced",
                        name,
                        count=len(events),
                        time=self.manager.get(name).session.time,
                    )
                )
                return lines
            if op == "snapshot":
                snapshot = self.manager.snapshot(name)
                return [response_line("snapshot", name, snapshot=snapshot)]
            if op == "close":
                row, events = self.manager.close(name)
                lines = [decision_line(event, name) for event in events]
                lines.append(final_line(row, name))
                return lines
            if op == "shutdown":
                return [
                    response_line(
                        "shutdown",
                        reason="shutdown-op",
                        drained=0,
                        unclean=self.manager.open_sessions(),
                    )
                ]
        except ReproError as exc:
            return [error_line(str(exc), session=name, code="session")]
        except Exception as exc:  # noqa: BLE001 - one bad request must not kill the server
            return [error_line(f"internal error: {exc}", session=name, code="internal")]
        return [error_line(f"unhandled op {op!r}", code="internal")]


# --------------------------------------------------------------------------------------
# Thread-hosted loopback server (tests, loadgen --self-host, E15)
# --------------------------------------------------------------------------------------


class ServerHandle:
    """A server running on its own thread + event loop, stoppable from outside."""

    def __init__(
        self, server: ServiceServer, thread: threading.Thread, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self, timeout: float = 30.0) -> int:
        """Request shutdown, join the thread, return the server exit code."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown, "handle-stop")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServiceError("server thread did not stop within the timeout")
        return self.server.exit_code if self.server.exit_code is not None else 0

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    manager: "SessionManager | None" = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    out=None,
    defaults: "Mapping[str, Any] | None" = None,
    max_pending: int = DEFAULT_MAX_PENDING,
) -> ServerHandle:
    """Start a loopback server on a background thread and wait until it listens.

    ``defaults`` and ``max_pending`` build the manager when one is not
    supplied.  The returned handle is a context manager; leaving the block
    drains and stops the server.
    """
    if manager is None:
        manager = SessionManager(defaults=defaults, max_pending=max_pending)
    if out is None:
        import io

        out = io.StringIO()
    server = ServiceServer(manager, host=host, port=port, out=out)
    ready = threading.Event()
    loop = asyncio.new_event_loop()

    def _main() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(
                server.run(ready=ready, install_signal_handlers=False)
            )
        finally:
            loop.close()
            ready.set()

    thread = threading.Thread(target=_main, name="repro-service", daemon=True)
    thread.start()
    ready.wait(30.0)
    if server.address is None:
        raise ServiceError("service server failed to start (no listen address)")
    return ServerHandle(server, thread, loop)
