"""NDJSON TCP server hosting many concurrent scheduler sessions.

``repro serve --listen HOST:PORT`` runs this server: one process, one
:class:`~repro.service.manager.SessionManager`, many TCP client connections
speaking the versioned control protocol of :mod:`repro.service.protocol`.
Sessions are server-global (named, manager-owned), so they survive client
disconnects and can be listed and snapshotted; a snapshot the client keeps
can be ``restore``d on this or another server instance.  Every line a client
sends is a control message; job rows travel in ``submit`` ops.

One thread runs one :mod:`selectors` loop over non-blocking sockets, not
asyncio: ``import asyncio`` loads ``ssl``, which maps OpenSSL into a server
that speaks plain TCP.  Each connection keeps a receive buffer, scanned for
``\n`` only past where the last scan stopped (a ``restore`` line may be
32 MiB), an output buffer and a line counter.  A line is served when its
``\n`` arrives, or at end of stream if it is the unterminated last one; its
reply lines go out before the next line is served.

Flow control happens at two layers: the per-session bounded offer queue
(the manager refuses over-limit submissions with a ``throttled`` line) and
TCP itself (a connection with reply bytes the kernel has not taken is
neither read nor served until they are sent, so a client that stops reading
stalls its own connection, not the server).

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

import selectors
import signal
import socket
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

#: Bytes asked of one ``recv``.  Not more: glibc maps and unmaps a buffer
#: past 128 KiB on every call, so a 256 KiB ``recv`` of a short line took
#: 13.5 µs against 1.4 µs at 64 KiB (2-vCPU x86-64, Python 3.11).
RECV_BYTES = 64 * 1024


class _Connection:
    """One client socket and its buffers."""

    __slots__ = ("sock", "inbox", "scanned", "outbox", "lineno", "eof")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Received bytes from the start of the line being read.
        self.inbox = bytearray()
        #: ``inbox[:scanned]`` holds no ``\n``.
        self.scanned = 0
        #: Reply bytes the kernel has not taken yet.
        self.outbox = bytearray()
        self.lineno = 0
        #: Nothing more is read: the peer ended its stream, or a line was too
        #: long or asked for shutdown.  The connection closes once drained.
        self.eof = False


class ServiceServer:
    """One TCP server multiplexing sessions of one manager on one thread."""

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
        self._shutdown_reason: "str | None" = None
        #: Write end of the socket pair that wakes the loop's ``select``.
        self._wake: "socket.socket | None" = None
        self.exit_code: "int | None" = None

    # -- lifecycle -----------------------------------------------------------------

    def request_shutdown(self, reason: str = "signal") -> None:
        """Initiate a drain-and-exit (idempotent; safe from signal handlers
        and from other threads).

        Two callers racing here may both set a reason; either is true, and
        the loop wakes either way.
        """
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
            wake = self._wake
            if wake is not None:
                try:
                    wake.send(b"\0")
                except OSError:  # the loop has already stopped
                    pass

    def _on_signal(self, signum: int, frame) -> None:
        self.request_shutdown(signal.Signals(signum).name)

    def run(
        self,
        *,
        ready: "threading.Event | None" = None,
        install_signal_handlers: bool = True,
    ) -> int:
        """Serve until shutdown is requested; return the process exit code.

        An address that does not resolve or cannot be bound raises
        :class:`ServiceError` naming it, before anything is printed.
        """
        previous_handlers = {}
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[sig] = signal.signal(sig, self._on_signal)
        try:
            wake, self._wake = socket.socketpair()
            with wake, self._wake, selectors.DefaultSelector() as selector:
                with self._listen() as listener:
                    try:
                        self._serve(listener, wake, selector, ready)
                    finally:
                        for key in list(selector.get_map().values()):
                            if key.data is not None:
                                self._close(key.data, selector)
                self.exit_code = self._drain_and_flush()
        finally:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
        return self.exit_code

    def _listen(self) -> socket.socket:
        """A listening socket on the first address the requested host resolves to."""
        host, port = self.requested_host, self.requested_port
        try:
            family, _, _, _, address = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
            )[0]
            return socket.create_server(address, family=family)
        except OSError as exc:  # socket.gaierror included
            raise ServiceError(f"cannot listen on {host}:{port}: {exc}") from None

    def _serve(
        self,
        listener: socket.socket,
        wake: socket.socket,
        selector: selectors.BaseSelector,
        ready: "threading.Event | None",
    ) -> None:
        """Print ``listening``, then run the loop until shutdown is requested."""
        for sock in (listener, wake, self._wake):
            sock.setblocking(False)
        selector.register(listener, selectors.EVENT_READ)
        selector.register(wake, selectors.EVENT_READ)
        sockname = listener.getsockname()
        self.address = (sockname[0], sockname[1])
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
        while self._shutdown_reason is None:
            for key, _ in selector.select():
                if key.data is not None:
                    self._on_ready(key.data, selector)
                elif key.fileobj is listener:
                    self._accept(listener, selector)
                else:
                    wake.recv(64)

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

    @staticmethod
    def _accept(listener: socket.socket, selector: selectors.BaseSelector) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # none waiting, or one the kernel dropped; select again
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _on_ready(self, conn: _Connection, selector: selectors.BaseSelector) -> None:
        """Send pending replies or read, serve what became servable, re-arm."""
        try:
            if conn.outbox:
                del conn.outbox[: self._send(conn.sock, conn.outbox)]
            else:
                data = conn.sock.recv(RECV_BYTES)
                if data:
                    conn.inbox += data
                else:
                    conn.eof = True
            if not conn.outbox:
                self._serve_lines(conn)
        except OSError:  # reset or broken pipe: the peer is gone
            self._close(conn, selector)
            return
        if conn.outbox:
            selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        elif conn.eof:
            self._close(conn, selector)
        else:  # a no-op, without a system call, when already reading
            selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _serve_lines(self, conn: _Connection) -> None:
        """Serve complete lines in order until a reply is left unsent."""
        inbox = conn.inbox
        while not conn.outbox and self._shutdown_reason is None:
            end = inbox.find(b"\n", conn.scanned)
            if end < 0:
                conn.scanned = len(inbox)
                if len(inbox) <= MAX_LINE_BYTES and not (conn.eof and inbox):
                    return
                end = len(inbox)  # too long so far, or the unterminated last line
            if end > MAX_LINE_BYTES:
                self._reply(conn, [error_line("line too long", code="protocol")])
                conn.eof = True
                inbox.clear()
                return
            raw = inbox[:end]
            del inbox[: end + 1]
            conn.scanned = 0
            conn.lineno += 1
            line = raw.decode("utf-8", errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            try:
                request = parse_request(line, conn.lineno)
            except ReproError as exc:
                self._reply(conn, [error_line(str(exc), code="protocol")])
                continue
            lines = self._dispatch(request)
            if request.op == "shutdown":  # before the reply, so its client sees the reason set
                self.request_shutdown("shutdown-op")
                conn.eof = True
                inbox.clear()
            self._reply(conn, lines)

    def _reply(self, conn: _Connection, lines: list[str]) -> None:
        data = ("\n".join(lines) + "\n").encode("utf-8")
        conn.outbox += data[self._send(conn.sock, data):]

    @staticmethod
    def _send(sock: socket.socket, data) -> int:
        """Bytes of ``data`` the kernel took now."""
        try:
            return sock.send(data)
        except BlockingIOError:
            return 0

    @staticmethod
    def _close(conn: _Connection, selector: selectors.BaseSelector) -> None:
        selector.unregister(conn.sock)
        conn.sock.close()

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
    """A server running on its own thread, stoppable from outside."""

    def __init__(self, server: ServiceServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self, timeout: float = 30.0) -> int:
        """Request shutdown, join the thread, return the server exit code."""
        self.server.request_shutdown("handle-stop")
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
    drains and stops the server.  A server that cannot listen raises its
    error here, in the caller's thread: ``cannot listen on HOST:PORT: ...``.
    """
    if manager is None:
        manager = SessionManager(defaults=defaults, max_pending=max_pending)
    if out is None:
        import io

        out = io.StringIO()
    server = ServiceServer(manager, host=host, port=port, out=out)
    ready = threading.Event()
    failed: list[ServiceError] = []

    def _main() -> None:
        try:
            server.run(ready=ready, install_signal_handlers=False)
        except ServiceError as exc:  # run raises it only when it cannot listen
            failed.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(target=_main, name="repro-service", daemon=True)
    thread.start()
    ready.wait(30.0)
    if failed:
        raise failed[0]
    if server.address is None:
        raise ServiceError("service server failed to start (no listen address)")
    return ServerHandle(server, thread)
