"""The debug hub: compile once, debug many — and the hgdb debugging
protocol (paper Sec. 3.5).

Debugger tools reach the runtime over an RPC protocol "similar to gdb
remote protocol"; this server is that protocol, and the only remote-debug
transport in the package (the original uses WebSockets; the protocol
*content* is what matters).

:class:`DebugHub` elaborates, lints, and compiles one design and then
multiplexes any number of concurrent debug sessions over the hot
:class:`~repro.sim.compiler.CompiledDesign`.  The expensive work — the
lint gate, code generation, cone analysis, symbol table extraction —
happens exactly once at hub startup; attaching a session only allocates a
fresh value store and runtime, which is why the Nth engineer's
time-to-first-breakpoint is dominated by their breakpoint, not by the
compiler (``benchmarks/bench_hub.py``).

Transport: newline-delimited JSON over TCP, framed with the same
``__type__``-tagged codec as the shard event wire and the symbol table
RPC (:mod:`repro.shard.wire`) — one request object per line, one
response per line, matched by ``id``.  A line over
:data:`MAX_REQUEST_LINE` bytes is answered with one error, with a null
``id``, and ends its connection::

    -> {"id": 1, "method": "attach", "params": {"seed": 7}}
    <- {"id": 1, "result": {"sid": 1, "kind": "live", ...}}
    -> {"id": 2, "method": "s.run", "params": {"cycles": 500}}
    <- {"id": 2, "result": {"reason": "breakpoint", "time": 12, ...}}

``s.*`` methods address the session bound to the connection (one
``attach`` per connection; re-attach to a surviving session by ``sid``).
Hub-level methods: ``hello``, ``attach``, ``detach``, ``list_sessions``.

Each connection has its own thread, which reads a line, dispatches it and
writes the reply with blocking calls, so a session blocked at a
breakpoint stalls only its own connection.  A stop ships each frame as
its breakpoint id and leaf values; a client fetches each breakpoint's
frame plan once (``s.frame_plan``), and ``attach`` carries the client's
``PROTOCOL_VERSION``, which must be the hub's.  A timer thread evicts
sessions idle past ``idle_ttl`` (the design stays hot).
"""

from __future__ import annotations

import contextlib
import dataclasses
import socket
import socketserver
import threading
import time

from ..obs import make_obs
from ..shard.wire import decode_message, encode_line
from ..sim.engine import SessionOptions, compile_gated
from ..symtable.writer import symbol_table
from .api import PROTOCOL_VERSION
from .session import DebugSession

#: The longest request line the hub reads, newline included.  Real
#: requests are under 1 KiB.  A longer line is answered with one
#: ``HubError`` and ends its connection, so a peer that never sends a
#: newline cannot grow the hub's memory.
MAX_REQUEST_LINE = 1 << 20


class HubError(Exception):
    """Raised on hub-level failures (bad attach, unknown method...)."""


class DebugHub:
    """Serve one compiled design to many concurrent debug sessions.

    Args:
        design: a compiled :class:`repro.Design` (``repro.compile(...)``) —
            the hub needs its debug info to build the symbol table.
        options: default :class:`SessionOptions` for every session this
            hub creates.  ``options.strict`` also configures the hub's
            compile-time lint gate, which — unlike a standalone
            ``Simulator`` — defaults to ``"error"``: a design served to
            many engineers should not compile with known-broken constructs.
        host/port: bind address (port 0 picks a free port).
        idle_ttl: evict sessions idle longer than this many seconds
            (None disables eviction).
        obs: hub-side observability (``repro.obs``): sessions-active
            gauge, attach count/latency, per-session cycle counter.
            Sessions take theirs from ``options.obs``.
    """

    def __init__(
        self,
        design,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_ttl: float | None = None,
        obs=None,
        options: SessionOptions | None = None,
    ):
        if options is None:
            options = SessionOptions()
        low = getattr(design, "low", None)
        if low is None:
            raise HubError(
                "DebugHub needs a compiled repro.Design (repro.compile(...))"
            )
        self.design_name = design.name
        self.circuit = low
        self.host = host
        self.port = port
        self.idle_ttl = idle_ttl
        self.obs = make_obs(obs, proc="hub")
        # Serving a design to many engineers: lint it like a release
        # artifact.  strict=None (the SessionOptions default) hardens to
        # "error" here; an explicit strict (e.g. "warn", "off") wins.
        strict = options.strict if options.strict is not None else "error"
        self.compiled = compile_gated(
            self.circuit, None, strict, self.obs, span="hub.compile"
        )
        # Sessions must not re-gate what the hub just vetted (and their
        # simulators reuse `compiled` anyway, which skips the gate).
        self.options = dataclasses.replace(options, strict="off")
        # One symbol table, built in memory: read-only plain Python, so
        # every session thread shares this one object.
        self.symtable = symbol_table(design)

        self._sessions: dict[int, DebugSession] = {}
        self._next_sid = 1
        self._lock = threading.Lock()
        self._server: socketserver.TCPServer | None = None
        self._threads: list[threading.Thread] = []  # accept loop, evictor
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._closing = threading.Event()
        if self.obs.metrics is not None:
            self._m_active = self.obs.metrics.gauge(
                "hub_sessions_active", "debug sessions currently attached"
            )
            self._m_attaches = self.obs.metrics.counter(
                "hub_attaches_total", "sessions attached over the hub lifetime"
            )
            self._m_attach_s = self.obs.metrics.histogram(
                "hub_attach_seconds", "session construction latency"
            )
            self._m_requests = self.obs.metrics.counter(
                "hub_requests_total", "wire requests served"
            )
        else:
            self._m_active = self._m_attaches = None
            self._m_attach_s = self._m_requests = None

    # -- session management ------------------------------------------------

    def attach(self, seed: int | None = None, name: str | None = None,
               snapshots: int | None = None) -> DebugSession:
        """Create (and register) one new session over the hot design."""
        t0 = time.monotonic()
        options = self.options
        if snapshots is not None:
            options = dataclasses.replace(options, snapshots=int(snapshots))
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        session = DebugSession(
            sid,
            self.circuit,
            self.compiled,
            self.symtable,
            options,
            seed=seed,
            name=name,
            obs=self.obs,
        )
        with self._lock:
            closing = self._closing.is_set()
            if not closing:
                self._sessions[sid] = session
        if closing:
            session.close()
            raise HubError("the hub is closing")
        if self._m_attaches is not None:
            self._m_attaches.inc()
            self._m_attach_s.observe(time.monotonic() - t0)
            self._m_active.set(len(self._sessions))
        return session

    def get_session(self, sid: int) -> DebugSession:
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise HubError(f"no session {sid}")
        return session

    def detach(self, sid: int) -> bool:
        """Close and drop one session.  Idempotent."""
        with self._lock:
            session = self._sessions.pop(sid, None)
        if session is None:
            return False
        session.close()
        if self._m_active is not None:
            self._m_active.set(len(self._sessions))
        return True

    def list_sessions(self) -> list[dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {
                "sid": s.sid,
                "name": s.name,
                "state": s.state,
                "seed": s.seed,
                "time": s.session.get_time(),
                "idle_for": round(s.idle_for, 3),
                "cycles_run": s.cycles_run,
            }
            for s in sessions
        ]

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def evict_idle(self, ttl: float | None = None) -> list[int]:
        """Drop every session idle longer than ``ttl`` (defaults to the
        hub's ``idle_ttl``).  Running sessions are never evicted — a long
        ``run`` keeps a session busy, not idle.  Returns evicted sids."""
        ttl = self.idle_ttl if ttl is None else ttl
        if ttl is None:
            return []
        with self._lock:
            stale = [
                s.sid
                for s in self._sessions.values()
                if s.idle_for > ttl and s.state != "running"
            ]
        return [sid for sid in stale if self.detach(sid)]

    # -- wire protocol -----------------------------------------------------

    def _handle_request(self, bound: list, method: str, params: dict):
        """Serve one request.  ``bound`` is the connection's one-element
        session-binding cell."""
        if self._m_requests is not None:
            self._m_requests.inc()
        if method == "hello":
            return {
                "protocol": PROTOCOL_VERSION,
                "design": self.design_name,
                "top": self.compiled.hierarchy.path,
                "sessions": self.session_count,
            }
        if method == "attach":
            protocol = params.pop("protocol", None)
            if protocol != PROTOCOL_VERSION:
                raise HubError(
                    f"client speaks hub protocol {protocol}, this hub "
                    f"{PROTOCOL_VERSION}: upgrade the older side"
                )
            sid = params.pop("sid", None)
            if sid is not None:
                session = self.get_session(int(sid))
            else:
                session = self.attach(**params)
            bound[0] = session
            out = session.invoke("describe", {})
            out.update(sid=session.sid, name=session.name)
            return out
        if method == "detach":
            session, bound[0] = bound[0], None
            if session is None:
                return {"detached": False}
            return {"detached": self.detach(session.sid)}
        if method == "list_sessions":
            return self.list_sessions()
        if method.startswith("s."):
            session = bound[0]
            if session is None:
                raise HubError("no session bound; send attach first")
            return session.invoke(method[2:], params)
        raise HubError(f"unknown hub method {method!r}")

    def _reply(self, bound: list, line: bytes) -> bytes:
        # Reset per line: a line that does not decode is answered with a
        # null id, never with the previous request's.
        req_id = None
        try:
            if len(line) > MAX_REQUEST_LINE:
                raise HubError(f"request line over {MAX_REQUEST_LINE} bytes")
            req = decode_message(line)
            if not isinstance(req, dict):
                raise HubError("request must be a JSON object")
            req_id = req.get("id")
            result = self._handle_request(
                bound, req.get("method", ""), req.get("params") or {}
            )
            return encode_line({"id": req_id, "result": result})
        except Exception as exc:  # noqa: BLE001 - wire boundary
            return encode_line(
                {"id": req_id, "error": f"{exc}", "kind": type(exc).__name__}
            )

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection's thread: read a line, dispatch it, write the
        reply, until the peer or :meth:`close` ends the stream."""
        bound: list = [None]  # the connection's attached session
        try:
            with conn.makefile("rb") as lines:
                while line := lines.readline(MAX_REQUEST_LINE + 1):
                    conn.sendall(self._reply(bound, line))
                    if len(line) > MAX_REQUEST_LINE:
                        break  # the rest of the line is never read
        except OSError:
            pass  # the peer went away, or close() shut the socket
        finally:
            # The session survives a dropped connection (re-attach by
            # sid); the idle sweeper reaps it if nobody comes back.
            with self._lock:
                self._conns.pop(conn, None)
            conn.close()

    def _open(self, conn: socket.socket) -> None:
        """Start serving an accepted connection on its own thread."""
        thread = threading.Thread(
            target=self._serve_connection, args=(conn,), daemon=True
        )
        with self._lock:
            if self._closing.is_set():
                conn.close()
                return
            self._conns[conn] = thread
        thread.start()

    def _evict_loop(self) -> None:
        while not self._closing.wait(max(0.05, self.idle_ttl / 4)):
            self.evict_idle()

    def serve_background(self) -> tuple[str, int]:
        """Bind and serve on background threads — an accept loop, one
        thread per connection and, with ``idle_ttl``, an eviction timer —
        and return the bound address.  This is how the CLI, tests,
        benchmarks, and in-process tools host a hub."""
        hub = self

        class Listener(socketserver.TCPServer):
            allow_reuse_address = True
            # socketserver's default backlog of 5 stalls a burst of
            # connects for a TCP retry (~1 s) each.
            request_queue_size = 128

            def process_request(self, conn, _address) -> None:
                hub._open(conn)

        self._server = Listener((self.host, self.port), None)
        self.port = self._server.server_address[1]
        loops = [lambda: self._server.serve_forever(poll_interval=0.05)]
        if self.idle_ttl is not None:
            loops.append(self._evict_loop)
        for loop in loops:
            thread = threading.Thread(target=loop, daemon=True, name="repro-hub")
            thread.start()
            self._threads.append(thread)
        return (self.host, self.port)

    def close(self) -> None:
        """Stop serving: shut the listener and every connection, close
        every session (aborting any run in flight), and join the hub's
        threads."""
        with self._lock:
            if self._closing.is_set():
                return
            self._closing.set()
            conns = list(self._conns.items())
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for conn, _thread in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        with self._lock:
            sids = list(self._sessions)
        for sid in sids:
            self.detach(sid)
        deadline = time.monotonic() + 10
        for thread in [*self._threads, *(t for _c, t in conns)]:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> DebugHub:
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
