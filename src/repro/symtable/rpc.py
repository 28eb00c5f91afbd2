"""RPC access to a symbol table (paper Fig. 1: "Native | RPC").

HGFs that maintain their own symbol tables serve them over RPC instead of
handing hgdb a SQLite file; "since the simulator is paused whenever hgdb
interacts with the symbol table ... the symbol table performance is less
important compared to the simulator interface" (Sec. 3.4).
hgdb-py no longer queries the table on every hit (``repro.core.frames``).

The wire format is JSON-lines over TCP: one request object per line,
one response per line.  (The original uses WebSockets; the framing is
irrelevant to the protocol content — see DESIGN.md substitutions.)
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import threading
import time

from .query import BreakpointRec, InstanceRec, SymbolTableInterface, VarRec

_METHODS = frozenset(
    {
        "breakpoints_at",
        "scope_variables",
        "resolve_scoped_var",
        "resolve_instance_var",
        "instances",
        "generator_variables",
        "all_breakpoints",
        "breakpoint",
        "filenames",
        "breakpoint_lines",
        "attribute",
    }
)


#: The longest request line the server reads, newline included.  Real
#: requests are under 1 KiB.  A longer line is answered with one error,
#: with a null id, and ends its connection, so a peer that never sends a
#: newline cannot grow the server's memory.
MAX_REQUEST_LINE = 1 << 20

_RECORD_TYPES = (BreakpointRec, InstanceRec, VarRec)
_RECORDS = {cls.__name__: cls for cls in _RECORD_TYPES}


def _tag(obj) -> dict:
    """A record as a JSON object: its fields, then ``__type__``.  The
    shard and hub wires pass this to ``json.dumps`` as ``default``."""
    if not isinstance(obj, _RECORD_TYPES):
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )
    d = {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    d["__type__"] = type(obj).__name__
    return d


def _untag(obj: dict):
    """Rebuild a tagged record; other dicts pass through.  A bad tag
    raises ``ValueError``.  The shard and hub wires pass this to
    ``json.loads`` as ``object_hook``."""
    if "__type__" not in obj:
        return obj
    kind = obj.pop("__type__")
    cls = _RECORDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown record tag {kind!r}")
    try:
        return cls(**obj)
    except TypeError as exc:
        raise ValueError(f"malformed {kind} record: {exc}") from exc


def _encode(obj):
    if isinstance(obj, _RECORD_TYPES):
        return _tag(obj)
    if isinstance(obj, list):
        return [_encode(x) for x in obj]
    return obj


def _decode(obj):
    if isinstance(obj, list):
        return [_decode(x) for x in obj]
    if isinstance(obj, dict):
        return _untag(obj)
    return obj


class SymbolTableServer:
    """Serve a symbol table over TCP JSON-lines.

    ``faults`` (settable any time, e.g. by a chaos test) is an optional
    :class:`repro.faults.RPCFaultInjector`: when armed, a response may be
    *delayed* (past a client's per-request timeout) or *dropped*
    (connection closed unanswered).  Every query is read-only, so a
    client that times out, reconnects, and re-sends the same request gets
    the same answer — which is exactly what the hardened
    :class:`RPCSymbolTable` does.
    """

    def __init__(self, table: SymbolTableInterface, host: str = "127.0.0.1",
                 port: int = 0, faults=None):
        self.table = table
        self.faults = faults
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while line := self.rfile.readline(MAX_REQUEST_LINE + 1):
                    # A non-JSON line must not kill the handler: parse
                    # failures leave no `req` in scope, so the request id
                    # defaults to null and the client gets a proper error
                    # response instead of a dropped connection.
                    req_id = None
                    try:
                        if len(line) > MAX_REQUEST_LINE:
                            raise ValueError(
                                f"request line over {MAX_REQUEST_LINE} bytes"
                            )
                        req = json.loads(line)
                        if not isinstance(req, dict):
                            raise ValueError("request must be a JSON object")
                        req_id = req.get("id")
                        method = req.get("method")
                        params = req.get("params", [])
                        if method not in _METHODS:
                            raise ValueError(f"unknown method {method!r}")
                        result = getattr(outer.table, method)(*params)
                        resp = {"id": req_id, "result": _encode(result)}
                    except Exception as exc:  # noqa: BLE001 - protocol boundary
                        resp = {
                            "id": req_id,
                            "error": str(exc) or type(exc).__name__,
                        }
                    injector = outer.faults
                    if injector is not None:
                        fault = injector.decide()
                        if fault is not None:
                            kind, delay_s = fault
                            if kind == "drop":
                                # Close the connection unanswered; the
                                # request already executed (read-only, so
                                # a client-side replay is safe).
                                return
                            time.sleep(delay_s)
                    self.wfile.write(json.dumps(resp).encode() + b"\n")
                    self.wfile.flush()
                    if len(line) > MAX_REQUEST_LINE:
                        return  # the rest of the line is never read

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True
            # socketserver's default backlog of 5 stalls a burst of
            # connects for a TCP retry (~1 s) each.
            request_queue_size = 128

        self._server = Server((host, port), Handler)
        self.address = self._server.server_address
        # socketserver polls for shutdown every 0.5 s by default, so each
        # stop() would wait up to that long; poll as the debug hub does.
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class RPCSymbolTable(SymbolTableInterface):
    """Client-side symbol table speaking the JSON-lines protocol.

    Hardened for flaky transports: every request is bounded by a
    per-request socket ``timeout``, and a transport failure — timed-out
    or dropped response, closed connection, undecodable line — triggers
    a bounded reconnect-with-backoff and a replay of the request (every
    method is a read-only query, so replays are safe).  Protocol-level
    failures (server-reported errors, response id mismatches) are never
    retried: they are deterministic, not transient.

    ``obs`` (a ``repro.obs.Obs``, or None) arms request accounting:
    request count and latency, reconnect attempts, and replayed
    requests.  Shard workers pass their per-shard ``Obs`` so RPC health
    is attributable per shard in the aggregated report.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_reconnects: int = 3, reconnect_backoff_s: float = 0.05,
                 obs=None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_reconnects = max_reconnects
        self._reconnect_backoff_s = reconnect_backoff_s
        self._lock = threading.Lock()
        self._next_id = 1
        self._closed = False
        # Metric instruments are resolved once here; _call guards on a
        # single attribute so the unobserved path stays flat.
        self._m_requests = self._m_reconnects = self._m_replays = None
        self._h_latency = None
        if obs is not None and obs.metrics is not None:
            m = obs.metrics
            self._m_requests = m.counter(
                "rpc_requests_total", "Symbol-table RPC requests completed"
            )
            self._m_reconnects = m.counter(
                "rpc_reconnects_total", "RPC reconnect attempts after transport failures"
            )
            self._m_replays = m.counter(
                "rpc_replays_total", "Requests replayed on a fresh connection"
            )
            self._h_latency = m.histogram(
                "rpc_request_seconds",
                "Symbol-table RPC request latency (incl. reconnect/replay)",
                bounds=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
            )
        self._connect()

    def _connect(self) -> None:
        # create_connection leaves `timeout` armed on the socket, so it
        # bounds every send/recv — the per-request timeout.
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rwb")

    def _drop_connection(self) -> None:
        with contextlib.suppress(OSError):
            self._file.close()
            self._sock.close()

    def close(self) -> None:
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> RPCSymbolTable:
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _call(self, method: str, *params):
        with self._lock:
            if self._closed:
                raise ConnectionError("symbol table RPC client is closed")
            t0 = time.monotonic() if self._h_latency is not None else 0.0
            last_exc: Exception | None = None
            for attempt in range(self._max_reconnects + 1):
                if attempt:
                    if self._m_reconnects is not None:
                        self._m_reconnects.inc()
                    self._drop_connection()
                    time.sleep(
                        self._reconnect_backoff_s * 2 ** (attempt - 1)
                    )
                    try:
                        self._connect()
                    except OSError as exc:
                        last_exc = exc
                        continue
                    if self._m_replays is not None:
                        self._m_replays.inc()
                req_id = self._next_id
                self._next_id += 1
                msg = {"id": req_id, "method": method, "params": list(params)}
                try:
                    self._file.write(json.dumps(msg).encode() + b"\n")
                    self._file.flush()
                    line = self._file.readline()
                    if not line:
                        raise ConnectionError(
                            "symbol table server closed the connection"
                        )
                    resp = json.loads(line)
                except (ConnectionError, ValueError, OSError) as exc:
                    # Transport trouble (socket.timeout is an OSError):
                    # reconnect and replay.  The dead connection cannot
                    # deliver a stale response later, so replays never
                    # mispair.
                    last_exc = exc
                    continue
                # "error" is checked by presence, not truthiness: an empty
                # error string is still an error, not a None result.
                if "error" in resp:
                    raise RuntimeError(
                        f"symbol table RPC error: {resp['error']}"
                    )
                if resp.get("id") != req_id:
                    # A stale or misrouted response must not be silently
                    # paired with this request — that would corrupt every
                    # later call.  Deterministic server bug: no retry.
                    raise RuntimeError(
                        f"symbol table RPC response id mismatch: "
                        f"sent {req_id}, got {resp.get('id')!r}"
                    )
                if self._h_latency is not None:
                    self._h_latency.observe(time.monotonic() - t0)
                    self._m_requests.inc()
                return _decode(resp.get("result"))
            raise ConnectionError(
                f"symbol table RPC {method!r} failed after "
                f"{self._max_reconnects} reconnect(s): {last_exc}"
            )

    # -- interface methods, all delegated ---------------------------------

    def breakpoints_at(self, filename, line, column=None):
        return self._call("breakpoints_at", filename, line, column)

    def scope_variables(self, breakpoint_id):
        return self._call("scope_variables", breakpoint_id)

    def resolve_scoped_var(self, breakpoint_id, name):
        return self._call("resolve_scoped_var", breakpoint_id, name)

    def resolve_instance_var(self, instance_id, name):
        return self._call("resolve_instance_var", instance_id, name)

    def instances(self):
        return self._call("instances")

    def generator_variables(self, instance_id):
        return self._call("generator_variables", instance_id)

    def all_breakpoints(self):
        return self._call("all_breakpoints")

    def breakpoint(self, breakpoint_id):
        return self._call("breakpoint", breakpoint_id)

    def filenames(self):
        return self._call("filenames")

    def breakpoint_lines(self, filename):
        return self._call("breakpoint_lines", filename)

    def attribute(self, name):
        return self._call("attribute", name)
