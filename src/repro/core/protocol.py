"""The hgdb debugging protocol (paper Sec. 3.5).

Debugger tools communicate with the runtime over an RPC protocol "similar
to gdb remote protocol".  Ours is JSON-lines over TCP (the original uses
WebSockets; see DESIGN.md substitutions — the protocol *content* is what
matters):

Requests (client -> runtime)::

    {"id": 1, "type": "request", "command": "add_breakpoint",
     "args": {"filename": "fpu.py", "line": 42, "condition": "io.a > 3"}}

Responses mirror the id; events are unsolicited::

    {"type": "event", "event": "stopped", "payload": {...hit group...}}

Control commands (``continue``/``step``/``reverse_step``/
``reverse_continue``/``detach``) are only legal while stopped at a
breakpoint; query commands (``evaluate``, ``info``, breakpoint management)
are legal at any time.
"""

from __future__ import annotations

import contextlib
import json
import queue
import socket
import socketserver
import threading

from .runtime import (
    Command,
    CommandKind,
    DebuggerError,
    HitGroup,
    Runtime,
)

_CONTROL = {
    "continue": CommandKind.CONTINUE,
    "step": CommandKind.STEP,
    "reverse_step": CommandKind.REVERSE_STEP,
    "reverse_continue": CommandKind.REVERSE_CONTINUE,
    "detach": CommandKind.DETACH,
}


def hit_to_payload(hit: HitGroup) -> dict:
    return {
        "time": hit.time,
        "filename": hit.filename,
        "line": hit.line,
        "column": hit.column,
        "frames": [f.to_dict() for f in hit.frames],
    }


class DebugServer:
    """Serves one debugger client over TCP; bridges to a :class:`Runtime`.

    The embedding application still owns the simulation loop; when a
    breakpoint hits, the runtime blocks inside the clock callback while this
    server relays the stop event and waits for the client's next control
    command — the same control flow as a blocking VPI callback.
    """

    def __init__(self, runtime: Runtime, host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        runtime.on_hit = self._on_hit
        self._cmd_queue: queue.Queue[Command] = queue.Queue()
        self._paused = threading.Event()
        self._shutdown = False
        self._client_files: list = []
        self._lock = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                with outer._lock:
                    outer._client_files.append(self.wfile)
                outer._send(
                    self.wfile,
                    {
                        "type": "event",
                        "event": "welcome",
                        "payload": {
                            "top": outer.runtime.symtable.top_name(),
                            "files": outer.runtime.symtable.filenames(),
                            "can_set_time": outer.runtime.sim.can_set_time,
                            "is_replay": outer.runtime.sim.is_replay,
                        },
                    },
                )
                try:
                    for line in self.rfile:
                        outer._handle_request(self.wfile, line)
                finally:
                    with outer._lock:
                        if self.wfile in outer._client_files:
                            outer._client_files.remove(self.wfile)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self.address = self._server.server_address
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._shutdown = True
        if self._paused.is_set():
            self._cmd_queue.put(Command(CommandKind.DETACH))
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    # -- runtime side ----------------------------------------------------------

    def _on_hit(self, hit: HitGroup) -> Command:
        # Order matters: a fast client may send its control command the
        # instant it sees the stopped event, so `paused` must be set first.
        self._paused.set()
        self._broadcast({"type": "event", "event": "stopped", "payload": hit_to_payload(hit)})
        try:
            while True:
                try:
                    cmd = self._cmd_queue.get(timeout=1.0)
                    break
                except queue.Empty:
                    if self._shutdown:
                        cmd = Command(CommandKind.DETACH)
                        break
        finally:
            self._paused.clear()
        self._broadcast({"type": "event", "event": "resumed", "payload": {}})
        return cmd

    def _broadcast(self, msg: dict) -> None:
        with self._lock:
            files = list(self._client_files)
        for f in files:
            with contextlib.suppress(OSError):
                self._send(f, msg)

    @staticmethod
    def _send(f, msg: dict) -> None:
        f.write(json.dumps(msg).encode() + b"\n")
        f.flush()

    # -- request handling -----------------------------------------------------------

    def _handle_request(self, wfile, line: bytes) -> None:
        try:
            req = json.loads(line)
            result = self._dispatch(req.get("command"), req.get("args") or {})
            resp = {"id": req.get("id"), "type": "response", "ok": True, "result": result}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            resp = {
                "id": req.get("id") if isinstance(req, dict) else None,
                "type": "response",
                "ok": False,
                "error": str(exc),
            }
        self._send(wfile, resp)

    def _dispatch(self, command: str, args: dict):
        rt = self.runtime
        if command in _CONTROL:
            if not self._paused.is_set():
                raise DebuggerError(f"{command!r} only valid while stopped")
            self._cmd_queue.put(Command(_CONTROL[command]))
            return {"queued": True}
        if command == "pause":
            rt.request_pause()
            return {"requested": True}
        if command == "add_breakpoint":
            bps = rt.add_breakpoint(
                args["filename"],
                int(args["line"]),
                args.get("column"),
                args.get("condition"),
            )
            return {
                "breakpoints": [
                    {
                        "id": bp.rec.id,
                        "instance": bp.rec.instance_name,
                        "filename": bp.rec.filename,
                        "line": bp.rec.line,
                        "enable": bp.rec.enable_src or bp.rec.enable,
                    }
                    for bp in bps
                ]
            }
        if command == "remove_breakpoint":
            return {"removed": rt.remove_breakpoint(int(args["id"]))}
        if command == "clear_breakpoints":
            rt.clear_breakpoints()
            return {}
        if command == "list_breakpoints":
            return {
                "breakpoints": [
                    {
                        "id": bp.rec.id,
                        "filename": bp.rec.filename,
                        "line": bp.rec.line,
                        "instance": bp.rec.instance_name,
                        "condition": bp.condition_src,
                    }
                    for bp in rt.list_breakpoints()
                ]
            }
        if command == "evaluate":
            bp = None
            if args.get("breakpoint_id") is not None:
                bp = rt.symtable.breakpoint(int(args["breakpoint_id"]))
            return {"value": rt.evaluate(args["expr"], bp)}
        if command == "set_value":
            rt.sim.set_value(args["path"], int(args["value"]))
            return {}
        if command == "info":
            what = args.get("what", "time")
            if what == "time":
                return {"time": rt.sim.get_time()}
            if what == "files":
                return {"files": rt.symtable.filenames()}
            if what == "lines":
                return {"lines": rt.symtable.breakpoint_lines(args["filename"])}
            if what == "warnings":
                return {"warnings": rt.warnings}
            raise DebuggerError(f"unknown info {what!r}")
        raise DebuggerError(f"unknown command {command!r}")


class DebugClient:
    """Client side of the debugging protocol.

    Events arrive on a reader thread and are queued; ``wait_stopped()``
    blocks until the next ``stopped`` event.  Request methods are
    synchronous.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._timeout = timeout
        self._file = self._sock.makefile("rwb")
        self._events: queue.Queue[dict] = queue.Queue()
        self._responses: dict[int, dict] = {}
        self._resp_cond = threading.Condition()
        self._next_id = 1
        self._closed = False
        self.welcome: dict | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        # The server greets immediately.
        evt = self.wait_event("welcome", timeout=timeout)
        self.welcome = evt["payload"]

    def _read_loop(self) -> None:
        with contextlib.suppress(OSError, ValueError):
            for line in self._file:
                msg = json.loads(line)
                if msg.get("type") == "response":
                    with self._resp_cond:
                        self._responses[msg.get("id")] = msg
                        self._resp_cond.notify_all()
                else:
                    self._events.put(msg)
        self._closed = True
        with self._resp_cond:
            self._resp_cond.notify_all()

    def request(self, command: str, **args):
        req_id = self._next_id
        self._next_id += 1
        msg = {"id": req_id, "type": "request", "command": command, "args": args}
        self._file.write(json.dumps(msg).encode() + b"\n")
        self._file.flush()
        import time as _time

        deadline = _time.monotonic() + self._timeout
        with self._resp_cond:
            while req_id not in self._responses and not self._closed:
                if _time.monotonic() > deadline:
                    raise TimeoutError(
                        f"no response to {command!r} within {self._timeout}s"
                    )
                self._resp_cond.wait(timeout=0.1)
            resp = self._responses.pop(req_id, None)
        if resp is None:
            raise ConnectionError("debug server closed the connection")
        if not resp.get("ok"):
            raise DebuggerError(resp.get("error", "unknown error"))
        return resp.get("result")

    def wait_event(self, event: str, timeout: float = 30.0) -> dict:
        """Block until a specific event arrives (other events are dropped)."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {event!r} event within {timeout}s")
            msg = self._events.get(timeout=remaining)
            if msg.get("event") == event:
                return msg

    # -- sugar ------------------------------------------------------------

    def add_breakpoint(self, filename: str, line: int, condition: str | None = None):
        return self.request(
            "add_breakpoint", filename=filename, line=line, condition=condition
        )

    def cont(self):
        return self.request("continue")

    def step(self):
        return self.request("step")

    def reverse_step(self):
        return self.request("reverse_step")

    def reverse_continue(self):
        return self.request("reverse_continue")

    def evaluate(self, expr: str, breakpoint_id: int | None = None) -> int:
        return self.request("evaluate", expr=expr, breakpoint_id=breakpoint_id)["value"]

    def close(self) -> None:
        # Shut the socket down first: the reader thread sits in readline
        # holding the buffered file, so closing the file alone would wait
        # for it until the socket timeout.  The shutdown ends its read.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._reader.join(timeout=5)
        with contextlib.suppress(OSError):
            self._file.close()
        self._sock.close()
