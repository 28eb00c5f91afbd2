"""Client side of the hub wire: the same session API, over a socket.

:class:`HubClient` owns one TCP connection to a :class:`DebugHub`;
:class:`HubSession` implements :class:`~repro.hub.api.SessionHandle` by
forwarding every method as one ``s.*`` request, so the console and DAP
front ends drive a remote hub session with the exact code paths they use
against an in-process :class:`~repro.hub.api.LocalSession`.
"""

from __future__ import annotations

import contextlib
import socket

from ..core.frames import FramePlan
from ..shard.wire import decode_message, encode_line
from .api import PROTOCOL_VERSION, SessionError, SessionHandle, StopInfo


class HubClient:
    """Blocking newline-JSON RPC client for one hub connection."""

    def __init__(self, host: str, port: int, timeout: float = 300.0):
        self.address = (host, int(port))
        self._sock = socket.create_connection(self.address, timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 1

    def call(self, method: str, params: dict | None = None):
        req_id, self._next_id = self._next_id, self._next_id + 1
        req = {"id": req_id, "method": method, "params": params or {}}
        self._sock.sendall(encode_line(req))
        line = self._file.readline()
        if not line:
            raise SessionError("hub connection closed")
        resp = decode_message(line)
        if resp.get("id") != req_id:
            raise SessionError(
                f"hub response id mismatch: {resp.get('id')} != {req_id}"
            )
        if "error" in resp:
            raise SessionError(resp["error"])
        return resp.get("result")

    def hello(self) -> dict:
        return self.call("hello")

    def attach(
        self,
        seed: int | None = None,
        name: str | None = None,
        snapshots: int | None = None,
        sid: int | None = None,
    ) -> "HubSession":
        """Create a session on the hub (or re-attach to ``sid``) and bind
        it to this connection.  The hub refuses a client of another
        protocol version."""
        params = {"protocol": PROTOCOL_VERSION}
        if seed is not None:
            params["seed"] = seed
        if name is not None:
            params["name"] = name
        if snapshots is not None:
            params["snapshots"] = snapshots
        if sid is not None:
            params["sid"] = sid
        info = self.call("attach", params)
        return HubSession(self, info)

    def list_sessions(self) -> list[dict]:
        return self.call("list_sessions")

    def detach(self) -> bool:
        return bool(self.call("detach").get("detached"))

    def close(self) -> None:
        # Wake a call blocked on another thread, which the reader waits for.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "HubClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class HubSession(SessionHandle):
    """A remote hub session, driven through the unified session API."""

    def __init__(self, client: HubClient, info: dict):
        self._client = client
        self.sid = info.get("sid")
        self.name = info.get("name")
        self._info = info
        self._plans: dict[int, FramePlan] = {}

    # identity / capabilities -- the attach-time snapshot answers the
    # static questions without a round trip; describe() always re-asks.

    def describe(self) -> dict:
        self._info = self._client.call("s.describe", {})
        return self._info

    @property
    def can_set_time(self) -> bool:
        return bool(self._info.get("can_set_time"))

    @property
    def can_set_value(self) -> bool:
        return bool(self._info.get("can_set_value"))

    # values

    def peek(self, path: str) -> int:
        return self._client.call("s.peek", {"path": path})

    def poke(self, path: str, value: int) -> None:
        self._client.call("s.poke", {"path": path, "value": value})

    def evaluate(self, expr: str, breakpoint_id: int | None = None) -> int:
        params = {"expr": expr}
        if breakpoint_id is not None:
            params["breakpoint_id"] = breakpoint_id
        return self._client.call("s.evaluate", params)

    # time / history

    def get_time(self) -> int:
        return self._client.call("s.get_time", {})

    def set_time(self, time: int) -> None:
        self._client.call("s.set_time", {"time": time})

    def timeline_info(self) -> dict | None:
        return self._client.call("s.timeline_info", {})

    def history(self, name: str, limit: int = 16) -> dict:
        return self._client.call("s.history", {"name": name, "limit": limit})

    # breakpoints

    def add_breakpoint(self, filename, line, condition=None) -> list[dict]:
        return self._client.call(
            "s.add_breakpoint",
            {"filename": filename, "line": line, "condition": condition},
        )

    def add_watchpoint(self, name, condition=None) -> dict:
        return self._client.call(
            "s.add_watchpoint", {"name": name, "condition": condition}
        )

    def remove_breakpoint(self, bp_id: int) -> bool:
        return self._client.call("s.remove_breakpoint", {"bp_id": bp_id})

    def clear_breakpoints(self) -> None:
        self._client.call("s.clear_breakpoints", {})

    def ignore(self, bp_id: int, count: int) -> bool:
        return self._client.call(
            "s.ignore", {"bp_id": bp_id, "count": count}
        )

    def breakpoints(self) -> list[dict]:
        return self._client.call("s.breakpoints", {})

    def watchpoints(self) -> list[dict]:
        return self._client.call("s.watchpoints", {})

    # control -- each call blocks until the remote session stops again

    def _stop(self, method: str, params: dict | None = None) -> StopInfo:
        return StopInfo.from_wire(self._client.call(method, params or {}), self._plan)

    def _plan(self, bp_id: int) -> FramePlan:
        """A breakpoint's frame plan, fetched once."""
        plan = self._plans.get(bp_id)
        if plan is None:
            rec = self._client.call("s.frame_plan", {"breakpoint_id": bp_id})
            plan = self._plans[bp_id] = FramePlan(**rec)
        return plan

    def run(self, cycles: int) -> StopInfo:
        return self._stop("s.run", {"cycles": cycles})

    def cont(self) -> StopInfo:
        return self._stop("s.cont")

    def step(self) -> StopInfo:
        return self._stop("s.step")

    def reverse_step(self) -> StopInfo:
        return self._stop("s.reverse_step")

    def reverse_cont(self) -> StopInfo:
        return self._stop("s.reverse_cont")

    def pause(self) -> None:
        self._client.call("s.pause", {})

    def detach(self) -> StopInfo | None:
        result = self._client.call("s.detach", {})
        self._client.call("detach", {})
        return StopInfo.from_wire(result, self._plan) if result else None

    def reset(self, cycles: int = 1) -> None:
        self._client.call("s.reset", {"cycles": cycles})

    # introspection

    def files(self) -> list[str]:
        return self._client.call("s.files", {})

    def warnings(self) -> list[str]:
        return self._client.call("s.warnings", {})

    def resolve_file(self, filename: str) -> str | None:
        return self._client.call("s.resolve_file", {"filename": filename})

    def stats(self) -> dict:
        return self._client.call("s.stats", {})

    def metrics(self) -> dict | None:
        return self._client.call("s.metrics", {})

    def lint(self, severity: str | None = None) -> dict:
        return self._client.call("s.lint", {"severity": severity})

    def state_digest(self) -> str:
        return self._client.call("s.state_digest", {})

    def shard_sweep(self, shards, cycles, seed_base=0, retries=None,
                    deadline=None) -> dict:
        return self._client.call(
            "s.shard_sweep",
            {
                "shards": shards,
                "cycles": cycles,
                "seed_base": seed_base,
                "retries": retries,
                "deadline": deadline,
            },
        )

