"""One hub-owned debug session: a private simulator over the shared design.

The hub compiles a design once; a :class:`DebugSession` is the per-client
fork of everything that is cheap — a fresh
:class:`~repro.sim.store.ValueStore`, private memories and
:class:`~repro.sim.timeline.Timeline`, its own breakpoints/watchpoints and
timeline cursor — over the one hot
:class:`~repro.sim.compiler.CompiledDesign` (which is value-independent:
generated code, cone caches, signal metadata).  This is the same
copy-on-write trick the shard coordinator plays with forked workers,
done in-process with threads.

Every session reads the hub's one in-memory symbol table
(:class:`~repro.symtable.memory.MemorySymbolTable`: read-only plain
Python, so the session threads share it) and exposes the whole
:class:`~repro.hub.api.SessionHandle` surface through :meth:`invoke`, the
hub server's method-name dispatch.
"""

from __future__ import annotations

import time as _time

from ..core.runtime import Runtime
from ..sim.engine import SessionOptions, Simulator
from .api import LocalSession, SessionError, StopInfo

#: SessionHandle methods reachable over the wire, by name.  An allowlist,
#: not getattr-anything: the transport must never expose internals.
_WIRE_METHODS = frozenset(
    {
        "describe",
        "peek",
        "poke",
        "evaluate",
        "frame_plan",
        "get_time",
        "set_time",
        "timeline_info",
        "history",
        "add_breakpoint",
        "add_watchpoint",
        "remove_breakpoint",
        "clear_breakpoints",
        "ignore",
        "breakpoints",
        "watchpoints",
        "run",
        "cont",
        "step",
        "reverse_step",
        "reverse_cont",
        "pause",
        "detach",
        "reset",
        "files",
        "warnings",
        "resolve_file",
        "stats",
        "metrics",
        "lint",
        "state_digest",
        "shard_sweep",
    }
)


class DebugSession:
    """A named, evictable :class:`LocalSession` owned by the debug hub."""

    def __init__(
        self,
        sid: int,
        circuit,
        compiled,
        symtable,
        options: SessionOptions,
        seed: int | None = None,
        name: str | None = None,
        obs=None,
    ):
        self.sid = sid
        self.name = name or f"session-{sid}"
        self.created = _time.monotonic()
        self.last_used = self.created
        self.seed = seed
        self._obs = obs
        sim = Simulator(circuit, compiled=compiled, options=options)
        runtime = Runtime(sim, symtable)
        stimulus = None
        if seed is not None:
            # The shard determinism contract (spec.py): sorted-name random
            # pokes from Random(seed) each cycle.  A hub session running
            # under a seed is bit-identical to a standalone Simulator
            # driven by the same contract — the parity benchmarks pin it.
            from ..shard.spec import ShardSpec
            from ..shard.worker import make_stimulus

            stimulus = make_stimulus(
                sim, ShardSpec(shard_id=sid, seed=seed, cycles=0)
            )
        self.session = LocalSession(runtime, stimulus=stimulus, name=self.name)
        self.cycles_run = 0

    @property
    def state(self) -> str:
        return self.session._state

    @property
    def idle_for(self) -> float:
        return _time.monotonic() - self.last_used

    def touch(self) -> None:
        self.last_used = _time.monotonic()

    def invoke(self, method: str, params: dict):
        """Dispatch one wire request onto the session handle.

        Returns a JSON-ready value; :class:`StopInfo` results are
        serialized with ``to_wire``.
        """
        if method not in _WIRE_METHODS:
            raise SessionError(f"unknown session method {method!r}")
        self.touch()
        before = self.session.get_time()
        try:
            result = getattr(self.session, method)(**(params or {}))
        finally:
            self.touch()
        if isinstance(result, StopInfo):
            self.cycles_run += max(0, self.session.get_time() - before)
            if self._obs is not None and self._obs.metrics is not None:
                self._obs.metrics.counter(
                    "hub_session_cycles_total",
                    "cycles simulated on behalf of hub sessions",
                ).inc(max(0, self.session.get_time() - before))
            result = result.to_wire()
        return result

    def close(self) -> None:
        """Detach the underlying session, aborting any run in flight."""
        try:
            self.session.detach()
        except SessionError:
            pass
