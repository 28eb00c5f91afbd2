"""The unified session API — one surface for every way to debug a design.

The paper's architectural bet (Sec. 3) is that the debugger never talks to
a concrete simulator: it talks to a small interface.  This module extends
that bet from the *runtime* layer to the *client* layer: a
:class:`SessionHandle` is everything a debugger front end (console, DAP
adapter, scripts) may do to a debug session — run/pause/step/set_time,
peek/poke, breakpoints, history, stats — and every backend implements it:

* :class:`LocalSession` adapts an in-process :class:`~repro.core.Runtime`
  (live :class:`~repro.sim.Simulator` or trace
  :class:`~repro.trace.ReplayEngine`) to the handle;
* :class:`repro.hub.session.DebugSession` is a LocalSession owned by the
  debug hub, one per attached client;
* :class:`repro.hub.client.HubSession` speaks the same handle over the
  hub's newline-JSON wire.

Front ends in ``repro.client`` drive only this protocol — the same console
works against a live simulator, a replayed trace, or a remote hub session.

:class:`SessionOptions` is the one shared session configuration record
(store / obs / strict / snapshot budget) accepted by ``Simulator``,
``ShardSession``, and the hub server, replacing the per-constructor kwarg
drift; the legacy keywords keep working behind a ``DeprecationWarning``
(see :func:`resolve_session_options`).
"""

from __future__ import annotations

import queue
import threading
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace

from ..core.runtime import (
    CONTINUE,
    DETACH,
    REVERSE_CONTINUE,
    REVERSE_STEP,
    STEP,
    Command,
    HitGroup,
    Runtime,
)
from ..sim.interface import SimulatorError


class SessionError(Exception):
    """Raised on invalid session operations (wrong state, no capability)."""


# -- shared session configuration ------------------------------------------


@dataclass(frozen=True, slots=True)
class SessionOptions:
    """The one session configuration record shared across the stack.

    ``Simulator``, ``ShardSession``, and the hub server all accept
    ``options=SessionOptions(...)`` instead of re-declaring these keywords
    with subtly different defaults.  Field semantics match the historical
    ``Simulator`` kwargs they replace (see ``repro.sim.engine``).
    """

    store: str | None = None        #: value-store backend ($REPRO_VALUE_STORE)
    obs: object = None              #: observability depth ($REPRO_OBS)
    strict: object = None           #: compile-time lint gate ($REPRO_LINT)
    fast: bool = True               #: incremental-cone settle path
    snapshots: int = 0              #: retained history entries (0 = off)
    snapshot_bytes: int | None = None   #: byte-bounded history retention
    snapshot_codec: str | None = None   #: timeline delta codec (raw/rle)
    keyframe_every: int = 0         #: periodic full keyframes


# Legacy-kwarg deprecation is reported once per (owner, keyword-set) per
# process: the suite constructs thousands of simulators and a warning per
# call would drown real output without adding information.
_LEGACY_WARNED: set[str] = set()


def resolve_session_options(
    options: SessionOptions | None,
    legacy: dict,
    owner: str,
) -> SessionOptions:
    """Fold explicitly-passed legacy kwargs into a :class:`SessionOptions`.

    ``legacy`` holds only the keywords the caller actually supplied.  Any
    such keyword is deprecated in favor of ``options=`` and reports a
    :class:`DeprecationWarning` (once per owner/keyword-set per process);
    its value still wins over the corresponding ``options`` field, so old
    call sites keep their exact behavior.
    """
    known = {f.name for f in fields(SessionOptions)}
    unknown = set(legacy) - known
    if unknown:
        raise TypeError(f"{owner}: unknown session option(s) {sorted(unknown)}")
    if legacy:
        tag = f"{owner}:{','.join(sorted(legacy))}"
        if tag not in _LEGACY_WARNED:
            _LEGACY_WARNED.add(tag)
            warnings.warn(
                f"{owner}({', '.join(sorted(legacy))}=...) is deprecated; "
                f"pass options=SessionOptions(...) instead",
                DeprecationWarning,
                stacklevel=3,
            )
    base = options if options is not None else SessionOptions()
    return replace(base, **legacy) if legacy else base


# -- stop reporting ---------------------------------------------------------


@dataclass(slots=True)
class StopInfo:
    """Why a session's run loop handed control back to the client.

    Wire-stable: every field is plain JSON data (frames are serialized
    with :meth:`~repro.core.frames.Frame.to_dict`), so the same record is
    returned by a local session and shipped by the hub protocol.
    """

    reason: str                      #: breakpoint | watch | done | detached | error
    time: int = 0
    filename: str | None = None
    line: int | None = None
    column: int | None = None
    frames: list = field(default_factory=list)
    watch: dict | None = None
    cycles: int = 0                  #: cycles completed (done/detached)
    exit_code: int | None = None     #: Stop() exit code, when finished
    message: str | None = None       #: error text (reason == "error")

    @property
    def stopped(self) -> bool:
        """True when the session is paused at a hit and accepts cont/step."""
        return self.reason in ("breakpoint", "watch")

    @property
    def location(self) -> str:
        return f"{self.filename}:{self.line}"

    def to_wire(self) -> dict:
        rec = {"reason": self.reason, "time": self.time, "cycles": self.cycles}
        if self.filename is not None:
            rec.update(
                filename=self.filename, line=self.line, column=self.column
            )
        if self.frames:
            rec["frames"] = self.frames
        if self.watch is not None:
            rec["watch"] = self.watch
        if self.exit_code is not None:
            rec["exit_code"] = self.exit_code
        if self.message is not None:
            rec["message"] = self.message
        return rec

    @classmethod
    def from_wire(cls, rec: dict) -> StopInfo:
        return cls(
            reason=rec["reason"],
            time=rec.get("time", 0),
            filename=rec.get("filename"),
            line=rec.get("line"),
            column=rec.get("column"),
            frames=rec.get("frames", []),
            watch=rec.get("watch"),
            cycles=rec.get("cycles", 0),
            exit_code=rec.get("exit_code"),
            message=rec.get("message"),
        )

    @classmethod
    def from_hit(cls, hit: HitGroup) -> StopInfo:
        reason = "watch" if hit.watch is not None else "breakpoint"
        rec = hit.to_record()
        return cls(
            reason=reason,
            time=hit.time,
            filename=hit.filename,
            line=hit.line,
            column=hit.column,
            frames=rec.get("frames", []),
            watch=rec.get("watch"),
        )


# -- the protocol -----------------------------------------------------------


class SessionHandle(ABC):
    """Everything a debugger front end may do to a debug session.

    Control methods (:meth:`run`, :meth:`cont`, :meth:`step`,
    :meth:`reverse_step`, :meth:`reverse_cont`, :meth:`detach`) block
    until the session stops again and return a :class:`StopInfo`.
    Data methods are legal while the session is idle or stopped at a hit;
    calling one while the run loop is executing raises
    :class:`SessionError`.
    """

    # -- identity / capabilities ---------------------------------------

    @abstractmethod
    def describe(self) -> dict:
        """Static facts: kind (live/replay), top name, capabilities."""

    @property
    @abstractmethod
    def can_set_time(self) -> bool: ...

    @property
    @abstractmethod
    def can_set_value(self) -> bool: ...

    # -- values ---------------------------------------------------------

    @abstractmethod
    def peek(self, path: str) -> int:
        """Read a signal by full hierarchical or top-local name."""

    @abstractmethod
    def poke(self, path: str, value: int) -> None:
        """Force a signal value (live sessions only)."""

    @abstractmethod
    def evaluate(self, expr: str, breakpoint_id: int | None = None) -> int:
        """Evaluate an expression.  With ``breakpoint_id``, resolve names
        in that breakpoint's frame scope (the id comes from a serialized
        stop frame); otherwise use the stopped frame's scope when stopped,
        or the design top scope."""

    # -- time / history --------------------------------------------------

    @abstractmethod
    def get_time(self) -> int: ...

    @abstractmethod
    def set_time(self, time: int) -> None: ...

    @abstractmethod
    def timeline_info(self) -> dict | None:
        """Retained-window summary (``describe``/``time``), or None when
        the backend keeps no history."""

    @abstractmethod
    def history(self, name: str, limit: int = 16) -> dict:
        """Last ``limit`` retained values of a signal:
        ``{"path", "total", "samples": [(cycle, value), ...]}``."""

    # -- breakpoints -----------------------------------------------------

    @abstractmethod
    def add_breakpoint(
        self, filename: str, line: int, condition: str | None = None
    ) -> list[dict]: ...

    @abstractmethod
    def add_watchpoint(
        self, name: str, condition: str | None = None
    ) -> dict: ...

    @abstractmethod
    def remove_breakpoint(self, bp_id: int) -> bool: ...

    @abstractmethod
    def clear_breakpoints(self) -> None: ...

    @abstractmethod
    def ignore(self, bp_id: int, count: int) -> bool:
        """Skip the next ``count`` hits of a breakpoint."""

    @abstractmethod
    def breakpoints(self) -> list[dict]: ...

    @abstractmethod
    def watchpoints(self) -> list[dict]: ...

    # -- control ---------------------------------------------------------

    @abstractmethod
    def run(self, cycles: int) -> StopInfo:
        """Start the session's run loop for up to ``cycles`` cycles and
        block until the first stop (hit, completion, or error)."""

    @abstractmethod
    def cont(self) -> StopInfo: ...

    @abstractmethod
    def step(self) -> StopInfo: ...

    @abstractmethod
    def reverse_step(self) -> StopInfo: ...

    @abstractmethod
    def reverse_cont(self) -> StopInfo: ...

    @abstractmethod
    def pause(self) -> None:
        """Ask a running session to stop at the next opportunity (async);
        the blocked control call returns the resulting StopInfo."""

    @abstractmethod
    def detach(self) -> StopInfo | None:
        """Stop debugging: abort the run loop (if any) and release the
        runtime's hooks."""

    @abstractmethod
    def reset(self, cycles: int = 1) -> None:
        """Assert reset for ``cycles`` cycles (live sessions only)."""

    # -- introspection ----------------------------------------------------

    @abstractmethod
    def files(self) -> list[str]: ...

    @abstractmethod
    def warnings(self) -> list[str]: ...

    @abstractmethod
    def resolve_file(self, filename: str) -> str | None: ...

    @abstractmethod
    def stats(self) -> dict:
        """Execution counters (live sessions; replay has none)."""

    @abstractmethod
    def metrics(self) -> dict | None:
        """The obs metric catalog snapshot, or None when obs is off."""

    @abstractmethod
    def lint(self, severity: str | None = None) -> dict:
        """Static analysis of the attached circuit:
        ``{"count", "text"}``."""

    @abstractmethod
    def state_digest(self) -> str: ...

    @abstractmethod
    def shard_sweep(
        self,
        shards: int,
        cycles: int,
        seed_base: int = 0,
        retries: int | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Fan this session's breakpoints out to a parallel seed sweep
        and return the aggregated report summary."""


class _SessionAbort(Exception):
    """Raised inside the run loop's stimulus hook to abort a detach."""


class LocalSession(SessionHandle):
    """A :class:`SessionHandle` over an in-process :class:`Runtime`.

    Data operations delegate straight to the runtime and its backend; the
    run-control surface owns a pump thread driving
    ``sim.run_cycles(...)``.  When a breakpoint hits, the runtime's
    synchronous ``on_hit`` callback serializes the stop, parks the pump on
    a command queue (exactly the blocking-VPI-callback shape of
    ``core/protocol.py``), and the client-side control call returns the
    :class:`StopInfo`.  While stopped, data operations from the client
    thread see stable, settled state — gdb at a ptrace stop.

    Front ends that keep the classic passive shape (the embedding test
    drives ``sim.step`` and owns ``runtime.on_hit``) can use a
    LocalSession purely for data operations: the pump is only installed
    by the first :meth:`run` call.
    """

    #: safety net so an orphaned control call cannot block forever
    stop_timeout = 300.0

    def __init__(self, runtime: Runtime, stimulus=None, name: str = "local"):
        self.runtime = runtime
        self.name = name
        self._sim = runtime.sim
        self._stimulus = stimulus
        self._stops: queue.Queue[StopInfo] = queue.Queue()
        self._cmds: queue.Queue[Command] = queue.Queue()
        self._ctl = threading.RLock()
        self._state = "idle"          # idle | running | stopped
        self._thread: threading.Thread | None = None
        self._abort = False
        self._stop_bp = None          # BreakpointRec of the stopped frame
        self.last_stop: StopInfo | None = None

    # -- identity / capabilities ---------------------------------------

    def describe(self) -> dict:
        sim = self._sim
        return {
            "kind": "replay" if sim.is_replay else "live",
            "top": self.runtime.symtable.top_name(),
            "time": sim.get_time(),
            "can_set_time": sim.can_set_time,
            "can_set_value": sim.can_set_value,
            "state": self._state,
        }

    @property
    def can_set_time(self) -> bool:
        return self._sim.can_set_time

    @property
    def can_set_value(self) -> bool:
        return self._sim.can_set_value

    # -- values ---------------------------------------------------------

    def _check_data_ok(self) -> None:
        if self._state == "running":
            raise SessionError(
                "session is running; pause it before inspecting state"
            )

    def peek(self, path: str) -> int:
        self._check_data_ok()
        sim = self._sim
        try:
            return sim.get_value(path)
        except SimulatorError:
            # Top-local name: qualify against the hierarchy root.
            return sim.get_value(f"{sim.hierarchy().path}.{path}")

    def poke(self, path: str, value: int) -> None:
        self._check_data_ok()
        sim = self._sim
        # The live simulator's poke() accepts top-local input names (the
        # stimulus surface); set_value is the strict full-path interface
        # every backend has.
        poke = getattr(sim, "poke", None)
        if poke is not None:
            poke(path, value)
        else:
            sim.set_value(path, value)

    def evaluate(self, expr: str, breakpoint_id: int | None = None) -> int:
        self._check_data_ok()
        bp = self._stop_bp
        if breakpoint_id is not None:
            bp = self.runtime.symtable.breakpoint(int(breakpoint_id))
            if bp is None:
                # The id may come off the hub wire: never fall back to the
                # top scope and answer for a breakpoint that is not there.
                raise SessionError(f"unknown breakpoint id {breakpoint_id}")
        return self.runtime.evaluate(expr, bp)

    # -- time / history --------------------------------------------------

    def get_time(self) -> int:
        return self._sim.get_time()

    def set_time(self, time: int) -> None:
        self._check_data_ok()
        self._sim.set_time(time)

    def timeline_info(self) -> dict | None:
        timeline = self._sim.timeline
        if timeline is None:
            return None
        return {
            "describe": timeline.describe(),
            "time": self._sim.get_time(),
            "entries": len(timeline),
        }

    def history(self, name: str, limit: int = 16) -> dict:
        self._check_data_ok()
        sim = self._sim
        timeline = sim.timeline
        if timeline is None:
            raise SessionError(
                "no timeline: this backend keeps no history (construct the "
                "simulator with snapshots=N or snapshot_bytes=N)"
            )
        path = self.runtime._resolve_watch_path(name, None)
        # Bound the walk up front: each sample is one set_time hop, and a
        # replayed trace can retain tens of thousands of cycles.
        times = timeline.times()
        start = times[-limit] if 0 < limit < len(times) else None
        series = sim.history(path, start=start)
        shown = series[-limit:] if limit > 0 else series
        return {
            "path": path,
            "total": len(timeline),  # the walk may have retained "now" too
            "samples": [list(s) for s in shown],
        }

    # -- breakpoints -----------------------------------------------------

    def add_breakpoint(
        self, filename: str, line: int, condition: str | None = None
    ) -> list[dict]:
        bps = self.runtime.add_breakpoint(filename, line, condition=condition)
        return [
            {
                "id": bp.rec.id,
                "instance": bp.rec.instance_name,
                "filename": bp.rec.filename,
                "line": bp.rec.line,
                "enable": bp.rec.enable_src or bp.rec.enable or "always",
                "condition": bp.condition_src,
            }
            for bp in bps
        ]

    def add_watchpoint(self, name: str, condition: str | None = None) -> dict:
        wp = self.runtime.add_watchpoint(name, condition=condition)
        return {"id": wp.id, "path": wp.path, "label": wp.label}

    def remove_breakpoint(self, bp_id: int) -> bool:
        return self.runtime.remove_breakpoint(bp_id)

    def clear_breakpoints(self) -> None:
        self.runtime.clear_breakpoints()

    def ignore(self, bp_id: int, count: int) -> bool:
        bp = self.runtime.scheduler.inserted.get(bp_id)
        if bp is None:
            return False
        bp.ignore_count = count
        return True

    def breakpoints(self) -> list[dict]:
        return [
            {
                "id": bp.rec.id,
                "filename": bp.rec.filename,
                "line": bp.rec.line,
                "instance": bp.rec.instance_name,
                "condition": bp.condition_src,
                "hits": bp.hit_count,
            }
            for bp in self.runtime.list_breakpoints()
        ]

    def watchpoints(self) -> list[dict]:
        return [
            {"id": wp.id, "path": wp.path, "label": wp.label,
             "hits": wp.hit_count}
            for wp in self.runtime.watchpoints
        ]

    # -- control ---------------------------------------------------------

    def run(self, cycles: int) -> StopInfo:
        with self._ctl:
            if self._state != "idle":
                raise SessionError(f"cannot run: session is {self._state}")
            if getattr(self._sim, "finished", False):
                return self._record(
                    StopInfo(
                        reason="done", time=self._sim.get_time(),
                        exit_code=getattr(self._sim, "exit_code", None),
                    )
                )
            self._abort = False
            self._stops = queue.Queue()
            self._cmds = queue.Queue()
            self.runtime.on_hit = self._on_hit
            self.runtime.attach()
            self._state = "running"
            self._thread = threading.Thread(
                target=self._run_loop, args=(int(cycles),), daemon=True,
                name=f"repro-session-{self.name}",
            )
            self._thread.start()
            return self._wait_stop()

    def _resume(self, cmd: Command) -> StopInfo:
        with self._ctl:
            if self._state != "stopped":
                raise SessionError(
                    f"cannot resume: session is {self._state}"
                )
            self._state = "running"
            self._cmds.put(cmd)
            return self._wait_stop()

    def cont(self) -> StopInfo:
        return self._resume(CONTINUE)

    def step(self) -> StopInfo:
        return self._resume(STEP)

    def reverse_step(self) -> StopInfo:
        return self._resume(REVERSE_STEP)

    def reverse_cont(self) -> StopInfo:
        return self._resume(REVERSE_CONTINUE)

    def pause(self) -> None:
        # Async by design (protocol.py's "pause" shape): the blocked
        # control call collects the resulting StopInfo.
        if self._state == "running":
            self.runtime.request_pause()

    def detach(self) -> StopInfo | None:
        with self._ctl:
            self._abort = True
            if self._state == "stopped":
                self._state = "running"
                self._cmds.put(DETACH)
                out = self._wait_stop()
            elif self._state == "running":
                out = self._wait_stop()
            else:
                out = None
            if self._thread is not None:
                self._thread.join(timeout=self.stop_timeout)
                self._thread = None
            self.runtime.detach()
            return out

    def reset(self, cycles: int = 1) -> None:
        self._check_data_ok()
        reset = getattr(self._sim, "reset", None)
        if reset is None:
            raise SessionError("reset requires a live Simulator backend")
        reset(cycles)

    # -- the pump ---------------------------------------------------------

    def _wait_stop(self) -> StopInfo:
        try:
            info = self._stops.get(timeout=self.stop_timeout)
        except queue.Empty:
            raise SessionError(
                f"session produced no stop within {self.stop_timeout}s"
            ) from None
        return self._record(info)

    def _record(self, info: StopInfo) -> StopInfo:
        self.last_stop = info
        return info

    def _on_hit(self, hit: HitGroup) -> Command:
        info = StopInfo.from_hit(hit)
        self._stop_bp = hit.frames[0].breakpoint if hit.frames else None
        self._state = "stopped"
        self._stops.put(info)
        cmd = self._cmds.get()  # parked: the client owns the session now
        self._stop_bp = None
        self._state = "running"
        return cmd

    def _stimulus_hook(self, sim, cycle: int) -> None:
        if self._abort:
            raise _SessionAbort
        if self._stimulus is not None:
            self._stimulus(sim, cycle)

    def _run_loop(self, cycles: int) -> None:
        sim = self._sim
        done = 0
        try:
            done = sim.run_cycles(cycles, stimulus=self._stimulus_hook)
            info = StopInfo(
                reason="done",
                time=sim.get_time(),
                cycles=done,
                exit_code=getattr(sim, "exit_code", None),
            )
        except _SessionAbort:
            info = StopInfo(
                reason="detached", time=sim.get_time(), cycles=done
            )
        except Exception as exc:  # noqa: BLE001 - session boundary
            info = StopInfo(
                reason="error",
                time=sim.get_time(),
                message=f"{type(exc).__name__}: {exc}",
            )
        self._state = "idle"
        self._stop_bp = None
        self._stops.put(info)

    # -- introspection ----------------------------------------------------

    def files(self) -> list[str]:
        return list(self.runtime.symtable.filenames())

    def warnings(self) -> list[str]:
        return list(self.runtime.warnings)

    def resolve_file(self, filename: str) -> str | None:
        return self.runtime.resolve_filename(filename)

    def stats(self) -> dict:
        stats_fn = getattr(self._sim, "stats", None)
        if stats_fn is None:
            raise SessionError(
                "stats: no counters on this backend (trace replay session)"
            )
        return stats_fn()

    def metrics(self) -> dict | None:
        obs = getattr(self._sim, "obs", None)
        if obs is None or obs.metrics is None:
            return None
        return obs.metrics.snapshot()

    def lint(self, severity: str | None = None) -> dict:
        from ..lint import Severity, format_diagnostics, lint_circuit

        design = getattr(self._sim, "design", None)
        circuit = getattr(design, "circuit", None)
        if circuit is None:
            raise SessionError(
                "lint: no circuit attached (trace replay session)"
            )
        diags = lint_circuit(circuit, form="low")
        if severity:
            threshold = Severity.parse(severity)
            diags = [d for d in diags if d.severity >= threshold]
        return {
            "count": len(diags),
            "text": format_diagnostics(diags) if diags else "",
        }

    def state_digest(self) -> str:
        self._check_data_ok()
        digest = getattr(self._sim, "state_digest", None)
        if digest is None:
            raise SessionError(
                "state_digest requires a live Simulator backend"
            )
        return digest()

    def shard_sweep(
        self,
        shards: int,
        cycles: int,
        seed_base: int = 0,
        retries: int | None = None,
        deadline: float | None = None,
    ) -> dict:
        from ..shard import (
            BreakpointSpec,
            RetryPolicy,
            ShardSession,
            WatchSpec,
            make_sweep,
        )

        self._check_data_ok()
        design = getattr(self._sim, "design", None)
        circuit = getattr(design, "circuit", None)
        if circuit is None:
            raise SessionError("shard requires a live Simulator backend")
        seen: set[tuple] = set()
        breakpoints = []
        for bp in self.runtime.list_breakpoints():
            key = (bp.rec.filename, bp.rec.line, bp.condition_src)
            if key not in seen:
                seen.add(key)
                breakpoints.append(
                    BreakpointSpec(
                        bp.rec.filename, bp.rec.line,
                        condition=bp.condition_src,
                    )
                )
        watchpoints = [
            WatchSpec(wp.label, condition=wp.condition_src)
            for wp in self.runtime.watchpoints
        ]
        if not breakpoints and not watchpoints:
            raise SessionError(
                "no breakpoints to sweep; insert some first (b/watch)"
            )
        # Reuse the session's already-compiled design: forked workers
        # inherit it copy-on-write, and in-process (inline) shards can
        # share it too now that printf routing is per-stepping-simulator.
        with ShardSession(
            circuit, self.runtime.symtable, compiled=design
        ) as session:
            report = session.run(
                make_sweep(
                    shards, cycles, seed_base=seed_base,
                    breakpoints=breakpoints, watchpoints=watchpoints,
                ),
                retry=(
                    RetryPolicy(max_attempts=retries)
                    if retries is not None else None
                ),
                deadline=deadline,
            )
        return {
            "summary": report.summary(),
            "ok": report.ok,
            "shards": shards,
        }
