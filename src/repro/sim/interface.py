"""The unified simulator interface (paper Sec. 3.3).

hgdb defines a minimum set of primitives every simulation backend must
provide — this module is the Python rendering of that interface.  The live
simulator (``repro.sim.Simulator``) and the trace replay engine
(``repro.trace.ReplayEngine``) both implement it, exactly as the paper's
Figure 1 shows VCS, Xcelium, Verilator, and the replay tool plugged into the
same runtime.

Primitives (paper's list):

* get signal value                       -> :meth:`get_value`
* get design hierarchy and clock info    -> :meth:`hierarchy`, :meth:`clock_name`
* place callbacks on clock changes       -> :meth:`add_clock_callback`
* get and set simulation time (optional) -> :meth:`get_time`, :meth:`set_time`
* set signal value (optional)            -> :meth:`set_value`
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

#: The binary operators of a wake predicate (see
#: :meth:`SimulatorInterface.add_clock_callback`), with C semantics.
WAKE_BINARY_OPS = ("==", "!=", "<", "<=", ">", ">=", "&", "|", "^", "&&", "||")


class SimulatorError(Exception):
    """Raised on bad interface usage (unknown signal, unsupported op)."""


@dataclass(frozen=True, eq=False)
class RecordProgram:
    """What a clock callback collects on a posedge, in a form a native
    tier can run itself (see :meth:`SimulatorInterface.add_clock_callback`).

    ``groups`` is a tuple of groups, each a tuple of members ``(key,
    wake, lanes)``: ``wake`` is a predicate in the wake format that holds
    exactly when the member is collected, ``lanes`` the narrow value-table
    lanes it collects, and ``key`` anything that names the member.  On a
    posedge every member is tested, groups in order and members in order
    within a group.  ``adopt(rows)`` takes one list ``[time, [[key,
    values], ...]]`` per group with a member that held, in time order,
    then group order; ``values`` is the list of its lanes' values at that
    posedge.
    ``budget()`` says how many rows may still be collected without
    ``fn``: a posedge whose rows would use them up is left to ``fn``.
    None means no bound.
    """

    groups: tuple
    adopt: Callable[[list], None]
    budget: Callable[[], int | None] = lambda: None

    @property
    def wake(self):
        """The OR of every member's wake: when ``fn`` must run if the
        program does not."""
        wake = None
        for group in self.groups:
            for _key, term, _lanes in group:
                wake = term if wake is None else ("||", wake, term)
        return wake


class SimulationFinished(Exception):
    """Raised internally when a ``Stop`` statement fires."""

    def __init__(self, exit_code: int = 0, time: int = 0):
        super().__init__(f"simulation finished with code {exit_code} at {time}")
        self.exit_code = exit_code
        self.time = time


@dataclass(slots=True)
class SignalInfo:
    """Metadata for one signal in the design hierarchy."""

    name: str        # local name within its instance
    path: str        # full hierarchical path
    width: int
    kind: str        # "input" | "output" | "wire" | "reg" | "node"
    signed: bool = False


@dataclass(slots=True, weakref_slot=True)
class HierNode:
    """A node in the design instance tree (weakly referable, so a
    symbol table can keep what it matched against one; see
    :func:`repro.core.matching.instance_map`)."""

    name: str                 # instance name
    path: str                 # full hierarchical path
    module: str               # module definition name
    children: list[HierNode] = field(default_factory=list)
    signals: list[SignalInfo] = field(default_factory=list)

    def find(self, path: str) -> HierNode | None:
        """Locate a descendant (or self) by full hierarchical path."""
        if self.path == path:
            return self
        for c in self.children:
            if path == c.path or path.startswith(c.path + "."):
                return c.find(path)
        return None

    def walk(self):
        """Yield self and every descendant, pre-order."""
        yield self
        for c in self.children:
            yield from c.walk()


class SimulatorInterface(ABC):
    """What the hgdb runtime requires of any simulation backend: the live
    ``Simulator`` and the trace ``ReplayEngine``.  A runtime debugs one
    simulation; a ``ManyWorldsSimulator`` batch is no backend."""

    # -- values ----------------------------------------------------------

    @abstractmethod
    def get_value(self, path: str) -> int:
        """Read the current (stable) value of a signal by full path."""

    def set_value(self, path: str, value: int) -> None:
        """Optionally drive a signal (not possible on trace files)."""
        raise SimulatorError(f"{type(self).__name__} cannot set values")

    @property
    def can_set_value(self) -> bool:
        return False

    # -- structure --------------------------------------------------------

    @abstractmethod
    def hierarchy(self) -> HierNode:
        """The design instance tree with per-instance signal lists."""

    @abstractmethod
    def clock_name(self) -> str:
        """Full path of the (single) clock driving the design."""

    # -- callbacks ----------------------------------------------------------

    @abstractmethod
    def add_clock_callback(self, fn, wake=None) -> int:
        """Register ``fn(sim)`` to run at every clock posedge, after the
        design has stabilized and before state updates.  Returns an id.

        ``wake`` optionally says when ``fn`` can act: a predicate over the
        settled values that holds on every posedge where ``fn`` would do
        more than return.  A backend with a native tier (the live
        simulator's ``run()`` and tape ``run_cycles``) may skip ``fn`` on
        posedges where no registered wake holds; a callback without a
        wake keeps every posedge in Python.  Backends without a native
        tier ignore it.  A wake is a tuple tree: ``("sig", i)`` reads
        narrow value-table lane ``i`` (a signal of at most 64 bits),
        ``("num", v)`` is a constant, ``("!", x)`` is logical not, and
        ``(op, a, b)`` applies ``op`` in :data:`WAKE_BINARY_OPS` (``== !=
        < <= > >= & | ^ && ||``, as in C: compares and logic give 0 or 1).
        Every value is unsigned and below 2**64.

        ``wake`` may instead be a :class:`RecordProgram`, for a callback
        that on a posedge only *collects* values.  A native tier then
        runs the program in place of ``fn`` on the posedges it runs,
        hands the rows to ``program.adopt`` as soon as it returns, before
        ``fn`` runs again, and keeps running; ``fn`` still runs on every
        posedge the native tier leaves to Python.  A backend that does not
        run the program treats it as its :attr:`RecordProgram.wake`."""

    @abstractmethod
    def remove_clock_callback(self, cb_id: int) -> None:
        """Unregister a callback by id."""

    # -- time ------------------------------------------------------------------

    @abstractmethod
    def get_time(self) -> int:
        """Current simulation time (cycles)."""

    def set_time(self, time: int) -> None:
        """Move simulation time (enables reverse debugging).

        This is the one shared time-travel code path: backends implement
        :meth:`_apply_set_time` (restore state, move the cursor) and
        every successful jump then notifies the set-time callbacks
        exactly once — so per-cycle observers (watchpoint re-priming via
        ``WatchStore.rewound``, most notably) behave identically on the
        live simulator and on trace replay.
        """
        self._apply_set_time(time)
        self._notify_set_time(time)

    def _apply_set_time(self, time: int) -> None:
        """Backend hook: restore state at ``time``.  Raise
        ``TimelineError`` (out of the retained window) or
        ``SimulatorError`` (time travel unsupported) on failure."""
        raise SimulatorError(f"{type(self).__name__} cannot move time")

    @property
    def can_set_time(self) -> bool:
        return False

    #: The backend's retained-history view (a
    #: :class:`repro.sim.timeline.TimelineView`), or None when the
    #: backend keeps no history.  The live simulator binds a compressed
    #: keyframe+delta :class:`~repro.sim.timeline.Timeline`; trace replay
    #: binds a zero-cost full-window view.
    timeline = None

    def history(
        self,
        path: str,
        start: int | None = None,
        end: int | None = None,
    ) -> list[tuple[int, int]]:
        """Windowed history query: ``[(cycle, value), ...]`` for a signal
        across the retained time-travel window.

        One implementation serves every backend: the retained cycles come
        from :attr:`timeline` and each sample is read through the same
        ``set_time``/``get_value`` path reverse debugging uses, so live
        and replayed runs answer identically.  The current time (and, on
        the live simulator, the finished flag) is restored afterwards;
        set-time callbacks fire for every hop, exactly as they would for
        manual jumps.
        """
        tl = self.timeline
        if tl is None or not self.can_set_time:
            raise SimulatorError(
                f"{type(self).__name__} keeps no history; enable snapshots "
                f"(live) or replay a trace"
            )
        t0 = self.get_time()
        token = self._retain_current_time()
        out: list[tuple[int, int]] = []
        try:
            for t in tl.times():
                if start is not None and t < start:
                    continue
                if end is not None and t > end:
                    break
                self.set_time(t)
                out.append((t, self.get_value(path)))
        finally:
            self._restore_current_time(t0, token)
        return out

    def _retain_current_time(self):
        """Backend hook before a history walk: make the *current* time a
        valid ``set_time`` target (the live simulator records a snapshot;
        a trace already retains everything).  Returns an opaque token for
        :meth:`_restore_current_time`."""
        return None

    def _restore_current_time(self, t0: int, token) -> None:
        """Backend hook after a history walk: return to ``t0``."""
        if self.get_time() != t0:
            self.set_time(t0)

    # Time-jump notification: backends that implement set_time call
    # _notify_set_time after restoring state, so per-cycle observers
    # (watchpoints tracking last-seen values, most notably) can re-prime
    # against the restored state instead of comparing across the jump.

    def add_set_time_callback(self, fn) -> int:
        """Register ``fn(sim, time)`` to run after every successful
        ``set_time``.  Returns an id for :meth:`remove_set_time_callback`."""
        cbs = self.__dict__.setdefault("_set_time_callbacks", {})
        cb_id = self.__dict__.get("_next_set_time_cb_id", 1)
        self.__dict__["_next_set_time_cb_id"] = cb_id + 1
        cbs[cb_id] = fn
        return cb_id

    def remove_set_time_callback(self, cb_id: int) -> None:
        """Unregister a time-jump callback by id."""
        self.__dict__.get("_set_time_callbacks", {}).pop(cb_id, None)

    def _notify_set_time(self, time: int) -> None:
        for fn in tuple(self.__dict__.get("_set_time_callbacks", {}).values()):
            fn(self, time)

    @property
    def is_replay(self) -> bool:
        """True when this backend replays a trace (no live stimulus)."""
        return False

    # -- batch driving -----------------------------------------------------

    def run_cycles(
        self,
        cycles: int,
        stimulus=None,
        on_progress=None,
        progress_every: int = 0,
    ) -> int:
        """Drive the backend for up to ``cycles`` clock cycles.

        The non-interactive run loop shard workers and batch jobs share:
        per cycle, ``stimulus(sim, cycle)`` (when given) applies input
        pokes *before* the clock edge, then time advances one cycle; every
        ``progress_every`` completed cycles ``on_progress(sim, done)``
        reports liveness.  Stops early when the backend reports completion
        (a fired ``Stop``, or the end of a replayed trace).  Returns the
        number of cycles actually run.

        The default implementation drives any backend exposing a
        ``step(cycles)`` method (both the live simulator and the replay
        engine do); backends without one must override.
        """
        step = getattr(self, "step", None)
        if step is None:
            raise SimulatorError(f"{type(self).__name__} cannot advance time")
        done = 0
        for cycle in range(cycles):
            if getattr(self, "finished", False) or getattr(self, "at_end", False):
                break
            if stimulus is not None:
                stimulus(self, cycle)
            step(1)
            done += 1
            if (
                on_progress is not None
                and progress_every
                and done % progress_every == 0
            ):
                on_progress(self, done)
        return done
