"""The hgdb debugger runtime.

Connects a simulation backend (live simulator or trace replay — any
:class:`~repro.sim.interface.SimulatorInterface`) with a symbol table and
implements the breakpoint scheduling loop of paper Fig. 2:

1. at every clock posedge, select the next group of breakpoints sharing a
   source location (pre-computed lexical order);
2. evaluate each breakpoint's enable condition and optional user condition
   against the stable simulation state;
3. on a hit, reconstruct one stack frame per concurrent instance and hand
   the batch to the client;
4. apply the client's command (continue / step / reverse-step / ...) and
   loop.

Reversing the group selection order yields *intra-cycle reverse debugging*;
when the backend supports ``set_time`` (snapshots or trace replay), reverse
debugging extends across cycles (Sec. 3.2).

The clock callback is registered only while the runtime is *armed* — a
breakpoint or watchpoint inserted, step mode, or a pending pause — so an
attached runtime with nothing armed costs the simulation nothing per
cycle (the paper's Fig. 5 configuration, Sec. 4.3).  A pause requested
from another thread arms it; the simulator picks the callback up at the
next posedge.  While only breakpoints arm it, the callback carries a
*wake*: the OR of every inserted breakpoint's enable∧condition, so a
native ``run()`` leaves C only on cycles where one can hit (see
:meth:`Runtime._wake`).  When the hits only go to a :class:`HitRecorder`
it carries a *record program* instead, and the native kernel records
each hit without leaving C (:meth:`Runtime._record_program`).
"""

from __future__ import annotations

import enum
import functools
import threading
import weakref
from dataclasses import dataclass, field

from ..sim.interface import RecordProgram, SimulatorError, SimulatorInterface
from ..symtable.query import BreakpointRec, SymbolTableInterface
from . import expr_eval
from .frames import Frame, FrameBuilder, FramePlan
from .matching import instance_map
from .scheduler import Group, InsertedBreakpoint, Scheduler
from .watch import WatchStore, Watchpoint


class CommandKind(enum.Enum):
    CONTINUE = "continue"
    STEP = "step"
    REVERSE_STEP = "reverse_step"
    REVERSE_CONTINUE = "reverse_continue"
    DETACH = "detach"


@dataclass(frozen=True, slots=True)
class Command:
    kind: CommandKind


CONTINUE = Command(CommandKind.CONTINUE)
STEP = Command(CommandKind.STEP)
REVERSE_STEP = Command(CommandKind.REVERSE_STEP)
REVERSE_CONTINUE = Command(CommandKind.REVERSE_CONTINUE)
DETACH = Command(CommandKind.DETACH)


@dataclass(slots=True)
class HitGroup:
    """Delivered to the client when a scheduling group hits: one frame per
    concurrent hardware thread (paper Fig. 4B).

    Each frame is kept as its breakpoint and the values its frame plan
    read at the hit (``reads``): :attr:`frames` builds the :class:`Frame`
    objects on first read, and :meth:`to_record` never builds them.

    Watchpoint hits reuse the same shape with ``watch`` set to
    ``{"id", "label", "path", "old", "new"}`` and no frames.
    """

    time: int
    filename: str
    line: int
    column: int
    reads: list[tuple[BreakpointRec, list]] = field(default_factory=list)
    builder: FrameBuilder | None = field(default=None, repr=False)
    watch: dict | None = None
    _frames: list[Frame] | None = field(default=None, repr=False)

    @property
    def location(self) -> str:
        return f"{self.filename}:{self.line}"

    @property
    def frames(self) -> list[Frame]:
        if self._frames is None:
            self._frames = [
                self.builder.build(bp, self.time, values)
                for bp, values in self.reads
            ]
        return self._frames

    def to_record(self) -> dict:
        """A JSON-serializable rendering of this hit.

        This is the record the cross-shard aggregator reads (the shard
        wire ships it as values, see :class:`HitRecorder`): plain
        dicts/lists/ints/strs only, with each frame as its
        :meth:`Frame.to_dict`.
        """
        rec: dict = {
            "time": self.time,
            "filename": self.filename,
            "line": self.line,
            "column": self.column,
        }
        if self.reads:
            rec["frames"] = [
                self.builder.plan(bp).record(values, self.time)
                for bp, values in self.reads
            ]
        if self.watch is not None:
            rec["watch"] = dict(self.watch)
        return rec


@dataclass(frozen=True, slots=True)
class HitPlan:
    """How one breakpoint's frames render in hits kept as values.

    ``frame`` is the breakpoint's :class:`~repro.core.frames.FramePlan`,
    ``column`` the breakpoint's column (a breakpoint hit is located at
    its first frame's breakpoint: its scheduling group's key), and every
    frame of this breakpoint carries exactly ``values`` values.
    """

    frame: FramePlan
    column: int
    values: int

    def to_wire(self) -> dict:
        return {
            "column": self.column,
            "values": self.values,
            "plan": self.frame.to_wire(),
        }

    @classmethod
    def from_wire(cls, rec: dict) -> HitPlan:
        return cls(FramePlan(**rec["plan"]), rec["column"], rec["values"])


def hit_record(row, plans: dict) -> dict:
    """The :meth:`HitGroup.to_record` dict of a hit kept as values.

    ``row`` is ``[time, [[breakpoint id, values], ...]]``, or, for a hit
    without frames (a watch hit), its record itself.  ``plans`` maps
    breakpoint ids to :class:`HitPlan`.
    """
    if type(row) is dict:
        return row
    time, frames = row
    first = plans[frames[0][0]]
    return {
        "time": time,
        "filename": first.frame.filename,
        "line": first.frame.line,
        "column": first.column,
        "frames": [plans[bp].frame.record(values, time) for bp, values in frames],
    }


class HitRecorder:
    """A non-interactive hit sink: collect hits as their values.

    Usable anywhere a ``Runtime`` ``on_hit`` handler is expected — batch
    jobs, shard workers, CI scripts — where nobody sits at a console.
    Each hit is kept in :attr:`hits` as the values its frames read (the
    row form :func:`hit_record` renders, which is how a shard result
    ships it), and each breakpoint's :class:`HitPlan` once in
    :attr:`plans`; :attr:`records` renders the :meth:`HitGroup.to_record`
    dicts when read.  ``stream`` (when given) is called as
    ``stream(row, new_plans)`` as each hit lands, with the plans of the
    breakpoints this is the first hit of; ``limit`` detaches the runtime
    after that many hits so a hot breakpoint cannot stall a long batch
    run.
    """

    def __init__(self, stream=None, limit: int | None = None):
        self.hits: list = []
        self.plans: dict[int, HitPlan] = {}
        self.stream = stream
        self.limit = limit

    def __len__(self) -> int:
        return len(self.hits)

    @property
    def records(self) -> list[dict]:
        """Every hit's :meth:`HitGroup.to_record` dict."""
        plans = self.plans
        return [hit_record(row, plans) for row in self.hits]

    def __call__(self, hit: HitGroup) -> Command:
        new = []
        if hit.reads:
            plans = self.plans
            for bp, values in hit.reads:
                if bp.id not in plans:
                    plan = plans[bp.id] = HitPlan(
                        hit.builder.plan(bp), bp.column, len(values)
                    )
                    new.append(plan)
            row = [hit.time, [[bp.id, values] for bp, values in hit.reads]]
        else:
            row = hit.to_record()
        return self._append(row, new)

    def extend(self, rows, plan) -> None:
        """Keep hits already in row form (``[time, [[breakpoint id, values],
        ...]]``) as a call keeps them, ``plan(bp_id, values)`` making the
        :class:`HitPlan` of a breakpoint's first hit.  The native kernel's
        hits arrive this way, never past ``limit``."""
        plans = self.plans
        for row in rows:
            new = []
            for bp_id, values in row[1]:
                if bp_id not in plans:
                    plans[bp_id] = plan(bp_id, values)
                    new.append(plans[bp_id])
            self._append(row, new)

    def _append(self, row, new: list) -> Command:
        self.hits.append(row)
        if self.stream is not None:
            self.stream(row, new)
        if self.limit is not None and len(self.hits) >= self.limit:
            return DETACH
        return CONTINUE


class DebuggerError(Exception):
    """Raised on invalid debugger operations."""


@functools.lru_cache(maxsize=1024)
def _group_code(source: str):
    """A scheduling group's compiled condition source.  The source binds
    only value-table indices and names its namespace provides, so every
    runtime with the same group (each shard of a sweep, each hub session)
    compiles it once per process."""
    return compile(source, "<repro-group-cond>", "exec")


class Runtime:
    """The hgdb runtime (Fig. 1 center box).

    Args:
        sim: any simulation backend implementing the unified interface.
        symtable: any symbol table implementing the unified interface
            (native SQLite, RPC client, or an in-memory copy).
        on_hit: synchronous handler called with a :class:`HitGroup`;
            returns the next :class:`Command`.  While the handler runs the
            simulator is paused — exactly like a blocking VPI callback.

    The simulator reaches a runtime's callbacks only through a weak
    reference (so a dropped pair is freed without the cyclic collector):
    keep the runtime referenced for as long as it debugs.
    """

    def __init__(
        self,
        sim: SimulatorInterface,
        symtable: SymbolTableInterface,
        on_hit=None,
        compile_conditions: bool = True,
    ):
        self.sim = sim
        self.symtable = symtable
        # `is None`, not truthiness: a stateful handler object (e.g. an
        # empty HitRecorder, whose __len__ is 0) must not be dropped.
        self._on_hit = on_hit if on_hit is not None else (lambda hit: CONTINUE)
        self.instance_map = instance_map(symtable, sim.hierarchy())
        self.frames = FrameBuilder(symtable, sim, self.instance_map)
        self.scheduler = Scheduler(symtable)
        self.watchpoints = WatchStore(sim)
        self.warnings: list[str] = []
        self._warned: set[str] = set()
        self._cb_id: int | None = None
        self._cb_wake = None  # the wake the registered callback carries
        self._time_cb_id: int | None = None
        self._attached = False
        # Arming and the clock-callback registration change together under
        # this lock: a pause request arrives on hub and session threads
        # while the simulator thread may be disarming after a hit.
        self._arm_lock = threading.RLock()
        # Debugger-driven pokes (a client's set_value from an on_hit
        # handler) are lazy on the fast engine; flush before re-reading
        # the value table so compiled conditions see settled state.
        self._flush = getattr(sim, "flush", None)
        self._step_mode = False
        self._pause_requested = False
        self._armed = False  # anything to do at a posedge?
        # Compiled-condition fast path: breakpoint enable∧user conditions
        # are exec-compiled into one closure per scheduling group, with
        # names pre-resolved at compile time.  On a live Simulator names
        # bind directly to value-table indices (no per-eval dict lookups);
        # other backends bind to pre-resolved get_value paths.
        self._compile_conditions = compile_conditions
        # On a live Simulator, bind the value store's raw buffers: the
        # narrow lane buffer is what compiled closures index (`_v[i]`),
        # and >64-bit signals resolve through the wide overflow dict
        # (`_w[i]`) — never through a per-eval path lookup.
        store = getattr(sim, "store", None)
        self._sim_store = store
        self._sim_values = store.narrow if store is not None else getattr(sim, "values", None)
        self._sim_wide = store.wide if store is not None else None
        design = getattr(sim, "design", None)
        self._signal_index = getattr(design, "signal_index", None)
        # Breakpoint wakes bind names to a live simulator's narrow lanes.
        self._wakes_ok = self._sim_wide is not None
        # stats_callbacks: posedges of earlier attached spans, and the
        # backend's posedge count when the current span began.
        self._posedges_before = 0
        self._posedges_at_attach = 0
        # stats_bp_evals: evaluations Python ran, and for the registered
        # wake its breakpoint count and the engine's native cycle count
        # when it was registered.
        self._bp_evals = 0
        self._wake_terms = 0
        self._native_at_wake = 0
        # The last record program built, and what it was built from.
        self._record_cache: tuple | None = None
        # The clock callback reaches this runtime through a weak reference,
        # so an armed attached runtime and its backend form no reference
        # cycle either.
        self_ref = weakref.ref(self)

        def on_clock(sim) -> None:
            rt = self_ref()
            if rt is not None:
                rt._on_clock(sim)

        self._clock_fn = on_clock

    @property
    def on_hit(self):
        """The hit handler.  Replacing it re-derives what the clock
        callback carries: only a :class:`HitRecorder` lets the kernel
        record hits."""
        return self._on_hit

    @on_hit.setter
    def on_hit(self, handler) -> None:
        self._on_hit = handler if handler is not None else (lambda hit: CONTINUE)
        self._update_armed()

    # -- attachment -------------------------------------------------------

    def attach(self) -> None:
        """Attach to the simulator (paper Sec. 3.3).  The clock-edge
        callback is registered whenever something is armed."""
        with self._arm_lock:
            if self._attached:
                return
            self._attached = True
            self._posedges_at_attach = self._posedges()
            # Rewind hook: any set_time (reverse debugging, or a client
            # jumping around directly) re-primes watchpoint `last` values
            # against the restored state.  It reaches this runtime through
            # a weak reference, so an idle attached runtime and its backend
            # form no reference cycle and are freed as soon as both are
            # dropped.
            self_ref = weakref.ref(self)

            def on_set_time(sim, time: int) -> None:
                rt = self_ref()
                if rt is not None:
                    rt.watchpoints.rewound(sim)

            self._time_cb_id = self.sim.add_set_time_callback(on_set_time)
            self._sync_clock_callback()

    def detach(self) -> None:
        with self._arm_lock:
            if not self._attached:
                return
            self._posedges_before = self.stats_callbacks
            self._attached = False
            self._sync_clock_callback()
            self.sim.remove_set_time_callback(self._time_cb_id)

    @property
    def attached(self) -> bool:
        return self._attached

    def _sync_clock_callback(self) -> None:
        """Register the clock callback iff attached and armed, carrying the
        current wake; re-register only when the wake changes (under
        ``_arm_lock``)."""
        want = self._attached and self._armed
        wake = self._wake() if want else None
        if self._cb_id is not None and not (want and wake == self._cb_wake):
            self._bp_evals = self.stats_bp_evals
            self._wake_terms = 0
            self.sim.remove_clock_callback(self._cb_id)
            self._cb_id = None
        if want and self._cb_id is None:
            self._cb_wake = wake
            if wake is not None:
                self._wake_terms = len(self.scheduler.inserted)
                self._native_at_wake = self.sim.native_cycles
            self._cb_id = self.sim.add_clock_callback(self._clock_fn, wake)

    @property
    def stats_bp_evals(self) -> int:
        """Breakpoint condition evaluations.  On a cycle the native kernel
        ran under this runtime's wake, no breakpoint could hit, and the
        Python scan would have evaluated each inserted breakpoint once:
        those count from the engine's native cycle count, at no cost per
        cycle."""
        n = self._bp_evals
        if self._wake_terms:
            n += self._wake_terms * (self.sim.native_cycles - self._native_at_wake)
        return n

    def _posedges(self) -> int:
        """The backend's posedge count (the live engines count ticks); a
        trace replay, which counts none, stands in its cycle cursor."""
        stats = getattr(self.sim, "stats", None)
        return stats()["ticks"] if stats is not None else self.sim.get_time()

    @property
    def stats_callbacks(self) -> int:
        """Posedges seen while attached: the clock callbacks run while
        armed plus the posedges with no callback registered (idle) or run
        natively under its wake.
        Derived from the backend's posedge count, so it costs nothing per
        cycle and is never negative; on the live engines it never falls,
        a ``set_time`` rewind included."""
        n = self._posedges_before
        if self._attached:
            n += max(0, self._posedges() - self._posedges_at_attach)
        return n

    # -- breakpoint management ------------------------------------------------

    def resolve_filename(self, filename: str) -> str | None:
        """Match a user-supplied (possibly partial) filename against the
        symbol table's absolute paths."""
        known = self.symtable.filenames()
        if filename in known:
            return filename
        matches = [
            k for k in known
            if k.endswith("/" + filename) or k.rsplit("/", 1)[-1] == filename
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def _set_step_mode(self, on: bool) -> None:
        if on != self._step_mode:
            self._step_mode = on
            self._update_armed()

    def _update_armed(self) -> None:
        """Re-derive arming and the callback's wake: every change to
        breakpoints, watchpoints, step mode or a pending pause ends here."""
        with self._arm_lock:
            self._armed = bool(
                self.scheduler.inserted
                or self._step_mode
                or self._pause_requested
                or len(self.watchpoints)
            )
            self._sync_clock_callback()

    def add_breakpoint(
        self, filename: str, line: int, column: int | None = None,
        condition: str | None = None,
    ) -> list[InsertedBreakpoint]:
        """Insert all emulated breakpoints for a source location.

        One source line can map to several emulated breakpoints (loop
        unrolling + SSA, paper Listings 1/2) across several instances; all
        of them are inserted, as the paper prescribes (Sec. 3.2).
        """
        resolved = self.resolve_filename(filename)
        if resolved is None:
            raise DebuggerError(f"unknown source file {filename!r}")
        recs = self.symtable.breakpoints_at(resolved, line, column)
        if not recs:
            raise DebuggerError(f"no statement maps to {filename}:{line}")
        out = [self.scheduler.insert(rec, condition) for rec in recs]
        self._update_armed()
        return out

    def remove_breakpoint(self, bp_id: int) -> bool:
        removed = self.scheduler.remove(bp_id)
        self._update_armed()
        return removed

    def clear_breakpoints(self) -> None:
        self.scheduler.clear()
        self._update_armed()

    def ignore(self, bp_id: int, count: int) -> bool:
        """Skip breakpoint ``bp_id``'s next ``count`` hits (gdb's
        ``ignore``); False when it is not inserted."""
        bp = self.scheduler.inserted.get(bp_id)
        if bp is None:
            return False
        bp.ignore_count = count
        self._update_armed()
        return True

    def list_breakpoints(self) -> list[InsertedBreakpoint]:
        return sorted(self.scheduler.inserted.values(), key=lambda b: b.rec.id)

    def add_watchpoint(
        self,
        name: str,
        instance: str | None = None,
        condition: str | None = None,
    ) -> Watchpoint:
        """Watch a signal for value changes (a data breakpoint).

        ``name`` may be a full simulator path, an RTL name local to
        ``instance`` (default: the design top), or a source-level variable
        resolvable through the symbol table.  ``condition`` may reference
        ``old``/``new``/``value``.
        """
        path = self._resolve_watch_path(name, instance)
        wp = self.watchpoints.add(path, name, condition)
        if wp.error is not None:
            # Unresolvable at compile time (e.g. an unknown name): surface
            # through the warning channel now; the first change event also
            # carries it once, then the watchpoint reports unconditionally.
            self._warn_once(wp.error)
        self._update_armed()
        return wp

    def remove_watchpoint(self, wp_id: int) -> bool:
        removed = self.watchpoints.remove(wp_id)
        self._update_armed()
        return removed

    def _resolve_watch_path(self, name: str, instance: str | None) -> str:
        inst = instance or self.symtable.top_name()
        base = self.instance_map.get(inst, inst)
        candidates = [name, f"{base}.{name}"]
        # Source-level name: resolve through any breakpoint scope of the
        # instance (the scope tables carry the variable -> RTL mapping).
        for bp in self.symtable.all_breakpoints():
            if bp.instance_name != inst:
                continue
            rtl = self.symtable.resolve_scoped_var(bp.id, name)
            if rtl is not None:
                candidates.append(f"{base}.{rtl}")
            break
        for path in candidates:
            try:
                self.sim.get_value(path)
                return path
            except SimulatorError:
                continue
        raise DebuggerError(f"cannot resolve watch target {name!r}")

    def request_pause(self) -> None:
        """Stop at the next potential breakpoint (async 'pause' button).

        Safe from any thread: an idle runtime registers its clock callback
        here, and the simulator runs it from the next posedge on."""
        with self._arm_lock:
            self._pause_requested = True
            self._update_armed()

    # -- condition evaluation ---------------------------------------------------

    def _warn_once(self, message: str) -> None:
        if message not in self._warned:
            self._warned.add(message)
            self.warnings.append(message)

    def _rtl_resolver(self, instance_name: str):
        base = self.instance_map.get(instance_name, instance_name)

        def resolve(name: str) -> int:
            try:
                return self.sim.get_value(f"{base}.{name}")
            except SimulatorError as exc:
                raise expr_eval.ExprError(str(exc)) from exc

        return resolve

    def _scope_resolver(self, bp: BreakpointRec):
        """Resolve source-level names to values (see :meth:`_scope_binder`)."""
        return self._scope_binder(bp, self._rtl_resolver(bp.instance_name), int)

    # -- compiled conditions (the per-cycle fast path) ----------------------

    def _bind_path(self, path: str, env: dict) -> str:
        """Bind a full simulator path to a Python fragment: a direct value-
        table index on a live simulator (the wide overflow dict for >64-bit
        signals), a pre-resolved getter call elsewhere.  Raises ExprError
        when the signal does not exist."""
        try:
            self.sim.get_value(path)
        except SimulatorError as exc:
            raise expr_eval.ExprError(str(exc)) from exc
        if self._sim_values is not None and self._signal_index is not None:
            idx = self._signal_index.get(path)
            if idx is not None:
                if self._sim_wide is not None and idx in self._sim_wide:
                    return f"_w[{idx}]"
                return f"_v[{idx}]"
        key = f"_p{len(env)}"
        env[key] = path
        return f"_g({key})"

    def _rtl_binder(self, instance_name: str, env: dict):
        base = self.instance_map.get(instance_name, instance_name)

        def bind(name: str) -> str:
            return self._bind_path(f"{base}.{name}", env)

        return bind

    def _wake_binder(self, instance_name: str):
        """Bind RTL names to wake leaves: narrow value-table lanes."""
        base = self.instance_map.get(instance_name, instance_name)

        def bind(name: str) -> tuple:
            idx = self._signal_index.get(f"{base}.{name}")
            if idx is None or idx in self._sim_wide:
                raise expr_eval.ExprError(f"{base}.{name} has no 64-bit lane")
            return ("sig", idx)

        return bind

    def _scope_binder(self, bp: BreakpointRec, rtl, const=repr):
        """Resolve a source-level name: a scoped variable, a generator
        variable, then a raw RTL name within the instance.  ``rtl(name)``
        binds an RTL name and ``const(value)`` a numeric generator
        variable, so one search serves values, compiled Python source and
        wake leaves."""

        def bind(name: str):
            local = self.symtable.resolve_scoped_var(bp.id, name)
            if local is not None:
                return rtl(local)
            var = self.symtable.resolve_instance_var(bp.instance_id, name)
            if var is not None:
                if var.is_rtl:
                    return rtl(var.value)
                try:
                    return const(int(var.value, 0))
                except ValueError as exc:
                    raise expr_eval.ExprError(
                        f"generator variable {name!r} is not numeric"
                    ) from exc
            return rtl(name)

        return bind

    def _bp_condition_source(self, bp: InsertedBreakpoint, env: dict) -> str:
        """Python source for one breakpoint's enable∧user condition, with
        the interpreter's warning semantics applied at compile time."""
        parts = []
        if bp.enable_ast is not None:
            try:
                parts.append(
                    expr_eval.to_python(
                        bp.enable_ast,
                        self._rtl_binder(bp.rec.instance_name, env),
                    )
                )
            except expr_eval.ExprError as exc:
                self._warn_once(
                    f"enable condition {bp.rec.enable!r} unevaluable "
                    f"({exc}); treating as always-on"
                )
        if bp.condition_ast is not None:
            try:
                rtl = self._rtl_binder(bp.rec.instance_name, env)
                parts.append(
                    expr_eval.to_python(
                        bp.condition_ast, self._scope_binder(bp.rec, rtl)
                    )
                )
            except expr_eval.ExprError as exc:
                self._warn_once(
                    f"breakpoint condition {bp.condition_src!r} failed: {exc}"
                )
                return "0"
        if not parts:
            return "1"
        return "(" + ") and (".join(parts) + ")"

    def _compile_group(self, group: Group):
        """Compile a whole scheduling group into one batched evaluator
        ``fn(narrow, wide) -> [passing breakpoint positions]`` over one
        value table's buffers.  Returns False on failure (callers fall back
        to the interpreter)."""
        try:
            env: dict = dict(expr_eval.COMPILE_HELPERS)
            env["_g"] = self.sim.get_value
            conds = [
                self._bp_condition_source(bp, env) for bp in group.breakpoints
            ]
            lines = ["def _grp(_v, _w):", "    out = []"]
            for j, src in enumerate(conds):
                lines.append(f"    if {src}: out.append({j})")
            lines.append("    return out")
            exec(_group_code("\n".join(lines)), env)
            # Popped, so the closure and its globals (which hold the
            # backend) form no reference cycle.
            return env.pop("_grp")
        except Exception:
            return False

    def _wake(self):
        """The wake the clock callback carries: the OR over inserted
        breakpoints of enable∧condition, or in its place the
        :meth:`_record_program` when there is one.  None (every posedge
        stays Python) while a watchpoint, step mode or a pause is armed,
        without compiled scalar conditions on a live simulator's value
        table, or when a breakpoint has no exact wake term."""
        ready = self._wakes_ok and self._compile_conditions
        if not ready or self._step_mode or self._pause_requested:
            return None
        if len(self.watchpoints) or not self.scheduler.inserted:
            return None
        wake = None
        for bp in list(self.scheduler.inserted.values()):
            if bp.wake is None:
                bp.wake = self._bp_wake(bp)
            if bp.wake is False:
                return None
            wake = bp.wake if wake is None else ("||", wake, bp.wake)
        return self._record_program() or wake

    def _record_program(self) -> RecordProgram | None:
        """What the kernel records in place of the Python scan, when hits
        only go to a :class:`HitRecorder`, no inserted breakpoint has an
        ignore count, and every value of each breakpoint's frame plan sits
        in a narrow lane: per scheduling group (:meth:`Scheduler.groups`
        order), each breakpoint's wake term and the lanes
        :meth:`FrameBuilder.read` reads.  A recorder's ``limit`` becomes
        the program's budget, so the hit that detaches always runs in
        Python.  The program last built is reused while nothing changed,
        so the callback is not re-registered.  Callers have every
        breakpoint's wake term cached."""
        recorder = self._on_hit
        if type(recorder) is not HitRecorder:
            return None
        groups = []
        for group in self.scheduler.groups():
            members = []
            for bp in group.breakpoints:
                lanes = self.frames.lanes(bp.rec)
                if bp.ignore_count or lanes is None:
                    return None
                members.append((bp.id, bp.wake, lanes))
            groups.append(tuple(members))
        groups = tuple(groups)
        # The breakpoints themselves, by identity: one removed and inserted
        # again is a new object whose hits the old program must not count.
        # The cached program holds them, so their ids stay theirs.
        bps = {bp.id: bp for bp in self.scheduler.inserted.values()}
        key = (groups, recorder, tuple(map(id, bps.values())))
        cached = self._record_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        self_ref = weakref.ref(self)

        def adopt(rows) -> None:
            rt = self_ref()
            if rt is not None:
                rt._adopt(recorder, bps, rows)

        def budget() -> int | None:
            limit = recorder.limit
            return None if limit is None else limit - len(recorder)

        program = RecordProgram(groups, adopt, budget)
        self._record_cache = (key, program)
        return program

    def _adopt(self, recorder: HitRecorder, bps: dict, rows) -> None:
        """Keep the rows the kernel recorded (by breakpoint id, ``bps``)
        exactly as the Python scan keeps hits: one per group that held,
        each breakpoint's ``hit_count`` bumped.  The program's budget
        leaves the hit that reaches a recorder's ``limit`` to Python."""
        for _time, hits in rows:
            for bp_id, _values in hits:
                bps[bp_id].hit_count += 1
        frames = self.frames

        def plan(bp_id: int, values: list) -> HitPlan:
            rec = bps[bp_id].rec
            return HitPlan(frames.plan(rec), rec.column, len(values))

        recorder.extend(rows, plan)

    def _bp_wake(self, bp: InsertedBreakpoint):
        """One breakpoint's enable∧condition as a wake term, or False when
        it has neither or either has no exact form.  Every case where the
        Python path warns raises ExprError here, so it stays Python and
        warns as before."""
        rtl = self._wake_binder(bp.rec.instance_name)
        scope = self._scope_binder(bp.rec, rtl, lambda v: ("num", v))
        asts = ((bp.enable_ast, rtl), (bp.condition_ast, scope))
        try:
            parts = [expr_eval.to_wake(a, b) for a, b in asts if a is not None]
        except expr_eval.ExprError:
            return False
        if not parts:
            return False
        return parts[0] if len(parts) == 1 else ("&&", *parts)

    def _eval_group(self, group: Group) -> list:
        """All breakpoints of a group that hit this cycle."""
        bps = group.breakpoints
        if not self._compile_conditions:
            return [bp for bp in bps if self._bp_hits(bp)]
        fn = group.compiled
        if fn is None:
            fn = self._compile_group(group)
            group.compiled = fn
        if fn is False:
            return [bp for bp in bps if self._bp_hits(bp)]
        self._bp_evals += len(bps)
        hits = []
        for j in fn(self._sim_values, self._sim_wide):
            bp = bps[j]
            bp.hit_count += 1
            if bp.ignore_count > 0:
                bp.ignore_count -= 1
                continue
            hits.append(bp)
        return hits

    def _bp_hits(self, bp: InsertedBreakpoint) -> bool:
        self._bp_evals += 1
        if bp.enable_ast is not None:
            try:
                if not expr_eval.evaluate(bp.enable_ast, self._rtl_resolver(bp.rec.instance_name)):
                    return False
            except expr_eval.ExprError as exc:
                self._warn_once(
                    f"enable condition {bp.rec.enable!r} unevaluable "
                    f"({exc}); treating as always-on"
                )
        if bp.condition_ast is not None:
            try:
                if not expr_eval.evaluate(bp.condition_ast, self._scope_resolver(bp.rec)):
                    return False
            except expr_eval.ExprError as exc:
                self._warn_once(
                    f"breakpoint condition {bp.condition_src!r} failed: {exc}"
                )
                return False
        bp.hit_count += 1
        if bp.ignore_count > 0:
            bp.ignore_count -= 1
            return False
        return True

    def evaluate(self, expr: str, bp: BreakpointRec | None = None) -> int:
        """Evaluate a user expression, in a breakpoint's scope when given
        (the debugger's ``p``/watch functionality)."""
        if bp is not None:
            return expr_eval.evaluate_str(expr, self._scope_resolver(bp))
        top = self.symtable.top_name()
        return expr_eval.evaluate_str(expr, self._rtl_resolver(top))

    # -- the Fig. 2 scheduling loop -------------------------------------------

    def _on_clock(self, sim) -> None:
        # Registered only while armed; a disarm racing this posedge from
        # another thread lands here once more.
        if not self._armed:
            return
        if self._flush is not None:
            # An earlier clock callback this cycle may have poked (lazy on
            # the fast engine); settle before reading the value table.
            self._flush()
        if len(self.watchpoints):
            self._check_watchpoints()
            if not self._attached:
                return
        if self.scheduler.inserted or self._step_mode or self._pause_requested:
            self._scan_cycle()

    def _check_watchpoints(self) -> None:
        for wp, old, new in self.watchpoints.changed(self.sim):
            watch = {
                "id": wp.id,
                "label": wp.label,
                "path": wp.path,
                "old": old,
                "new": new,
            }
            if wp.error is not None and not wp.error_reported:
                wp.error_reported = True
                self._warn_once(wp.error)
                watch["error"] = wp.error
            hit = HitGroup(
                time=self.sim.get_time(),
                filename="<watch>",
                line=0,
                column=0,
                watch=watch,
            )
            cmd = self.on_hit(hit)
            if self._flush is not None:
                self._flush()  # client may have poked from the handler
            kind = cmd.kind if isinstance(cmd, Command) else CommandKind(cmd)
            if kind is CommandKind.DETACH:
                self.detach()
                return
            self._set_step_mode(kind in (CommandKind.STEP, CommandKind.REVERSE_STEP))

    def _groups(self) -> list[Group]:
        return self.scheduler.groups(all_bps=self._step_mode)

    def _index_for(self, groups: list[Group], key, direction: int) -> int:
        """First index to scan (exclusive of ``key``) in ``direction``."""
        if direction > 0:
            for i, g in enumerate(groups):
                if g.key > key:
                    return i
            return len(groups)
        for i in range(len(groups) - 1, -1, -1):
            if groups[i].key < key:
                return i
        return -1

    def _scan_cycle(self) -> None:
        direction = 1
        groups = self._groups()
        idx = 0
        if self._pause_requested:
            self._pause_requested = False
            self._step_mode = True
            self._update_armed()
            groups = self._groups()

        while True:
            hit_idx, hits = self._find_hit(groups, idx, direction)
            if hit_idx is None:
                if direction > 0:
                    return  # cycle scan complete; simulation proceeds
                # Reverse past the beginning of the cycle: previous cycle.
                if not self._reverse_time():
                    self._warn_once(
                        "cannot reverse beyond current history; stopping at "
                        "earliest available state"
                    )
                    direction = 1
                    idx = 0
                    continue
                groups = self._groups()
                idx = len(groups) - 1
                continue

            group = groups[hit_idx]
            frames = self.frames
            hit = HitGroup(
                time=self.sim.get_time(),
                filename=group.key[0],
                line=group.key[1],
                column=group.key[2],
                reads=[(bp.rec, frames.read(bp.rec)) for bp in hits],
                builder=frames,
            )
            cmd = self.on_hit(hit)
            if self._flush is not None:
                self._flush()  # client may have poked from the handler
            kind = cmd.kind if isinstance(cmd, Command) else CommandKind(cmd)

            if kind is CommandKind.DETACH:
                self.detach()
                return
            self._set_step_mode(kind in (CommandKind.STEP, CommandKind.REVERSE_STEP))
            direction = -1 if kind in (
                CommandKind.REVERSE_STEP, CommandKind.REVERSE_CONTINUE
            ) else 1
            groups = self._groups()
            idx = self._index_for(groups, group.key, direction)
            if direction > 0 and kind is CommandKind.CONTINUE and not self.scheduler.inserted:
                return  # nothing to continue to; resume free-running

    def _find_hit(self, groups: list[Group], idx: int, direction: int):
        """Scan groups from ``idx`` in ``direction`` for the first hit."""
        while 0 <= idx < len(groups):
            hits = self._eval_group(groups[idx])
            if hits:
                return idx, hits
            idx += direction
        return None, []

    def _reverse_time(self) -> bool:
        sim = self.sim
        if not sim.can_set_time:
            return False
        t = sim.get_time()
        if t <= 0:
            return False
        # Ask the backend's timeline for the previous *retained* cycle: a
        # window that has evicted t-1 has none, and a trace that ends
        # before t-1 offers its last cycle, which beats failing.
        target = t - 1
        timeline = sim.timeline
        if timeline is not None:
            target = timeline.prev_time(t)
            if target is None:
                return False
        try:
            sim.set_time(target)
        except SimulatorError:
            return False
        return True
