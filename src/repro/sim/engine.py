"""The cycle-based RTL simulation engine.

Zero-delay synchronous semantics (the two facts hgdb's breakpoint emulation
relies on, paper Sec. 3): per cycle the engine settles all combinational
logic, fires clock-edge callbacks while every value is stable, then updates
registers and memories and advances time.

Two execution paths share the compiled design:

* the **reference path** (``fast=False``): every ``poke``/``set_value`` and
  every clock edge re-runs the full monolithic ``comb`` function;
* the **fast path** (``fast=True``, default): the engine tracks *which*
  signals changed and re-evaluates only their compiled fanout cones
  (``docs/performance.md``).  Pokes are **lazy** — they accumulate into a
  pending dirty set and the next settle point (a step, a read, an explicit
  ``flush()``/``batch()`` exit) evaluates one merged cone for the whole
  set.  A clock edge runs the same generated ``tick`` as the reference
  path and then re-settles the design's precomputed **tick cone** (every
  register's fanout plus every memory read), merged with any pending
  pokes into one cone; a design with an empty tick cone settles nothing.
  Property tests pin the two paths to bit-identical results.

Time travel (``set_time``, reverse debugging, windowed history) is owned
by the :mod:`repro.sim.timeline` subsystem: with ``snapshots=N`` the
simulator binds a :class:`~repro.sim.timeline.Timeline` to its value
store — keyframe+delta history of the last N cycles.  Recording scans
only the state signals (registers and inputs — O(state) + O(mem writes),
never the full value table or whole memories) and eviction folds the
head keyframe forward in O(delta).  See ``docs/time_travel.md``.

Signal values live in a :class:`~repro.sim.store.ValueStore`: a plain
``list[int]`` plus an overflow dict for signals wider than 64 bits.

Clock callbacks are read once per cycle, so a callback registered from
another thread (a debugger arming itself on a pause request) fires from
the next posedge on; an idle debugger registers nothing and costs
nothing per cycle.

``run()`` goes one step further when nothing observes single cycles —
``fast=True``, no trace sink, and no callback without a wake: it hands
the whole remaining budget to the design's native C kernel
(:mod:`repro.sim.native`), which returns before any cycle where a
callback's wake predicate holds, and falls back to the Python edge loop
for the cycles the kernel leaves to it.  Registering a callback
publishes the new combined wake and then sets the simulator's break
flag, which the kernel polls every cycle, so a callback registered
mid-run still fires from the next posedge.  Under a ``snapshots=N``
timeline a native segment is checkpointed before each kernel slice; when
the kernel returns, the last checkpoint before the window is restored,
the kernel re-runs up to the window, and Python steps the last N cycles,
so the timeline retains exactly what stepping would have recorded
(``docs/time_travel.md``).  ``run_cycles()`` takes the kernel too when
its stimulus is a *tape* (the shard stimulus): the kernel draws and pokes
each cycle's row itself (``docs/performance.md`` §8).  A callback registered
with a :class:`~repro.sim.interface.RecordProgram` (a runtime whose hits
only go to a recorder) is not a reason to leave C: the kernel records its
hits, and each ``Kernel.run`` hands them to the program before Python
runs another cycle (``docs/performance.md`` §12).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

from ..ir.stmt import Circuit
from ..obs import make_obs
from . import native
from .compiler import CompiledDesign, compile_design
from .interface import (
    HierNode,
    RecordProgram,
    SimulationFinished,
    SimulatorError,
    SimulatorInterface,
)
from .store import LANE_BITS, ValueStore
from .timeline import Timeline, TimelineError

#: ``run()`` steps in chunks of this many cycles; after the native kernel
#: returns early, Python finishes the chunk it stopped in.
_CHUNK = 1024


class _PrintfDispatcher:
    """Routes generated-code ``printf`` calls to the simulator currently
    stepping on each thread.

    The generated ``tick`` reaches its printf sink through one module
    global (``_pf``).  With several simulators sharing one
    :class:`CompiledDesign` — hub sessions on their own threads, inline
    shards interleaving on one thread — a plain closure there would send
    every design's output to whichever simulator installed it last.  The
    dispatcher is installed into the design's namespace once; each
    simulator binds its own sink at construction and again on every
    ``step`` entry (thread-local, so concurrently stepping sessions never
    see each other's binding)."""

    __slots__ = ("_tls",)

    def __init__(self):
        self._tls = threading.local()

    def bind(self, sink) -> None:
        self._tls.sink = sink

    def __call__(self, index: int, *args: int) -> None:
        self._tls.sink(index, *args)


@dataclass(frozen=True)
class SessionOptions:
    """The one session configuration record shared across the stack.

    ``Simulator``, ``ShardSession`` and the debug hub take their session
    settings only as ``options=SessionOptions(...)``, and a
    ``ManyWorldsSimulator`` batch builds every world's ``Simulator`` with
    it; ``options=None`` means ``SessionOptions()``.  Frozen: any assignment
    raises ``dataclasses.FrozenInstanceError`` (not slotted, which on
    CPython 3.11 answers a non-field name with a ``TypeError`` instead).
    """

    #: the value store's name, a class constant and not a field: there is
    #: one store (:mod:`repro.sim.store`).  It remains only for the
    #: value-store line of ``perfbench/run.py``'s run header, and can go
    #: with that line.
    store: ClassVar[str] = "list"
    #: observability depth (:mod:`repro.obs`): an :class:`~repro.obs.Obs`
    #: to share (how a shard worker's simulator reports into the shard's
    #: registry), a mode string (``"off"``/``"metrics"``/``"trace"``), or
    #: None to defer to ``repro.obs.configure`` then ``$REPRO_OBS``
    #: (default off).  The hot path is identical in every mode: per-cycle
    #: work bumps always-on plain ints and a registry collector folds them
    #: into metrics only when a snapshot is taken.
    obs: object = None
    #: compile-time lint gate (:mod:`repro.lint`).  None defers to
    #: ``$REPRO_LINT`` (default off); ``"warn"`` runs the linter and
    #: reports findings as a ``LintWarning``; ``"error"`` (or True)
    #: additionally raises ``LintError`` on error-severity findings (e.g.
    #: a combinational cycle) before compiling.  The gate only runs where
    #: the circuit is compiled — a shared ``compiled`` design is assumed
    #: already vetted.
    strict: object = None
    #: the dirty-set incremental comb path.  False re-runs the full
    #: ``comb`` function on every stimulus change — the reference
    #: semantics the fast path is tested against.
    fast: bool = True
    #: how many of the last cycles ``set_time`` (and so reverse stepping
    #: and reverse continue) can rewind to; 0 keeps no history.
    snapshots: int = 0


def compile_gated(
    circuit: Circuit,
    top_path: str | None,
    strict,
    obs,
    span: str = "sim.compile",
) -> CompiledDesign:
    """Lint-gate ``circuit`` at ``strict`` (see
    :attr:`SessionOptions.strict`), then compile it inside an ``obs`` span
    named ``span``."""
    from ..lint.engine import GATE_OFF, gate_circuit, resolve_gate

    mode = resolve_gate(strict)
    if mode != GATE_OFF:
        gate_circuit(circuit, mode, form="low", design=circuit.name)
    with obs.span(span, design=circuit.name):
        return compile_design(circuit, top_path)


class Simulator(SimulatorInterface):
    """Execute a compiled Low-form circuit.

    Args:
        circuit: the Low-form circuit (``design.low``).
        top_path: hierarchical prefix for the root instance (defaults to the
            main module name).  Use e.g. ``"TestHarness.dut"`` to emulate a
            testbench wrapper around the generated IP (paper Sec. 3.4).
        trace: an optional trace sink with ``begin(sim)`` / ``sample(sim)``
            methods (see ``repro.trace.VcdWriter.attach``).
        compiled: reuse an already-compiled design instead of compiling
            ``circuit`` again.  This is how the shard coordinator and the
            debug hub elaborate and compile once and have every worker or
            session build its own simulator instance for free.  Sharing is
            safe within one process too: each simulator owns its value
            store, memories, and timeline; printf output is routed
            per-stepping-simulator (see ``_PrintfDispatcher``); and the
            design's cone caches are value-independent.  Across forked
            processes each child owns a copy-on-write copy.
        options: the :class:`SessionOptions` — observability depth, lint
            gate, fast path and snapshot count.  ``stats()``
            reads the always-on counters directly and works at every
            observability depth, including off.
    """

    def __init__(
        self,
        circuit: Circuit,
        top_path: str | None = None,
        trace=None,
        compiled: CompiledDesign | None = None,
        options: SessionOptions | None = None,
    ):
        opt = options if options is not None else SessionOptions()
        self.obs = make_obs(opt.obs, proc="sim")
        if compiled is not None:
            self.design: CompiledDesign = compiled
        else:
            self.design = compile_gated(circuit, top_path, opt.strict, self.obs)
        design = self.design
        self.store = ValueStore(
            design.n_signals, design.wide_indices, design.state_indices
        )
        # The hot paths index the store's raw buffers directly; these
        # references are stable for the simulator's lifetime (the store
        # never rebinds them — generated code holds them across rewinds).
        self._v = self.store.narrow
        self._w = self.store.wide
        self.mems: list = self.design.initial_mems()
        self._fast = opt.fast
        self._time = 0
        self._finished: int | None = None
        self._callbacks: dict[int, tuple] = {}  # id -> (fn, wake)
        self._cb_list: tuple = ()
        self._cb_ids = itertools.count(1)
        self._cb_lock = threading.Lock()
        # Native free-run: the callbacks' combined wake program (None when
        # a callback has no wake), the record program the kernel runs in
        # place of one callback ((RecordProgram, native.Recording) or
        # None), the break flag the kernel polls every cycle (set by
        # add_clock_callback) and, while a kernel segment runs or is
        # re-executed for the timeline, (time, [cycles done]) for a live
        # get_time().
        self._wake = native.wake_program((), self.design)
        self._record: tuple | None = None
        self._native_brk = array("q", [0])
        self._native_seg: tuple | None = None
        # Settle bookkeeping (fast path): pokes accumulate indices into
        # `_dirty`, a clock edge sets `_pending_tick`; `_settle` evaluates
        # one merged cone for both.
        self._pending_full = False   # full comb required (reference / rewind)
        self._pending_tick = False   # tick cone owed after a clock edge
        self._dirty: set[int] = set()
        # Always-on stats: bare int increments on the hot path (cheaper
        # than any mode guard), folded into repro.obs metrics lazily by
        # the snapshot-time collector below, or read via stats().
        self._stat_ticks = 0
        self._stat_settle_full = 0
        self._stat_settle_seeds = 0
        self._stat_settle_tick = 0
        self._stat_native_cycles = 0
        self._stat_native_wakes = 0
        self._stat_native_hits = 0
        # Time travel: all history state (entry ring, delta baselines, the
        # memory-write journal the generated journaling tick feeds) lives
        # on the Timeline, bound to this simulator's store and memories.
        # A design whose memories exceed the timeline's word cap degrades
        # to register/input history with a one-time warning; a design with
        # no memories skips the journaling machinery entirely.
        self.timeline: Timeline | None = None
        if opt.snapshots:
            self.timeline = Timeline(
                self.store, self.mems, self.design.mems, limit=opt.snapshots
            )
        self._trace = trace
        self._printf_out: list[str] = []
        self._install_printf()
        self.design.comb(self._v, self._w, self.mems)
        if trace is not None:
            trace.begin(self)
        if self.obs.metrics is not None:
            self.obs.metrics.add_collector(self._collect_metrics)

    @property
    def values(self):
        """The signal value table (a :class:`~repro.sim.store.ValueStore`).

        Indexable by signal index like the ``list[int]`` it replaced, wide
        (>64-bit) signals transparently included; hot paths bind the
        store's raw buffers instead of going through this property.
        """
        return self.store

    # -- printf plumbing ----------------------------------------------------

    def _install_printf(self) -> None:
        # Pre-split every format string once: formatting is then a single
        # join per printf, and an argument whose text contains "{}" can no
        # longer corrupt later substitutions.
        parts_table = [fmt.split("{}") for fmt, _n in self.design.printf_specs]
        out = self._printf_out

        def _pf(index: int, *args: int) -> None:
            parts = parts_table[index]
            pieces = [parts[0]]
            for i in range(1, len(parts)):
                pieces.append(str(args[i - 1]) if i <= len(args) else "{}")
                pieces.append(parts[i])
            text = "".join(pieces)
            out.append(text)
            print(text)

        # The generated tick()'s namespace (shared with tick_journal) holds
        # one _PrintfDispatcher per design; every simulator sharing the
        # design routes through it.  Bind this simulator's sink now and at
        # each step() entry — printf only fires inside tick, so the binding
        # active during *this* simulator's step is always its own.
        self._has_printf = bool(self.design.printf_specs)
        namespace = self.design.tick.__globals__
        dispatcher = namespace.get("_pf")
        if not isinstance(dispatcher, _PrintfDispatcher):
            dispatcher = _PrintfDispatcher()
            namespace["_pf"] = dispatcher
        self._pf_dispatcher = dispatcher
        self._pf_sink = _pf
        if self._has_printf:
            dispatcher.bind(_pf)

    @property
    def printf_output(self) -> list[str]:
        return self._printf_out

    # -- settling ----------------------------------------------------------

    def _settle(self) -> None:
        """Bring every combinational signal up to date with current state."""
        if self._pending_full:
            self._pending_full = False
            self._pending_tick = False
            self._dirty.clear()
            self._stat_settle_full += 1
            self.design.comb(self._v, self._w, self.mems)
            return
        dirty = self._dirty
        if dirty:
            self._stat_settle_seeds += 1
            self.design.settle_seeds(
                self._v, self._w, self.mems, dirty, self._pending_tick
            )
            dirty.clear()
            self._pending_tick = False
        elif self._pending_tick:
            self._pending_tick = False
            self._stat_settle_tick += 1
            self.design.tick_settle(self._v, self._w, self.mems)

    def flush(self) -> None:
        """Settle any pending pokes / clock-edge cone now.

        Pokes on the fast path are lazy: they accumulate into a dirty set
        and the whole set is settled as one merged fanout cone at the next
        observation point (``step``, ``peek``/``get_value``, a clock
        callback, or this call).  ``flush`` forces that settle explicitly —
        useful before reading ``values`` directly."""
        self._settle()

    @contextmanager
    def batch(self):
        """Group several pokes into one deferred cone settle.

        ::

            with sim.batch():
                sim.poke("a", 1)
                sim.poke("b", 2)   # no settling yet
            # exiting settles one merged cone for both fanouts

        Pokes are lazy regardless, so the context manager is primarily an
        explicit marker (and a guaranteed flush on exit) for testbench code
        that drives many inputs per cycle."""
        try:
            yield self
        finally:
            self._settle()

    def _drive(self, idx: int, value: int) -> None:
        """Write a signal; the fast path defers the cone settle to the
        next observation point, the reference path re-runs full comb."""
        width = self.design.signals[idx].width
        value &= (1 << width) - 1
        buf = self._w if idx in self._w else self._v
        if self._fast:
            if value == buf[idx]:
                return
            buf[idx] = value
            self._dirty.add(idx)
        else:
            buf[idx] = value
            self.design.comb(self._v, self._w, self.mems)

    # -- basic control -----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished is not None

    @property
    def exit_code(self) -> int | None:
        return self._finished

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input port (by local or full name)."""
        idx = self.design.top_inputs.get(name)
        if idx is None:
            idx = self.design.signal_index.get(name)
        if idx is None:
            raise SimulatorError(f"no such input {name!r}")
        self._drive(idx, value)

    def peek(self, name: str) -> int:
        """Read any signal by local top-level or full hierarchical name."""
        self._settle()
        root = self.design.hierarchy.path
        idx = self.design.signal_index.get(name)
        if idx is None:
            idx = self.design.signal_index.get(f"{root}.{name}")
        if idx is None:
            raise SimulatorError(f"no such signal {name!r}")
        return self._w[idx] if idx in self._w else self._v[idx]

    def peek_mem(self, path: str, addr: int) -> int:
        """Read a memory word (full hierarchical memory path)."""
        design = self.design
        mi = design.mem_index.get(path)
        if mi is None:
            mi = design.mem_index.get(f"{design.hierarchy.path}.{path}")
        if mi is None:
            raise SimulatorError(f"no such memory {path!r}")
        return self.mems[mi][addr % design.mems[mi].depth]

    def reset(self, cycles: int = 1) -> None:
        """Assert reset for ``cycles`` clock cycles, then deassert."""
        self._drive(self.design.reset_index, 1)
        self.step(cycles)
        self._drive(self.design.reset_index, 0)

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` posedges."""
        if self._has_printf:
            # Re-claim the shared design's printf routing for this
            # simulator (cheap: one thread-local store); see
            # _PrintfDispatcher for why this happens per step.
            self._pf_dispatcher.bind(self._pf_sink)
        v, w, m = self._v, self._w, self.mems
        design = self.design
        timeline = self.timeline
        journal = timeline is not None and timeline.snap_mems
        tick = design.tick_journal if journal else design.tick
        jw = timeline.mem_written.add if journal else None
        fast = self._fast
        # A fast edge owes the next settle the tick cone — nothing when
        # the design has neither registers nor memory reads; a reference
        # edge owes the full comb.
        owes_tick = fast and design.tick_mask() != 0
        refilling = self._native_seg is not None
        for _ in range(cycles):
            if self._finished is not None:
                return
            self._settle()
            if self._trace is not None:
                self._trace.sample(self)
            # Read per cycle: a callback registered from another thread
            # fires from the next posedge on.  While a native segment's
            # tail is re-executed for the timeline (_refill) none fires:
            # no wake held on those cycles.
            cb_list = () if refilling else self._cb_list
            if cb_list:
                for fn in cb_list:
                    fn(self)
                # Callback pokes settle lazily; consume them (and any
                # set_time rewind) before snapshotting and ticking.
                self._settle()
            if timeline is not None:
                timeline.record(self._time)
            try:
                if journal:
                    tick(v, w, m, self._time, jw)
                else:
                    tick(v, w, m, self._time)
            except SimulationFinished as fin:
                # Stops fire before any register/memory update, so the
                # fast path has nothing to settle; the reference path
                # keeps its full-comb-per-edge semantics.
                self._finished = fin.exit_code
                self._time += 1
                self._stat_ticks += 1
                if not fast:
                    self._pending_full = True
                self._settle()
                return
            if fast:
                self._pending_tick = owes_tick
            else:
                self._pending_full = True
            self._time += 1
            self._stat_ticks += 1
        self._settle()

    def run(self, max_cycles: int = 1_000_000) -> int | None:
        """Run until a ``Stop`` fires or ``max_cycles`` elapse.  Returns the
        exit code, or None on timeout.

        With ``fast=True`` and nothing observing single cycles (no trace
        sink, no clock callback without a wake) the design's native kernel
        runs the remaining budget.  It returns before any cycle whose stop
        or printf condition or callback wake holds, or when a callback is
        registered; Python then runs the rest of that 1024-cycle chunk, so
        stops, printfs and callbacks behave exactly as in :meth:`step`.  A
        ``snapshots=N`` timeline ends up with the same entries as under
        :meth:`step` (see :meth:`_refill`); each cycle counts once in
        ``ticks``, ``native_cycles`` and the settle counts."""
        budget = max_cycles
        ran = 0
        native_ok = self._fast and self._trace is None
        while budget > 0 and self._finished is None:
            if native_ok:
                done = self._run_native(budget)
                ran += done
                budget -= done
                if budget <= 0:
                    break
            chunk = min(budget, _CHUNK - ran % _CHUNK)
            self.step(chunk)
            ran += chunk
            budget -= chunk
        return self._finished

    def _run_native(self, budget: int) -> int:
        """One native segment of up to ``budget`` cycles; returns the
        cycles it ran (0 when the design has no kernel or a callback has
        no wake, or when a timeline would keep every cycle it can run)."""
        timeline = self.timeline
        if timeline is not None and budget <= timeline.limit:
            return 0  # _refill would step every one of them again
        kernel = native.kernel_for(self.design, self.obs)
        if kernel is None:
            return 0
        # Clear the break flag *before* reading the wake: a callback
        # registered in between either shows up here or sets the flag
        # again, so the kernel stops at once.
        self._native_brk[0] = 0
        wake, record = self._wake, self._record
        if wake is None:
            return 0
        self._settle()
        t0 = self._time
        prog = array("q", [0, 0])
        self._native_seg = (t0, prog)
        # Under a timeline the kernel runs a slice at a time, checkpointed
        # before each, so _refill re-executes at most about one slice.
        saved: list = []
        piece = budget if timeline is None else native.SLICE
        try:
            while True:
                at = prog[0]
                # A record buffer may split a slice into pieces: still one
                # checkpoint per slice.
                if timeline is not None and (
                    not saved or t0 + at - saved[-1][0] >= native.SLICE
                ):
                    saved.append((t0 + at, self._checkpoint()))
                    # One checkpoint N cycles old serves any later k.
                    while len(saved) > 1 and saved[1][0] <= t0 + at - timeline.limit:
                        del saved[0]
                n = self._kernel_run(
                    kernel, min(budget - at, piece), prog, wake, None, record, t0
                )
                if prog[0] - at < n or prog[0] == budget:
                    break
        except BaseException:
            if timeline is not None and prog[0]:
                timeline.restart()  # nothing recorded the kernel's cycles
            raise
        finally:
            done = self._end_segment(t0, prog)
        if timeline is not None and done:
            self._refill(kernel, saved, t0)
        return done

    def run_cycles(
        self,
        cycles: int,
        stimulus=None,
        on_progress=None,
        progress_every: int = 0,
    ) -> int:
        """:meth:`SimulatorInterface.run_cycles`, with the stimulus drawn
        and poked by the native kernel when it is a tape (``columns``,
        ``widths`` and ``state``, as :class:`~repro.sim.stimulus.Stimulus`
        has).  The kernel runs ``progress_every``-cycle segments, so
        ``on_progress`` keeps its cadence.  When it stops before a cycle (a
        wake, a stop or printf condition, a callback registered), that
        cycle's row is already applied and Python runs the cycle without
        poking it again.
        ``fast=False``, a trace sink, a timeline, a column wider than 64
        bits, a callback without a wake and a design without a kernel keep
        the Python loop.  Each tape cycle counts one seed settle (its row's
        cone) in ``stats()``, besides its tick and tick cone."""
        columns = getattr(stimulus, "columns", None)
        kernel = None
        if (
            columns is not None
            and self._fast
            and self._trace is None
            and self.timeline is None
        ):
            kernel = native.kernel_for(self.design, self.obs)
        if kernel is None:
            return super().run_cycles(cycles, stimulus, on_progress, progress_every)
        beat = progress_every if on_progress is not None else 0
        done = 0
        while done < cycles and self._finished is None:
            end = min(cycles, done - done % beat + beat) if beat else cycles
            ran, applied = self._run_tape(kernel, stimulus, end - done)
            done += ran
            if applied:
                self.step(1)  # the cycle the kernel stopped before
                done += 1
            elif done < end:
                # No native run now: Python finishes this chunk.
                stop = min(end, done - done % _CHUNK + _CHUNK)
                while done < stop and self._finished is None:
                    stimulus(self, done)
                    self.step(1)
                    done += 1
            if beat and done % beat == 0:
                on_progress(self, done)
        return done

    def _run_tape(self, kernel, stimulus, n: int) -> tuple[int, bool]:
        """Run up to ``n`` cycles on ``kernel``, each drawn and poked from
        the tape ``stimulus``.  Returns the cycles run, and whether the
        kernel stopped before the next one with its row applied; ``(0,
        False)`` when a callback has no wake."""
        self._native_brk[0] = 0  # before reading the wake: see _run_native
        wake, record = self._wake, self._record
        if wake is None:
            return 0, False
        self._settle()
        tape = native.Tape(stimulus.columns, stimulus.widths, stimulus.state())
        t0 = self._time
        prog = array("q", [0, 0])
        self._native_seg = (t0, prog)
        try:
            while prog[0] < n:
                at = prog[0]
                k = self._kernel_run(kernel, n - at, prog, wake, tape, record, t0)
                if prog[0] - at < k:
                    break
        finally:
            done = self._end_segment(t0, prog)
            self._stat_settle_seeds += tape.header[2]
        return done, tape.header[2] > done

    def _kernel_run(self, kernel, n: int, prog, wake, tape, record, t0: int) -> int:
        """One ``kernel.run`` of up to ``n`` cycles of the segment that
        began at ``t0``; returns the cycles it was asked for (fewer than
        ``n`` when a record buffer holds fewer).  Under a record program
        the rows it recorded go to the program's ``adopt`` as soon as the
        kernel returns, before Python runs any cycle."""
        if record is None:
            kernel.run(self._v, self._w, self.mems, n, self._native_brk, prog, wake, tape)
            return n
        program, buf = record
        n = buf.prepare(n, program.budget())
        try:
            kernel.run(
                self._v, self._w, self.mems, n, self._native_brk, prog, wake, tape, buf
            )
        finally:
            rows = buf.take(t0)
            if rows:
                self._stat_native_hits += len(rows)
                program.adopt(rows)
        return n

    def _end_segment(self, t0: int, prog: array) -> int:
        """Close the native segment that began at ``t0``: advance time and
        count its cycles (``prog[0]``, returned) and wake (``prog[1]``).
        The kernel settled its tick cone after every edge, exactly as the
        Python fast path would have."""
        done = prog[0]
        self._time = t0 + done
        self._stat_ticks += done
        self._stat_native_cycles += done
        self._stat_native_wakes += prog[1]
        if self.design.tick_mask():
            self._stat_settle_tick += done
        self._native_seg = None
        return done

    def _checkpoint(self) -> tuple:
        """The settled state ``_refill`` restores: the narrow and wide
        values and a copy of each memory."""
        return self._v.copy(), self.store.copy_wide(), [m[:] for m in self.mems]

    def _refill(self, kernel, saved: list, t0: int) -> None:
        """Give the timeline the entries stepping would have recorded for
        the native segment from ``t0`` to now (k): an N-entry window keeps
        only the cycles from ``start = max(t0, k - N)`` on.  Restore the
        latest checkpoint in ``saved`` at or before ``start``, re-run
        natively to ``start``, restart the timeline if ``start > t0`` (its
        memory journal missed the kernel's writes), and step the rest in
        Python, recording but firing no callback.  The first pass already
        counted these cycles, so the counters the re-execution moves (it
        only ticks and settles tick cones) are put back; ``get_time()``
        holds at k meanwhile.  Any exception restarts the timeline, so the
        window never spans unrecorded cycles, and leaves the simulator
        where the re-execution got to, uncounting the cycles after it."""
        timeline = self.timeline
        k = self._time
        start = max(t0, k - timeline.limit)
        at, (values, wide, mems) = [c for c in saved if c[0] <= start][-1]
        ticks, settles = self._stat_ticks, self._stat_settle_tick
        self._native_seg = (k, (0,))
        try:
            self._v[:] = values
            self.store.restore_wide(wide)
            for mem, copy in zip(self.mems, mems, strict=True):
                mem[:] = copy
            self._time = at
            n = start - at
            if n > 0:
                # A private break flag and an empty wake: nothing may cut
                # the re-run short.
                brk, prog, never = array("q", [0]), array("q", [0, 0]), array("Q", [0])
                try:
                    kernel.run(self._v, self._w, self.mems, n, brk, prog, never)
                finally:
                    self._time += prog[0]
                if self._time != start:
                    raise SimulatorError(
                        f"native re-run from cycle {at} stopped at {self._time}, "
                        f"before {start}"
                    )
            if start > t0:
                timeline.restart()
            self.step(k - start)
        except BaseException:
            timeline.restart()
            raise
        finally:
            lost = k - self._time  # 0 unless interrupted
            self._stat_ticks = ticks - lost
            self._stat_native_cycles -= lost
            if self.design.tick_mask():
                settles -= lost
            self._stat_settle_tick = settles
            self._native_seg = None

    # -- time travel (delegated to repro.sim.timeline) ----------------------

    @property
    def can_set_time(self) -> bool:
        return self.timeline is not None

    def _apply_set_time(self, time: int) -> None:
        """Restore simulator state to a previously recorded cycle.

        The bound :class:`~repro.sim.timeline.Timeline` reconstructs the
        target (nearest keyframe + delta replays) and restores the
        value store, memories, and journal in place; the engine then
        resets its settle bookkeeping and re-derives every combinational
        signal.  Retained entries survive the jump, so repeating
        ``set_time`` or jumping forward within the window keeps working.
        """
        if self.timeline is None:
            raise TimelineError(
                "time travel disabled: no retained history — construct "
                "the simulator with options=SessionOptions(snapshots=N)"
            )
        self.timeline.restore(time)
        self._time = time
        self._finished = None
        self._pending_full = False
        self._pending_tick = False
        self._dirty.clear()
        self.design.comb(self._v, self._w, self.mems)

    def _retain_current_time(self):
        """History-walk hook: make the current cycle a valid ``set_time``
        target and remember the finished flag (restored after the walk —
        intermediate jumps clear it).

        Record only when the current cycle is not already retained:
        ``record`` drops entries at-or-after its time (rewind +
        re-execution semantics), so recording right after a ``set_time``
        — when nothing was re-executed — would truncate the still-valid
        forward window.  The trade-off: state changed since the retained
        entry (pokes after a rewind, before any step) is reverted to the
        recorded state by the walk's final restore.
        """
        self._settle()
        if self._time not in self.timeline:
            # evict=False: a read-only query must not push the oldest
            # retained cycle out of a full ring.
            self.timeline.record(self._time, evict=False)
        return self._finished

    def _restore_current_time(self, t0: int, token) -> None:
        if self.get_time() != t0:
            self.set_time(t0)
        self._finished = token

    # -- observability (repro.obs) ------------------------------------------

    def stats(self) -> dict:
        """Always-available runtime counters, whatever the obs mode.

        Ticks and settle-shape counts live on the engine, cone-cache
        hit/miss/fallback counts on the (possibly shared) compiled
        design, and history stats on the bound timeline.  All are plain
        ints maintained unconditionally; reading them costs nothing
        beyond this call.
        """
        design = self.design
        out = {
            "ticks": self._stat_ticks,
            "settle_full": self._stat_settle_full,
            "settle_seeds": self._stat_settle_seeds,
            "settle_tick": self._stat_settle_tick,
            "cone_hits": design.stat_cone_hits,
            "cone_misses": design.stat_cone_misses,
            "cone_fallbacks": design.stat_cone_fallbacks,
            "printfs": len(self._printf_out),
            "native_cycles": self._stat_native_cycles,
            "native_wakes": self._stat_native_wakes,
            "native_hits": self._stat_native_hits,
        }
        timeline = self.timeline
        if timeline is not None:
            out.update(
                {
                    "timeline_entries": len(timeline),
                    "timeline_records": timeline.stat_records,
                    "timeline_keyframes": timeline.stat_keyframes,
                    "timeline_evictions": timeline.stat_evictions,
                    "snapshot_bytes": timeline.nbytes,
                    "timeline_compression_ratio": timeline.compression_ratio(),
                }
            )
        return out

    @property
    def ticks(self) -> int:
        """``stats()["ticks"]``, without the timeline's stats."""
        return self._stat_ticks

    @property
    def native_cycles(self) -> int:
        """``stats()["native_cycles"]``, without the timeline's stats
        (which walk the retained history)."""
        return self._stat_native_cycles

    def _collect_metrics(self, reg) -> None:
        """Snapshot-time collector: fold the always-on ints into metrics."""
        s = self.stats()
        reg.counter("sim_ticks_total", "Clock posedges executed").set_total(s["ticks"])
        reg.counter(
            "sim_settle_full_total", "Full comb re-evaluations"
        ).set_total(s["settle_full"])
        reg.counter(
            "sim_settle_seeds_total", "Merged dirty-set cone settles"
        ).set_total(s["settle_seeds"])
        reg.counter(
            "sim_settle_tick_total", "Clock-edge tick-cone settles"
        ).set_total(s["settle_tick"])
        reg.counter(
            "sim_native_cycles_total", "Clock posedges run by the native kernel"
        ).set_total(s["native_cycles"])
        reg.counter(
            "sim_native_wakes_total",
            "Native kernel returns because a clock callback's wake held",
        ).set_total(s["native_wakes"])
        reg.counter(
            "sim_native_hits_total",
            "Hits a clock callback's record program recorded in the native kernel",
        ).set_total(s["native_hits"])
        reg.counter(
            "sim_cone_cache_hits_total", "Mask-cone cache hits"
        ).set_total(s["cone_hits"])
        reg.counter(
            "sim_cone_cache_misses_total", "Mask-cone cache compiles"
        ).set_total(s["cone_misses"])
        reg.counter(
            "sim_cone_fallback_total",
            "Full-comb fallbacks after MASK_CONE_CAP saturation",
        ).set_total(s["cone_fallbacks"])
        if "timeline_entries" in s:
            reg.gauge(
                "sim_timeline_entries", "Retained history entries"
            ).set(s["timeline_entries"])
            reg.counter(
                "sim_timeline_records_total", "History entries recorded"
            ).set_total(s["timeline_records"])
            reg.counter(
                "sim_timeline_keyframes_total", "Timeline keyframes taken"
            ).set_total(s["timeline_keyframes"])
            reg.counter(
                "sim_timeline_evictions_total", "Head-keyframe fold-forward evictions"
            ).set_total(s["timeline_evictions"])
            reg.gauge(
                "sim_snapshot_bytes", "Bytes held by the retained history window"
            ).set(s["snapshot_bytes"])
            reg.gauge(
                "sim_timeline_compression_ratio",
                "All-keyframes-equivalent bytes over retained bytes",
            ).set(s["timeline_compression_ratio"])

    # -- state fingerprinting ----------------------------------------------

    def state_digest(self) -> str:
        """A stable fingerprint of the complete settled simulator state.

        Hashes the value table as 64-bit lanes
        (:meth:`~repro.sim.store.ValueStore.digest_bytes`) plus every
        memory, so two simulators agree iff they are bit-identical.
        Shard workers report this with their results; the aggregator uses
        it to prove replicated shards stayed deterministic.
        """
        self._settle()
        h = hashlib.sha1(self.store.digest_bytes())
        for spec, mem in zip(self.design.mems, self.mems, strict=False):
            if spec.width <= LANE_BITS:
                h.update(array("Q", mem).tobytes())
            else:
                h.update(repr(mem).encode())
        return h.hexdigest()

    # -- SimulatorInterface ------------------------------------------------------

    def get_value(self, path: str) -> int:
        self._settle()
        idx = self.design.signal_index.get(path)
        if idx is None:
            raise SimulatorError(f"no such signal {path!r}")
        return self._w[idx] if idx in self._w else self._v[idx]

    def set_value(self, path: str, value: int) -> None:
        idx = self.design.signal_index.get(path)
        if idx is None:
            raise SimulatorError(f"no such signal {path!r}")
        self._drive(idx, value)

    @property
    def can_set_value(self) -> bool:
        return True

    def hierarchy(self) -> HierNode:
        return self.design.hierarchy

    def clock_name(self) -> str:
        return self.design.signals[self.design.clock_index].path

    def add_clock_callback(self, fn, wake=None) -> int:
        cb_id = next(self._cb_ids)
        with self._cb_lock:
            self._publish_callbacks({**self._callbacks, cb_id: (fn, wake)})
        # After publishing: a running native segment stops at its next
        # posedge, Python fires the callback from there, and the next
        # segment runs under the new wake.
        self._native_brk[0] = 1
        return cb_id

    def remove_clock_callback(self, cb_id: int) -> None:
        with self._cb_lock:
            callbacks = dict(self._callbacks)
            _fn, wake = callbacks.pop(cb_id, (None, None))
            self._publish_callbacks(callbacks)
        if isinstance(wake, RecordProgram):
            # A running segment must stop recording for it at once.
            self._native_brk[0] = 1

    def _publish_callbacks(self, callbacks: dict) -> None:
        """Publish ``callbacks`` with what ``step()`` and ``run()`` read:
        the functions, their combined wake as one new program and the one
        record program the kernel runs (under ``_cb_lock``).  The first
        :class:`RecordProgram` the kernel can run is that one; any other
        joins the wake as its :attr:`~RecordProgram.wake`.  A malformed
        wake or program raises before anything changes."""
        wakes, record = [], None
        for _fn, wake in callbacks.values():
            if isinstance(wake, RecordProgram):
                if record is None:
                    buf = native.record_program(wake, self.design)
                    if buf is not None:
                        record = (wake, buf)
                        continue
                wake = wake.wake
            wakes.append(wake)
        self._wake = native.wake_program(wakes, self.design)
        self._record = record
        self._callbacks = callbacks
        self._cb_list = tuple(fn for fn, _wake in callbacks.values())

    def get_time(self) -> int:
        seg = self._native_seg
        if seg is not None:  # read from another thread mid-segment
            return seg[0] + seg[1][0]
        return self._time
