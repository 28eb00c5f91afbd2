"""Many-worlds vectorized simulation: N scenario worlds in one simulator.

``ManyWorldsSimulator`` runs N *worlds* — independent scenarios of the same
compiled design that differ only in stimulus — in lockstep: signal values
live in a :class:`~repro.sim.store.MatrixStore` ``(n_signals, worlds)``
uint64 matrix and one vectorized tick (``repro.sim.compiler.compile_vector``)
advances every world at once as fused numpy column operations.  The shard
farm's N-process fan-out becomes intra-process SIMD — and the two compose:
``ShardSession.sweep(worlds_per_shard=M)`` packs M worlds per forked worker.

Semantics mirror :class:`~repro.sim.engine.Simulator` exactly, per world:

* the step loop (settle -> clock callbacks -> timeline record -> tick) is
  the scalar engine's, applied to all worlds at once;
* a fired ``Stop`` finishes only the worlds whose condition held: their
  pre-edge state is archived, their memory rows freeze, and the remaining
  worlds keep running;
* ``state_digest(world)`` is bit-identical to a sequential reference
  ``Simulator`` run of the same per-world stimulus on any store backend.

Breakpoint/watchpoint conditions attach through the ordinary
``repro.core.Runtime`` — against a many-worlds simulator they evaluate as
boolean masks over the scenario axis and hits report the exact set of
worlds that fired (``docs/manyworlds.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import threading
from time import perf_counter

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via SimulatorError below
    _np = None

from ..ir.stmt import Circuit
from ..obs import make_obs
from .compiler import CompiledDesign, MemSpec, compile_vector
from .engine import SessionOptions, compile_gated
from .interface import HierNode, SimulatorError, SimulatorInterface
from .store import LANE_BITS, MatrixStore
from .timeline import Timeline, TimelineError


class ManyWorldsSimulator(SimulatorInterface):
    """Execute a compiled design for N stimulus scenarios in lockstep.

    Args:
        circuit: the Low-form circuit (ignored when ``compiled`` is given).
        worlds: number of scenario worlds (matrix columns).
        top_path: hierarchical prefix for the root instance.
        compiled: reuse an already-compiled design; the vector kernels are
            compiled (and cached) per ``(design, worlds)`` pair on top.
        options: a :class:`~repro.sim.engine.SessionOptions` — the same
            record ``Simulator``/``ShardSession``/hub share.  ``snapshots``
            / ``snapshot_bytes`` / ``snapshot_codec`` / ``keyframe_every``
            / ``strict`` / ``obs`` apply; ``store`` and ``fast`` are owned
            by the matrix backend and ignored.
    """

    def __init__(
        self,
        circuit: Circuit | None,
        worlds: int,
        top_path: str | None = None,
        compiled: CompiledDesign | None = None,
        options: SessionOptions | None = None,
    ):
        if _np is None:
            raise SimulatorError("ManyWorldsSimulator requires numpy")
        if worlds < 1:
            raise SimulatorError("worlds must be >= 1")
        opt = options if options is not None else SessionOptions()
        self.obs = make_obs(opt.obs, proc="manyworlds")
        if compiled is not None:
            self.design: CompiledDesign = compiled
        else:
            self.design = compile_gated(circuit, top_path, opt.strict, self.obs)
        self.worlds = worlds
        with self.obs.span("manyworlds.vectorize", worlds=str(worlds)):
            self.kernels = compile_vector(self.design, worlds)

        design = self.design
        self.store = MatrixStore(
            design.n_signals, design.wide_indices, design.state_indices, worlds
        )
        self._matrix = self.store.matrix
        self._w = self.store.wide
        self.mems = self._initial_mems()

        self._time = 0
        self._active = _np.ones(worlds, dtype=bool)
        self._n_active = worlds
        self._exit_codes: list[int | None] = [None] * worlds
        self._finish_tick: list[int | None] = [None] * worlds
        # world -> (narrow column copy, wide dict copy) captured at stop
        # time: the frozen per-world final state (pre-edge, like the scalar
        # engine, whose Stop aborts the tick before any state update).
        self._archive: dict[int, tuple] = {}
        self._callbacks: dict[int, object] = {}
        self._cb_list: tuple = ()
        self._cb_ids = itertools.count(1)
        self._cb_lock = threading.Lock()
        self._pending = True
        self._stat_ticks = 0
        self._stat_mask_hits = 0
        self._stat_stops = 0
        self._step_wall = 0.0
        self._printf_out: list[str] = []
        self._printf_worlds: list[list[str]] = [[] for _ in range(worlds)]

        self.timeline: Timeline | None = None
        if opt.snapshots or opt.snapshot_bytes:
            if any(spec.width > LANE_BITS for spec in design.mems):
                raise SimulatorError(
                    "many-worlds snapshots do not support >64-bit memories"
                )
            # Synthetic specs with depth*worlds words keep the timeline's
            # memory-history budget honest about the widened rows.
            mem_specs = [
                MemSpec(s.index, s.path, s.width, s.depth * worlds, None)
                for s in design.mems
            ]
            self.timeline = Timeline(
                self.store,
                self.mems,
                mem_specs,
                limit=opt.snapshots or None,
                byte_budget=opt.snapshot_bytes or None,
                codec=opt.snapshot_codec,
                keyframe_every=opt.keyframe_every,
            )

        self._install_printf()
        self.kernels.vcomb(self._matrix, self._w, self.mems)
        self._pending = False
        if self.obs.metrics is not None:
            self.obs.metrics.add_collector(self._collect_metrics)

    # -- construction helpers ----------------------------------------------

    def _initial_mems(self) -> list:
        out = []
        for spec in self.design.mems:
            if spec.width <= LANE_BITS:
                mem = _np.zeros((self.worlds, spec.depth), dtype=_np.uint64)
                if spec.init:
                    mem[:, : len(spec.init)] = _np.asarray(
                        spec.init, dtype=_np.uint64
                    )
                out.append(mem)
            else:
                data = [0] * spec.depth
                if spec.init:
                    data[: len(spec.init)] = list(spec.init)
                out.append([list(data) for _ in range(self.worlds)])
        return out

    def _install_printf(self) -> None:
        parts_table = [fmt.split("{}") for fmt, _n in self.design.printf_specs]
        self._has_printf = bool(parts_table)
        if not self._has_printf:
            return
        printf_out = self._printf_out
        printf_worlds = self._printf_worlds

        def _pfk(index: int, k: int, args) -> None:
            parts = parts_table[index]
            pieces = [parts[0]]
            for i in range(1, len(parts)):
                pieces.append(str(int(args[i - 1])) if i <= len(args) else "{}")
                pieces.append(parts[i])
            text = "".join(pieces)
            printf_worlds[k].append(text)
            tagged = f"[w{k}] {text}"
            printf_out.append(tagged)
            print(tagged)

        def _pfv(index: int, mask, *cols) -> None:
            for k in mask.nonzero()[0].tolist():
                args = [
                    int(c[k]) if isinstance(c, _np.ndarray) else int(c)
                    for c in cols
                ]
                _pfk(index, k, args)

        # The kernel namespace is shared by every simulator on the same
        # (design, worlds) pair; re-claimed at each step entry, like the
        # scalar engine's printf dispatcher.
        self._pf_bind = (_pfv, _pfk)
        ns = self.kernels.namespace
        ns["_pfv"], ns["_pfk"] = self._pf_bind

    @property
    def printf_output(self) -> list[str]:
        """All printf lines, tagged ``[w<k>]`` per world, in fire order."""
        return self._printf_out

    def printf_output_world(self, world: int) -> list[str]:
        self._check_world(world)
        return self._printf_worlds[world]

    # -- world bookkeeping ---------------------------------------------------

    def _check_world(self, world: int) -> None:
        if not 0 <= world < self.worlds:
            raise SimulatorError(
                f"world {world} out of range (worlds={self.worlds})"
            )

    @property
    def finished(self) -> bool:
        """True when every world has finished."""
        return self._n_active == 0

    @property
    def exit_codes(self) -> list[int | None]:
        """Per-world exit code (None while a world still runs)."""
        return list(self._exit_codes)

    @property
    def finish_ticks(self) -> list[int | None]:
        """Per-world tick at which the world's ``Stop`` fired."""
        return list(self._finish_tick)

    def active_mask(self):
        """Bool array over the scenario axis: which worlds still run."""
        return self._active.copy()

    @property
    def active_worlds(self) -> tuple[int, ...]:
        return tuple(self._active.nonzero()[0].tolist())

    def _on_stop(self, code: int, mask, time: int) -> None:
        matrix = self._matrix
        wide_signals = self.store.wide_signals
        stride = self.worlds
        w = self._w
        for k in mask.nonzero()[0].tolist():
            if self._exit_codes[k] is not None:
                continue
            self._exit_codes[k] = code
            self._finish_tick[k] = time
            self._archive[k] = (
                matrix[:, k].copy(),
                {i: w[i * stride + k] for i in wide_signals},
            )
            self._n_active -= 1
            self._stat_stops += 1
        # In-place: the running vtick holds this same array as _act, so
        # later effects/memory writes this edge already see the world gone.
        self._active[mask] = False

    # -- settling / stepping -------------------------------------------------

    def _settle(self) -> None:
        if self._pending:
            self._pending = False
            self.kernels.vcomb(self._matrix, self._w, self.mems)

    def flush(self) -> None:
        """Settle pending pokes / deferred tick activity now."""
        self._settle()

    def step(self, cycles: int = 1) -> None:
        """Advance every still-active world by ``cycles`` clock posedges."""
        if self._has_printf:
            ns = self.kernels.namespace
            ns["_pfv"], ns["_pfk"] = self._pf_bind
        t_start = perf_counter()
        v, w, m = self._matrix, self._w, self.mems
        kern = self.kernels
        timeline = self.timeline
        journal = timeline is not None and timeline.snap_mems
        vtick = kern.vtick_journal if journal else kern.vtick
        jw = timeline.mem_written.add if journal else None
        act = self._active
        stop = self._on_stop
        for _ in range(cycles):
            if self._n_active == 0:
                break
            self._settle()
            # Read per cycle: a callback registered from another thread
            # fires from the next posedge on.
            cb_list = self._cb_list
            if cb_list:
                for fn in cb_list:
                    fn(self)
                self._settle()
            if timeline is not None:
                timeline.record(self._time)
            if journal:
                vtick(v, w, m, self._time, act, stop, jw)
            else:
                vtick(v, w, m, self._time, act, stop)
            self._pending = True
            self._time += 1
            self._stat_ticks += 1
        # Post-edge comb values settle lazily at the next read or step:
        # peek/peek_worlds/state_digest/flush all call _settle() first, so
        # eagerly settling here would double every cycle's vcomb cost.
        self._step_wall += perf_counter() - t_start

    def run(self, max_cycles: int = 1_000_000) -> list[int | None]:
        """Run until every world stops or ``max_cycles`` elapse.  Returns
        the per-world exit codes (None for worlds that timed out)."""
        budget = max_cycles
        while budget > 0 and self._n_active:
            chunk = min(budget, 1024)
            self.step(chunk)
            budget -= chunk
        return self.exit_codes

    def reset(self, cycles: int = 1) -> None:
        """Assert reset in every world for ``cycles``, then deassert."""
        ridx = self.design.reset_index
        self._matrix[ridx] = 1
        self._pending = True
        self.step(cycles)
        self._matrix[ridx] = 0
        self._pending = True

    # -- pokes / peeks -------------------------------------------------------

    def _input_index(self, name: str) -> int:
        idx = self.design.top_inputs.get(name)
        if idx is None:
            idx = self.design.signal_index.get(name)
        if idx is None:
            raise SimulatorError(f"no such input {name!r}")
        return idx

    def _signal_index(self, name: str) -> int:
        root = self.design.hierarchy.path
        idx = self.design.signal_index.get(name)
        if idx is None:
            idx = self.design.signal_index.get(f"{root}.{name}")
        if idx is None:
            raise SimulatorError(f"no such signal {name!r}")
        return idx

    def _drive_all(self, idx: int, value: int) -> None:
        width = self.design.signals[idx].width
        value &= (1 << width) - 1
        if idx in self.store.wide_signals:
            stride = self.worlds
            for k in range(stride):
                self._w[idx * stride + k] = value
        else:
            self._matrix[idx] = value
        self._pending = True

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input to the same value in every world."""
        self._drive_all(self._input_index(name), value)

    def poke_world(self, name: str, world: int, value: int) -> None:
        """Drive a top-level input in one world only."""
        idx = self._input_index(name)
        self._check_world(world)
        width = self.design.signals[idx].width
        value &= (1 << width) - 1
        if idx in self.store.wide_signals:
            self._w[idx * self.worlds + world] = value
        else:
            self._matrix[idx, world] = value
        self._pending = True

    def poke_worlds(self, name: str, values) -> None:
        """Drive a top-level input with one value per world."""
        idx = self._input_index(name)
        values = list(values)
        if len(values) != self.worlds:
            raise SimulatorError(
                f"poke_worlds needs {self.worlds} values, got {len(values)}"
            )
        width = self.design.signals[idx].width
        mask = (1 << width) - 1
        if idx in self.store.wide_signals:
            stride = self.worlds
            for k, val in enumerate(values):
                self._w[idx * stride + k] = int(val) & mask
        else:
            # Slice-assign from a python list: numpy converts it in C,
            # several times faster than fromiter over a generator here.
            self._matrix[idx, :] = [int(v) & mask for v in values]
        self._pending = True

    def _read_lane(self, idx: int, k: int) -> int:
        if self._exit_codes[k] is not None:
            narrow, wide = self._archive[k]
            if idx in self.store.wide_signals:
                return wide[idx]
            return int(narrow[idx])
        if idx in self.store.wide_signals:
            return self._w[idx * self.worlds + k]
        return int(self._matrix[idx, k])

    def peek(self, name: str, world: int = 0) -> int:
        """One world's settled value of a signal (finished worlds answer
        from their archived final state)."""
        self._settle()
        idx = self._signal_index(name)
        self._check_world(world)
        return self._read_lane(idx, world)

    def peek_worlds(self, name: str) -> list[int]:
        """The signal's settled value in every world."""
        self._settle()
        idx = self._signal_index(name)
        return [self._read_lane(idx, k) for k in range(self.worlds)]

    def peek_mem(self, path: str, addr: int, world: int = 0) -> int:
        design = self.design
        mi = design.mem_index.get(path)
        if mi is None:
            mi = design.mem_index.get(f"{design.hierarchy.path}.{path}")
        if mi is None:
            raise SimulatorError(f"no such memory {path!r}")
        self._check_world(world)
        mem = self.mems[mi]
        a = addr % design.mems[mi].depth
        if isinstance(mem, list):
            return mem[world][a]
        return int(mem[world, a])

    # -- state fingerprinting ------------------------------------------------

    def state_digest(self, world: int) -> str:
        """One world's state fingerprint — bit-identical to
        ``Simulator.state_digest()`` of a sequential reference run with the
        same per-world stimulus, on every store backend."""
        self._settle()
        self._check_world(world)
        if self._exit_codes[world] is not None:
            narrow, wide = self._archive[world]
            data = narrow.tobytes()
            if self.store.wide_signals:
                data += repr(sorted(wide.items())).encode()
        else:
            data = self.store.digest_bytes_world(world)
        h = hashlib.sha1(data)
        for spec, mem in zip(self.design.mems, self.mems, strict=False):
            if spec.width <= LANE_BITS:
                h.update(mem[world].tobytes())
            else:
                h.update(repr(mem[world]).encode())
        return h.hexdigest()

    # -- observability -------------------------------------------------------

    def note_mask_hit(self, n: int = 1) -> None:
        """Count per-world breakpoint/watchpoint mask hits (fed by the
        runtime's mask-condition paths; surfaces in repro.obs metrics)."""
        self._stat_mask_hits += n

    def stats(self) -> dict:
        out = {
            "worlds": self.worlds,
            "active_worlds": int(self._n_active),
            "ticks": self._stat_ticks,
            "world_cycles": self._stat_ticks * self.worlds,
            "mask_hits": self._stat_mask_hits,
            "stops": self._stat_stops,
            "vector_statements": self.kernels.n_vector,
            "scalar_statements": self.kernels.n_scalar,
            "wall_s": self._step_wall,
            "printfs": len(self._printf_out),
        }
        if self.timeline is not None:
            out["timeline_entries"] = len(self.timeline)
            out["snapshot_bytes"] = self.timeline.nbytes
        return out

    def _collect_metrics(self, reg) -> None:
        s = self.stats()
        reg.gauge("manyworlds_worlds", "Scenario worlds in the matrix").set(
            s["worlds"]
        )
        reg.gauge(
            "manyworlds_active_worlds", "Worlds still running"
        ).set(s["active_worlds"])
        reg.counter(
            "manyworlds_ticks_total", "Vectorized clock edges"
        ).set_total(s["ticks"])
        reg.counter(
            "manyworlds_world_cycles_total", "Aggregate world-cycles advanced"
        ).set_total(s["world_cycles"])
        reg.counter(
            "manyworlds_mask_hits_total",
            "Per-world breakpoint/watchpoint mask hits",
        ).set_total(s["mask_hits"])
        reg.counter(
            "manyworlds_stops_total", "Worlds finished by a Stop"
        ).set_total(s["stops"])
        if s["wall_s"] > 0:
            reg.gauge(
                "manyworlds_worlds_per_second",
                "Aggregate world-cycles per second of stepping",
            ).set(s["world_cycles"] / s["wall_s"])

    # -- SimulatorInterface --------------------------------------------------

    def get_value(self, path: str) -> int:
        """World 0's value (the interface contract is scalar); per-world
        reads go through :meth:`peek`/:meth:`peek_worlds`."""
        self._settle()
        idx = self.design.signal_index.get(path)
        if idx is None:
            raise SimulatorError(f"no such signal {path!r}")
        return self._read_lane(idx, 0)

    def set_value(self, path: str, value: int) -> None:
        idx = self.design.signal_index.get(path)
        if idx is None:
            raise SimulatorError(f"no such signal {path!r}")
        self._drive_all(idx, value)

    @property
    def can_set_value(self) -> bool:
        return True

    def hierarchy(self) -> HierNode:
        return self.design.hierarchy

    def clock_name(self) -> str:
        return self.design.signals[self.design.clock_index].path

    def add_clock_callback(self, fn, wake=None) -> int:
        # No native tier: every posedge runs in Python, so ``wake`` is unused.
        cb_id = next(self._cb_ids)
        with self._cb_lock:
            self._callbacks[cb_id] = fn
            self._cb_list = tuple(self._callbacks.values())
        return cb_id

    def remove_clock_callback(self, cb_id: int) -> None:
        with self._cb_lock:
            self._callbacks.pop(cb_id, None)
            self._cb_list = tuple(self._callbacks.values())

    def get_time(self) -> int:
        return self._time

    # -- time travel ---------------------------------------------------------

    @property
    def can_set_time(self) -> bool:
        return self.timeline is not None

    def _apply_set_time(self, time: int) -> None:
        if self.timeline is None:
            raise TimelineError(
                "time travel disabled: construct with "
                "options=SessionOptions(snapshots=N or snapshot_bytes=N)"
            )
        if self._n_active != self.worlds:
            # A finished world's live column keeps drifting (only its
            # archive is authoritative), so recorded history past the
            # first stop is not a valid all-worlds state.
            raise SimulatorError(
                "many-worlds time travel with finished worlds is unsupported"
            )
        self.timeline.restore(time)
        self._time = time
        self._pending = True
        self._settle()

    def _retain_current_time(self):
        self._settle()
        if self._time not in self.timeline:
            self.timeline.record(self._time, evict=False)
        return None


def make_sweep_stimulus(sim: ManyWorldsSimulator, seeds, overrides=None):
    """Per-world random stimulus honoring the shard farm's seed contract.

    World ``k`` draws from ``random.Random(seeds[k])`` in sorted-input
    order — the exact sequence ``repro.shard.worker.make_stimulus`` feeds a
    sequential run with ``seed=seeds[k]`` — so per-world digests match the
    corresponding shard runs bit for bit.  ``overrides`` names inputs held
    constant (poke them yourself, as shard specs do).
    """
    seeds = list(seeds)
    if len(seeds) != sim.worlds:
        raise SimulatorError(
            f"need {sim.worlds} seeds, got {len(seeds)}"
        )
    design = sim.design
    skip = set(overrides or ())
    for idx in (design.clock_index, design.reset_index):
        skip.add(design.signals[idx].name)
    inputs = [
        (name, design.signals[idx].width)
        for name, idx in sorted(design.top_inputs.items())
        if name not in skip
    ]
    rngs = [random.Random(s) for s in seeds]

    def stimulus(s, _cycle: int) -> None:
        for name, width in inputs:
            s.poke_worlds(name, [rng.getrandbits(width) for rng in rngs])

    return stimulus
