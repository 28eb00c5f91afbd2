"""Many-worlds simulation: N stimulus scenarios of one design, debugged as one.

``ManyWorldsSimulator`` runs N *worlds* — independent scenarios of the same
compiled design that differ only in stimulus.  Each world is an ordinary
:class:`~repro.sim.engine.Simulator` over one shared
:class:`~repro.sim.compiler.CompiledDesign`, built with the caller's
:class:`~repro.sim.engine.SessionOptions`, so every tier a scalar run gets
(fast path, value store, native kernel, timeline) applies per world:

* with no clock callback registered, :meth:`run` and :meth:`run_cycles`
  hand each running world to its own ``Simulator.run`` or ``run_cycles``,
  at most 1024 cycles at a time; a sweep of :func:`make_sweep_stimulus`
  tapes thus runs on the native kernel;
* while a callback is registered (an armed ``repro.core.Runtime``), every
  posedge runs in Python lockstep: :meth:`step` fires the callbacks once,
  with this layer as their argument, then steps every running world one
  cycle;
* a fired ``Stop`` finishes only its own world, which keeps its final
  state while the others run on;
* ``state_digest(world)`` is that world's ``Simulator.state_digest()``, so
  it equals a sequential reference run of the same stimulus.

Breakpoint and watchpoint conditions attach through the ordinary
``repro.core.Runtime``: it evaluates each condition once per running world,
against that world's value table, and hits report the exact set of worlds
that fired (``docs/manyworlds.md``).
"""

from __future__ import annotations

import dataclasses
import itertools
import threading

from ..ir.stmt import Circuit
from ..obs import make_obs
from .compiler import CompiledDesign
from .engine import _CHUNK, SessionOptions, Simulator, compile_gated
from .interface import HierNode, SimulatorError, SimulatorInterface
from .stimulus import Stimulus
from .timeline import TimelineError


class ManyWorldsSimulator(SimulatorInterface):
    """Execute a compiled design for N stimulus scenarios, one scalar
    :class:`~repro.sim.engine.Simulator` per world (:attr:`sims`).

    Args:
        circuit: the Low-form circuit (ignored when ``compiled`` is given).
        worlds: number of scenario worlds.
        top_path: hierarchical prefix for the root instance.
        compiled: reuse an already-compiled design.
        options: a :class:`~repro.sim.engine.SessionOptions` — the same
            record ``Simulator``/``ShardSession``/hub share.  Every world is
            built with it; ``obs`` configures this layer, whose
            ``manyworlds_*`` metrics cover all worlds.  Time travel takes
            ``snapshots=N``; a ``snapshot_bytes`` budget is refused, since
            it would evict each world's history at its own pace.

    The scalar interface reads world 0: :meth:`get_value`, :attr:`store`
    and :attr:`timeline` are world 0's.  :attr:`world_stores` holds every
    world's value store, by world index.
    """

    def __init__(
        self,
        circuit: Circuit | None,
        worlds: int,
        top_path: str | None = None,
        compiled: CompiledDesign | None = None,
        options: SessionOptions | None = None,
    ):
        if worlds < 1:
            raise SimulatorError("worlds must be >= 1")
        opt = options if options is not None else SessionOptions()
        if opt.snapshot_bytes:
            # Byte-budget eviction follows each world's delta sizes, so the
            # worlds would retain different cycles; the count bound keeps
            # them aligned, and world 0's timeline speaks for all.
            raise SimulatorError(
                "many-worlds time travel takes SessionOptions(snapshots=N), "
                "not snapshot_bytes"
            )
        self.obs = make_obs(opt.obs, proc="manyworlds")
        if compiled is None:
            compiled = compile_gated(circuit, top_path, opt.strict, self.obs)
        self.design: CompiledDesign = compiled
        self.worlds = worlds
        # The worlds report through this layer's stats() and metrics: in one
        # registry, each world's own collector would overwrite the others'.
        world_opt = dataclasses.replace(opt, obs="off")
        self.sims = tuple(
            Simulator(None, compiled=compiled, options=world_opt)
            for _ in range(worlds)
        )
        self.world_stores = tuple(sim.store for sim in self.sims)
        self.store = self.world_stores[0]
        self._callbacks: dict[int, object] = {}
        self._cb_list: tuple = ()
        self._cb_ids = itertools.count(1)
        self._cb_lock = threading.Lock()
        self._stat_mask_hits = 0
        if self.obs.metrics is not None:
            self.obs.metrics.add_collector(self._collect_metrics)

    # -- world bookkeeping ---------------------------------------------------

    def _check_world(self, world: int) -> None:
        if not 0 <= world < self.worlds:
            raise SimulatorError(
                f"world {world} out of range (worlds={self.worlds})"
            )

    def _running(self) -> list[Simulator]:
        return [sim for sim in self.sims if not sim.finished]

    @property
    def finished(self) -> bool:
        """True when every world has finished."""
        return all(sim.finished for sim in self.sims)

    @property
    def exit_codes(self) -> list[int | None]:
        """Per-world exit code (None while a world still runs)."""
        return [sim.exit_code for sim in self.sims]

    @property
    def finish_ticks(self) -> list[int | None]:
        """Per-world tick at which the world's ``Stop`` fired."""
        return [sim.get_time() - 1 if sim.finished else None for sim in self.sims]

    @property
    def active_worlds(self) -> tuple[int, ...]:
        return tuple(k for k, sim in enumerate(self.sims) if not sim.finished)

    def printf_output_world(self, world: int) -> list[str]:
        self._check_world(world)
        return self.sims[world].printf_output

    # -- stepping ------------------------------------------------------------

    def flush(self) -> None:
        """Settle every world's pending pokes now."""
        for sim in self.sims:
            sim.flush()

    def step(self, cycles: int = 1) -> None:
        """Advance every running world by ``cycles`` clock posedges.  At
        each, the clock callbacks fire once, with this layer as their
        argument, then every running world steps one cycle."""
        for _ in range(cycles):
            running = self._running()
            if not running:
                break
            # Read per cycle: a callback registered from another thread
            # fires from the next posedge on.
            cb_list = self._cb_list
            if cb_list:
                for fn in cb_list:
                    fn(self)
            for sim in running:
                sim.step(1)

    def run(self, max_cycles: int = 1_000_000) -> list[int | None]:
        """Run until every world stops or ``max_cycles`` elapse.  Returns
        the per-world exit codes (None for worlds that timed out)."""
        self.run_cycles(max_cycles)
        return self.exit_codes

    def run_cycles(
        self,
        cycles: int,
        stimulus=None,
        on_progress=None,
        progress_every: int = 0,
    ) -> int:
        """:meth:`SimulatorInterface.run_cycles` for every world.

        ``stimulus`` is either one callable, called as ``stimulus(self,
        cycle)`` before each posedge (every cycle then runs in Python
        lockstep), or one stimulus per world, as :func:`make_sweep_stimulus`
        builds.  With per-world stimulus or none, and no clock callback
        registered, each running world runs up to 1024 cycles at a time
        through its own ``Simulator.run_cycles`` (a tape goes to the native
        kernel) or ``Simulator.run``.  While a callback is registered, each
        world's stimulus is called as ``(world's Simulator, cycle)`` before
        every :meth:`step`.  Returns the cycles run: fewer than ``cycles``
        once every world has finished."""
        if callable(stimulus):
            return super().run_cycles(cycles, stimulus, on_progress, progress_every)
        per_world = None
        if stimulus is not None:
            per_world = list(stimulus)
            if len(per_world) != self.worlds:
                raise SimulatorError(
                    f"need {self.worlds} stimuli, one per world, got {len(per_world)}"
                )
        beat = progress_every if on_progress is not None else 0
        done = 0
        while done < cycles and not self.finished:
            end = min(cycles, done + _CHUNK)
            if beat:
                end = min(end, done - done % beat + beat)
            if self._cb_list:
                while done < end and self._cb_list and not self.finished:
                    if per_world is not None:
                        for sim, stim in zip(self.sims, per_world, strict=True):
                            if not sim.finished:
                                stim(sim, done)
                    self.step(1)
                    done += 1
            else:
                t0 = self.get_time()
                for k, sim in enumerate(self.sims):
                    if sim.finished:
                        continue
                    if per_world is None:
                        sim.run(end - done)
                    else:
                        sim.run_cycles(end - done, stimulus=per_world[k])
                done += self.get_time() - t0
            if beat and done % beat == 0:
                on_progress(self, done)
        return done

    def reset(self, cycles: int = 1) -> None:
        """Assert reset in every running world for ``cycles``, then
        deassert."""
        name = self.design.signals[self.design.reset_index].name
        self.poke(name, 1)
        self.step(cycles)
        self.poke(name, 0)

    # -- pokes / peeks -------------------------------------------------------
    #
    # A finished world keeps its final state: pokes skip it.

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input to the same value in every running world."""
        for sim in self._running():
            sim.poke(name, value)

    def poke_world(self, name: str, world: int, value: int) -> None:
        """Drive a top-level input in one world only."""
        self._check_world(world)
        sim = self.sims[world]
        if not sim.finished:
            sim.poke(name, value)

    def poke_worlds(self, name: str, values) -> None:
        """Drive a top-level input with one value per world."""
        values = list(values)
        if len(values) != self.worlds:
            raise SimulatorError(
                f"poke_worlds needs {self.worlds} values, got {len(values)}"
            )
        for sim, value in zip(self.sims, values, strict=True):
            if not sim.finished:
                sim.poke(name, value)

    def peek(self, name: str, world: int = 0) -> int:
        """One world's settled value of a signal."""
        self._check_world(world)
        return self.sims[world].peek(name)

    def peek_worlds(self, name: str) -> list[int]:
        """The signal's settled value in every world."""
        return [sim.peek(name) for sim in self.sims]

    def peek_mem(self, path: str, addr: int, world: int = 0) -> int:
        self._check_world(world)
        return self.sims[world].peek_mem(path, addr)

    def state_digest(self, world: int) -> str:
        """One world's state fingerprint: its ``Simulator.state_digest()``."""
        self._check_world(world)
        return self.sims[world].state_digest()

    # -- observability -------------------------------------------------------

    def note_mask_hit(self, n: int = 1) -> None:
        """Count per-world breakpoint/watchpoint hits (fed by the runtime;
        surfaces in repro.obs metrics)."""
        self._stat_mask_hits += n

    def stats(self) -> dict:
        """The layer's counters.  ``ticks`` is the posedges the layer
        advanced; ``world_cycles`` and ``native_cycles`` add up every
        world's.  Every statement runs as scalar code in each world, so
        ``vector_statements`` is 0."""
        design = self.design
        sims = self.sims
        statements = (
            len(design.order_targets)
            + len(design.registers)
            + len(design.mem_writes)
            + len(design.effects)
        )
        out = {
            "worlds": self.worlds,
            "active_worlds": len(self.active_worlds),
            "ticks": max(sim.ticks for sim in sims),
            "world_cycles": sum(sim.ticks for sim in sims),
            "native_cycles": sum(sim.native_cycles for sim in sims),
            "mask_hits": self._stat_mask_hits,
            "stops": sum(sim.finished for sim in sims),
            "vector_statements": 0,
            "scalar_statements": statements,
            "printfs": sum(len(sim.printf_output) for sim in sims),
        }
        if self.timeline is not None:
            out["timeline_entries"] = len(self.timeline)
            out["snapshot_bytes"] = sum(sim.timeline.nbytes for sim in sims)
        return out

    def _collect_metrics(self, reg) -> None:
        s = self.stats()
        reg.gauge("manyworlds_worlds", "Scenario worlds").set(s["worlds"])
        reg.gauge(
            "manyworlds_active_worlds", "Worlds still running"
        ).set(s["active_worlds"])
        reg.counter(
            "manyworlds_ticks_total", "Clock edges the worlds advanced"
        ).set_total(s["ticks"])
        reg.counter(
            "manyworlds_world_cycles_total", "Aggregate world-cycles advanced"
        ).set_total(s["world_cycles"])
        reg.counter(
            "manyworlds_mask_hits_total",
            "Per-world breakpoint/watchpoint hits",
        ).set_total(s["mask_hits"])
        reg.counter(
            "manyworlds_stops_total", "Worlds finished by a Stop"
        ).set_total(s["stops"])

    # -- SimulatorInterface --------------------------------------------------

    def get_value(self, path: str) -> int:
        """World 0's value (the interface contract is scalar); per-world
        reads go through :meth:`peek`/:meth:`peek_worlds`."""
        return self.sims[0].get_value(path)

    def set_value(self, path: str, value: int) -> None:
        """Drive a signal in every running world."""
        for sim in self._running():
            sim.set_value(path, value)

    @property
    def can_set_value(self) -> bool:
        return True

    def hierarchy(self) -> HierNode:
        return self.design.hierarchy

    def clock_name(self) -> str:
        return self.design.signals[self.design.clock_index].path

    def add_clock_callback(self, fn, wake=None) -> int:
        # Every posedge with a callback runs in Python lockstep, so ``wake``
        # is unused.
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
        """The latest world's time: every running world's, and once all
        have finished, one past the last ``Stop``."""
        return max(sim.get_time() for sim in self.sims)

    # -- time travel ---------------------------------------------------------

    @property
    def timeline(self):
        return self.sims[0].timeline

    @property
    def can_set_time(self) -> bool:
        return self.timeline is not None

    def _apply_set_time(self, time: int) -> None:
        if self.timeline is None:
            raise TimelineError(
                "time travel disabled: construct with "
                "options=SessionOptions(snapshots=N)"
            )
        if any(sim.finished for sim in self.sims):
            # A finished world recorded no history past its Stop.
            raise SimulatorError(
                "many-worlds time travel with finished worlds is unsupported"
            )
        if any(time not in sim.timeline for sim in self.sims):
            raise TimelineError(f"cycle {time} is not retained in every world")
        for sim in self.sims:
            sim.set_time(time)

    def _retain_current_time(self):
        for sim in self._running():
            sim._retain_current_time()
        return None


def make_sweep_stimulus(
    sim: ManyWorldsSimulator, seeds, overrides=None
) -> list[Stimulus]:
    """Per-world random stimulus honoring the shard farm's seed contract,
    for :meth:`ManyWorldsSimulator.run_cycles`.

    World ``k`` gets the :class:`~repro.sim.stimulus.Stimulus` tape of
    ``seeds[k]`` — the sequence ``repro.shard.make_stimulus`` feeds a shard
    with ``seed=seeds[k]`` — so per-world digests match the corresponding
    shard runs bit for bit.  ``overrides`` names inputs held constant (poke
    them yourself, as shard specs do).
    """
    seeds = list(seeds)
    if len(seeds) != sim.worlds:
        raise SimulatorError(f"need {sim.worlds} seeds, got {len(seeds)}")
    return [Stimulus(sim.design, seed, overrides or ()) for seed in seeds]
