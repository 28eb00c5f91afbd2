"""Shard workers: one ``Simulator`` per shard, and a ``Runtime`` when the
shard breaks or watches on something.

:func:`run_shard` is the whole life of a shard and runs anywhere — inline
in the coordinator process (``workers=0``, and how the determinism
property tests pin shard ≡ standalone), or inside a forked worker process
(:func:`worker_main` serving one :func:`worker_entry` attempt after
another), where every hit/progress event streams back to the coordinator
as a JSON line.  Either way the shard reads its session's in-memory
symbol table (:class:`~repro.symtable.memory.MemorySymbolTable`), which a
forked worker inherits.

Stimulus is owned by the spec contract (see ``spec.py``): sorted-name
random pokes from ``random.Random(seed)``, overrides held constant,
reset asserted for ``reset_cycles`` first.  The tape that carries it is
:class:`repro.sim.stimulus.Stimulus`, owned by the engine that runs it.
"""

from __future__ import annotations

import contextlib
import os
import time

from ..core.runtime import HitRecorder, Runtime, hit_record
from ..faults import FaultInjector, corrupt_line
from ..obs import make_obs
from ..sim.engine import SessionOptions, Simulator
from ..sim.stimulus import Stimulus
from ..sim.stimulus import stimulus_inputs as sim_stimulus_inputs
from .spec import HitRecords, ShardResult, ShardSpec, WorldGroupSpec
from .wire import (
    done_event,
    encode_line,
    error_event,
    group_done_event,
    heartbeat_event,
    hit_event,
    hit_row_event,
    progress_event,
    stats_event,
    warning_event,
)


#: At the default cadence (``ShardSpec.progress_every == 0``) a worker
#: sends at most one heartbeat per this many seconds of wall time: every
#: line wakes the coordinator, and a tight 0.5 s
#: ``DeadlinePolicy.heartbeat_timeout_s`` still sees ten per window.
HEARTBEAT_S = 0.05


def stimulus_inputs(design, spec: ShardSpec) -> list[tuple[str, int]]:
    """The ``(name, width)`` pairs ``spec``'s stimulus randomizes each
    cycle (see :func:`repro.sim.stimulus.stimulus_inputs`)."""
    return sim_stimulus_inputs(design, spec.overrides)


def make_stimulus(sim: Simulator, spec: ShardSpec) -> Stimulus:
    """The stimulus ``run_cycles`` takes for ``spec``: a tape of its seed
    with its overrides held (see :class:`~repro.sim.stimulus.Stimulus`)."""
    return Stimulus(sim.design, spec.seed, spec.overrides)


def run_shard(
    circuit,
    symtable,
    spec: ShardSpec,
    emit=None,
    compiled=None,
    fast: bool = True,
    on_cycle=None,
    obs=None,
    hits: str | None = "record",
) -> ShardResult:
    """Run one shard to completion and return its result.

    Args:
        circuit: the coordinator's elaborated Low-form circuit.
        symtable: any ``SymbolTableInterface`` (a session's shards all
            read its in-memory copy).
        spec: what to run (seed, overrides, length, break/watchpoints).
        emit: optional ``emit(event_dict)`` sink for streaming hit,
            progress, and heartbeat events while the shard runs.
        compiled: optional pre-compiled design shared from the coordinator
            (forked workers inherit it and skip recompilation).
        on_cycle: optional ``on_cycle(cycle)`` hook invoked before each
            stimulus cycle — the fault-injection seam (``repro.faults``).
            None (the default) adds no per-cycle overhead.
        obs: observability depth (``repro.obs``): an ``Obs`` to report
            into, a mode string, or None (``configure``/``$REPRO_OBS``).
            A fresh registry/tracer is built per shard with a
            ``shard=<id>`` label and ``shard <id>`` process name, so
            per-shard series stay distinct through wire transit and the
            merged Chrome trace shows one track per shard.  When armed,
            the final dump rides ``ShardResult.obs`` (and, with ``emit``,
            a ``stats`` wire event just before ``done``).
        hits: how ``emit`` streams each hit: ``"record"`` as its record
            (:func:`hit_event`); ``"row"`` in its wire form, the hit's row
            and the plans it is the first hit of (:func:`hit_row_event`),
            as a forked worker's pipe carries it; None not at all (a
            forked attempt whose sweep has no listener: the result holds
            every hit), and at the default cadence no progress event
            either, since nothing reads them.
    """
    t0 = time.perf_counter()
    obs = make_obs(
        obs,
        proc=f"shard {spec.shard_id}",
        labels={"shard": str(spec.shard_id)},
    )
    # With timeline streaming the shard retains its last N cycles of
    # state history and ships the serialized window home with the result,
    # so the aggregator can localize replica divergence to the first
    # divergent cycle and signal, not just report a digest mismatch.
    with obs.span("shard.setup", shard=spec.shard_id):
        sim = Simulator(
            circuit,
            compiled=compiled,
            options=SessionOptions(fast=fast, snapshots=spec.timeline_cycles, obs=obs),
        )
        # A shard with nothing to break on needs no debugger: no Runtime,
        # no recorder, and a result with no hit and no warning.
        recorder = runtime = None
        if spec.breakpoints or spec.watchpoints:
            stream = None
            if emit is not None and hits == "row":
                def stream(row, plans) -> None:
                    emit(hit_row_event(spec.shard_id, row, plans))
            elif emit is not None and hits == "record":
                def stream(row, _plans) -> None:
                    emit(hit_event(spec.shard_id, hit_record(row, recorder.plans)))
            recorder = HitRecorder(stream=stream, limit=spec.hit_limit)
            runtime = Runtime(sim, symtable, on_hit=recorder)
            runtime.attach()
            for bp in spec.breakpoints:
                runtime.add_breakpoint(bp.filename, bp.line, bp.column, bp.condition)
            for wp in spec.watchpoints:
                runtime.add_watchpoint(wp.name, wp.instance, wp.condition)

        for name in spec.overrides:
            sim.poke(name, spec.overrides[name])
        if spec.reset_cycles:
            sim.reset(spec.reset_cycles)

    # Heartbeats ride the run-loop progress hook, which fires every
    # `beat_every` cycles: the hook sends one (the supervision layer's
    # liveness signal) when HEARTBEAT_S of wall time has passed since the
    # last, and the progress event on its own multiple.  Every hook ends
    # a kernel call, so a short shard takes four; longer ones look at the
    # clock at least every 2048 cycles.  `progress_each` is snapped to a
    # multiple of `beat_every` so no progress tick lands between hook
    # invocations.  A quiet attempt (no listener, `hits` None) sends no
    # progress event, so its hook only looks at the clock, every
    # min(cycles, 2048) cycles: a short shard takes one kernel call.  An
    # explicit spec.progress_every pins both cadences and sends a
    # heartbeat at every hook, preserving the historical event stream
    # exactly.
    on_progress = None
    quiet = hits is None and not spec.progress_every
    beat_every = spec.progress_every or max(
        1, min(spec.cycles // (1 if quiet else 4), 2048)
    )
    progress_each = spec.progress_every or beat_every * max(
        1, (spec.cycles // 4) // beat_every
    )
    if emit is not None:
        emit(heartbeat_event(spec.shard_id, 0))  # armed: setup finished
        beat_gap = 0.0 if spec.progress_every else HEARTBEAT_S
        next_beat = time.monotonic() + beat_gap

        def on_progress(_s, done: int) -> None:
            nonlocal next_beat
            now = time.monotonic()
            if now >= next_beat:
                emit(heartbeat_event(spec.shard_id, done))
                next_beat = now + beat_gap
            if not quiet and done % progress_each == 0:
                emit(
                    progress_event(
                        spec.shard_id,
                        done,
                        spec.cycles,
                        0 if recorder is None else len(recorder),
                    )
                )

    stimulus = make_stimulus(sim, spec)
    if on_cycle is not None:
        base_stimulus = stimulus

        def stimulus(s, cycle: int) -> None:
            on_cycle(cycle)
            base_stimulus(s, cycle)

    with obs.span("shard.run", shard=spec.shard_id, seed=spec.seed):
        ran = sim.run_cycles(
            spec.cycles,
            stimulus=stimulus,
            on_progress=on_progress,
            progress_every=beat_every,
        )
    warnings = [] if runtime is None else list(runtime.warnings)
    if emit is not None:
        for message in warnings:
            emit(warning_event(spec.shard_id, message))
    obs_wire = None
    if obs.metrics is not None:
        wall = time.perf_counter() - t0
        m = obs.metrics
        m.counter("shard_cycles_total", "Stimulus cycles run").set_total(ran)
        m.gauge(
            "shard_cycles_per_second", "Shard throughput over its wall time"
        ).set(ran / wall if wall > 0 else 0.0)
        m.counter("shard_hits_total", "Breakpoint/watchpoint hits").set_total(
            0 if recorder is None else len(recorder)
        )
        obs_wire = obs.to_wire()
        if emit is not None:
            emit(stats_event(spec.shard_id, obs_wire))
    return ShardResult(
        shard_id=spec.shard_id,
        seed=spec.seed,
        cycles=ran,
        hits=(
            HitRecords() if recorder is None
            else HitRecords(recorder.hits, recorder.plans)
        ),
        warnings=warnings,
        exit_code=sim.exit_code,
        wall_time_s=time.perf_counter() - t0,
        # Raw value-table fingerprint (store buffer + memories): equal
        # digests mean bit-identical final state — the aggregator's
        # replicated-shard determinism check, and what pins the forked
        # path against an inline or standalone run of the same seed.
        state_digest=sim.state_digest(),
        timeline=(
            sim.timeline.to_wire() if sim.timeline is not None else None
        ),
        obs=obs_wire,
    )


def run_world_group(
    circuit,
    symtable,
    group: WorldGroupSpec,
    emit=None,
    compiled=None,
    fast: bool = True,
    obs=None,
    hits: str | None = "record",
) -> list[ShardResult]:
    """Run a :class:`WorldGroupSpec`'s members one after another in this
    process, each through :func:`run_shard`, so each runs as a scalar
    stimulus tape on the native kernel where it can.  Every member gets
    its own :class:`ShardResult`, equal to running it as a standalone
    shard, and its own per-shard observability built from the mode
    ``obs``; ``hits`` is :func:`run_shard`'s."""
    return [
        run_shard(
            circuit, symtable, m, emit=emit, compiled=compiled,
            fast=fast, obs=obs, hits=hits,
        )
        for m in group.members
    ]


def worker_main(
    circuit, compiled, symtable, conn, inbox, obs_mode: str | None = None,
) -> None:
    """Forked worker process main: serve its session's attempts back to
    back, across sweeps.

    Each message on ``inbox`` (the read end of a one-way pipe from the
    coordinator) is one attempt, ``(spec_wire, fault, listening)``, run by
    :func:`worker_entry` with events streamed through ``conn``.  ``None``,
    EOF, or the coordinator's death ends the loop.  The worker stays for
    another attempt only after a clean ``done`` of an attempt with no
    fault armed; otherwise it exits, so the coordinator sees pipe EOF
    exactly as a one-attempt worker would produce it.  Every attempt
    reads ``symtable``, the session's in-memory table this process
    inherited at the fork.
    """
    parent = os.getppid()
    try:
        while True:
            # Siblings forked later hold copies of this pipe's write end,
            # so EOF alone cannot tell an orphan that the coordinator died.
            while not inbox.poll(1.0):
                if os.getppid() != parent:
                    return
            try:
                job = inbox.recv()
            except (EOFError, OSError):
                return
            if job is None:
                return
            spec_wire, fault, listening = job
            clean = worker_entry(
                circuit, compiled, spec_wire, symtable, conn, fault=fault,
                obs_mode=obs_mode, listening=listening,
            )
            if not clean or fault is not None:
                return
    finally:
        conn.close()
        inbox.close()


def worker_entry(
    circuit, compiled, spec_wire: dict, symtable, conn,
    fault=None, obs_mode: str | None = None, listening: bool = True,
) -> bool:
    """One forked attempt: run one shard and stream JSON-line events
    through ``conn`` (a write-only ``multiprocessing`` connection),
    finishing with a ``done`` (or ``error``) event.  Returns True when
    the attempt sent a clean ``done``.  The pipe stays open: the worker
    loop (:func:`worker_main`) owns it.

    ``listening`` says whether the attempt's sweep has an ``on_event``
    listener.
    Without one the attempt streams no hit at all: the ``done`` result
    carries every hit, so streaming them too would only cost building,
    encoding, pipe and decoding work for records nobody reads.  At the
    default cadence it sends no progress event either, only heartbeats
    (see :func:`run_shard`).

    ``fault`` (a :class:`repro.faults.ShardFault`, or None) arms this
    attempt's injected fault: kill/hang fire from the per-cycle hook,
    wire corruption garbles every line emitted from the fault cycle on —
    including the final ``done`` line, so the coordinator classifies the
    attempt as corrupt instead of silently accepting a damaged result.

    ``obs_mode`` arms observability for this attempt (the coordinator
    passes its own resolved mode so ``--obs``/``$REPRO_OBS`` on the
    coordinator reaches every worker).  The shard's ``Obs`` is built
    after the fork, so its pid and span buffer are genuinely this
    worker's.
    """
    injector = FaultInjector(fault) if fault is not None else None

    hits = "row" if listening else None

    def emit(event: dict) -> None:
        data = encode_line(event)
        if injector is not None and injector.corrupting:
            data = corrupt_line(data)
        conn.send_bytes(data)

    try:
        if "worlds" in spec_wire:
            # A packed world group: M member specs, one attempt, one done
            # event carrying every member result.  The faults layer's
            # per-cycle hook has no lockstep seam, so injected faults stay
            # a plain-shard (chaos-test) feature.
            group = WorldGroupSpec.from_wire(spec_wire)
            results = run_world_group(
                circuit, symtable, group, emit=emit,
                compiled=compiled, obs=obs_mode, hits=hits,
            )
            emit(group_done_event(group.shard_id, results))
            return True
        spec = ShardSpec.from_wire(spec_wire)
        result = run_shard(
            circuit, symtable, spec, emit=emit, compiled=compiled,
            on_cycle=injector.on_cycle if injector is not None else None,
            obs=obs_mode, hits=hits,
        )
        emit(done_event(result))
        return True
    except Exception as exc:  # noqa: BLE001 - process boundary
        with contextlib.suppress(OSError):
            # The spec itself may be what failed to decode: fall back to
            # the raw wire dict for the shard id so the coordinator still
            # gets the real error instead of a bare pipe EOF.
            shard_id = spec_wire.get("shard_id", -1)
            emit(error_event(shard_id, f"{type(exc).__name__}: {exc}"))
        return False
