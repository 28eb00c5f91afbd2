"""Shard workers: one ``Simulator`` + ``Runtime`` per shard.

:func:`run_shard` is the whole life of a shard and runs anywhere — inline
in the coordinator process (``workers=0``, and how the determinism
property tests pin shard ≡ standalone), or inside a forked worker process
(:func:`worker_entry`), where the symbol table arrives over RPC and every
hit/progress event streams back to the coordinator as a JSON line.

Stimulus is owned by the spec contract (see ``spec.py``): sorted-name
random pokes from ``random.Random(seed)``, overrides held constant,
reset asserted for ``reset_cycles`` first.
"""

from __future__ import annotations

import contextlib
import random
import time

from ..core.runtime import HitRecorder, Runtime
from ..hub.api import SessionOptions
from ..obs import make_obs
from ..sim.engine import Simulator
from ..sim.manyworlds import ManyWorldsSimulator, make_sweep_stimulus
from ..sim.store import numpy_available
from ..symtable.rpc import RPCSymbolTable
from .spec import ShardResult, ShardSpec, WorldGroupSpec
from .wire import (
    done_event,
    encode_line,
    error_event,
    group_done_event,
    heartbeat_event,
    hit_event,
    progress_event,
    stats_event,
    warning_event,
)


def stimulus_inputs(design, spec: ShardSpec) -> list[tuple[str, int]]:
    """The ``(name, width)`` pairs randomized each cycle: every top-level
    input except the clock, the reset, and the spec's overrides, in
    sorted-name order (the determinism contract)."""
    skip = {
        design.signals[design.clock_index].name,
        design.signals[design.reset_index].name,
    }
    skip.update(spec.overrides)
    return [
        (name, design.signals[idx].width)
        for name, idx in sorted(design.top_inputs.items())
        if name not in skip
    ]


def make_stimulus(sim: Simulator, spec: ShardSpec):
    """Build the per-cycle stimulus callback for ``run_cycles``."""
    rng = random.Random(spec.seed)
    inputs = stimulus_inputs(sim.design, spec)

    def stimulus(s, _cycle: int) -> None:
        for name, width in inputs:
            s.poke(name, rng.getrandbits(width))

    return stimulus


def run_shard(
    circuit,
    symtable,
    spec: ShardSpec,
    emit=None,
    compiled=None,
    fast: bool = True,
    on_cycle=None,
    obs=None,
) -> ShardResult:
    """Run one shard to completion and return its result.

    Args:
        circuit: the coordinator's elaborated Low-form circuit.
        symtable: any ``SymbolTableInterface`` (native inline, RPC in a
            forked worker).
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
    """
    t0 = time.perf_counter()
    obs = make_obs(
        obs,
        proc=f"shard {spec.shard_id}",
        labels={"shard": str(spec.shard_id)},
    )
    # With timeline streaming the shard retains its last N cycles of
    # state history (rle-compressed — store-native deltas collapse into
    # index runs) and ships the serialized window home with the result,
    # so the aggregator can localize replica divergence to the first
    # divergent cycle and signal, not just report a digest mismatch.
    with obs.span("shard.setup", shard=spec.shard_id):
        sim = Simulator(
            circuit,
            compiled=compiled,
            options=SessionOptions(
                fast=fast,
                snapshots=spec.timeline_cycles,
                snapshot_codec="rle" if spec.timeline_cycles else None,
                obs=obs,
            ),
        )
        on_record = None
        if emit is not None:
            on_record = lambda rec: emit(hit_event(spec.shard_id, rec))  # noqa: E731
        recorder = HitRecorder(on_record=on_record, limit=spec.hit_limit)
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

    # Heartbeats ride the run-loop progress hook at a finer cadence than
    # progress events: the hook fires every `beat_every` cycles and always
    # emits a heartbeat (the supervision layer's liveness signal); the
    # coarser progress event fires on its own multiple.  `progress_each`
    # is snapped to a multiple of `beat_every` so no progress tick lands
    # between hook invocations.  An explicit spec.progress_every pins both
    # cadences, preserving the historical event stream exactly.
    on_progress = None
    beat_every = spec.progress_every or max(1, min(spec.cycles // 16, 2048))
    progress_each = spec.progress_every or beat_every * max(
        1, (spec.cycles // 4) // beat_every
    )
    if emit is not None:
        emit(heartbeat_event(spec.shard_id, 0))  # armed: setup finished

        def on_progress(_s, done: int) -> None:
            emit(heartbeat_event(spec.shard_id, done))
            if done % progress_each == 0:
                emit(
                    progress_event(
                        spec.shard_id, done, spec.cycles, len(recorder)
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
    if emit is not None:
        for message in runtime.warnings:
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
            len(recorder)
        )
        obs_wire = obs.to_wire()
        if emit is not None:
            emit(stats_event(spec.shard_id, obs_wire))
    return ShardResult(
        shard_id=spec.shard_id,
        seed=spec.seed,
        cycles=ran,
        hits=recorder.records,
        warnings=list(runtime.warnings),
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
) -> list[ShardResult]:
    """Run a :class:`WorldGroupSpec`'s members together in one process.

    When the group is *vector-eligible* — numpy importable, more than one
    member, and no member arms breakpoints, watchpoints, a hit limit, or
    timeline streaming — all members advance in lockstep as scenario
    worlds of one :class:`~repro.sim.manyworlds.ManyWorldsSimulator`
    (per-world seeds/overrides honor the spec stimulus contract exactly).
    Otherwise members run sequentially through :func:`run_shard` in this
    same process.  Either way every member gets its own
    :class:`ShardResult` whose ``state_digest``, ``exit_code``, and
    cycle count are bit-identical to running it as a standalone shard.

    ``obs`` is a mode (string/None), not a built ``Obs``: the sequential
    path hands it to each member's :func:`run_shard` so per-shard
    registries stay distinct, while the vector path builds one
    group-level ``Obs`` (``worlds <id>`` process, worlds/sec gauges from
    the simulator's collector) and ships it on the first member's result.
    """
    eligible = (
        numpy_available()
        and group.worlds > 1
        and not any(
            m.breakpoints
            or m.watchpoints
            or m.hit_limit is not None
            or m.timeline_cycles
            for m in group.members
        )
    )
    if not eligible:
        return [
            run_shard(
                circuit, symtable, m, emit=emit, compiled=compiled,
                fast=fast, obs=obs,
            )
            for m in group.members
        ]

    t0 = time.perf_counter()
    first = group.members[0]
    gid = group.shard_id
    obs = make_obs(obs, proc=f"worlds {gid}", labels={"shard": str(gid)})
    with obs.span("worlds.setup", shard=gid, worlds=group.worlds):
        sim = ManyWorldsSimulator(
            circuit,
            group.worlds,
            compiled=compiled,
            options=SessionOptions(fast=fast, obs=obs),
        )
        for name in sorted(first.overrides):
            sim.poke_worlds(
                name, [m.overrides[name] for m in group.members]
            )
        if first.reset_cycles:
            sim.reset(first.reset_cycles)

    beat_every = first.progress_every or max(1, min(first.cycles // 16, 2048))
    on_progress = None
    if emit is not None:
        emit(heartbeat_event(gid, 0))  # armed: setup finished

        def on_progress(_s, done: int) -> None:
            emit(heartbeat_event(gid, done))

    stimulus = make_sweep_stimulus(
        sim, [m.seed for m in group.members], overrides=first.overrides
    )
    with obs.span("worlds.run", shard=gid, worlds=group.worlds):
        ran = sim.run_cycles(
            first.cycles,
            stimulus=stimulus,
            on_progress=on_progress,
            progress_every=beat_every,
        )
    wall = time.perf_counter() - t0
    obs_wire = None
    if obs.metrics is not None:
        obs_wire = obs.to_wire()
        if emit is not None:
            emit(stats_event(gid, obs_wire))
    exit_codes = sim.exit_codes
    finish_ticks = sim.finish_ticks
    results = []
    for k, m in enumerate(group.members):
        # A finished world ran fewer stimulus cycles than the lockstep
        # loop: its Stop fired at absolute tick `ft`, i.e. stimulus cycle
        # ft - reset_cycles, and the scalar run loop breaks *before* the
        # next cycle — so it counts ft + 1 - reset_cycles cycles (clamped:
        # a Stop during reset means zero stimulus cycles ran).
        ft = finish_ticks[k]
        ran_k = (
            min(ran, max(0, ft + 1 - first.reset_cycles))
            if ft is not None
            else ran
        )
        results.append(
            ShardResult(
                shard_id=m.shard_id,
                seed=m.seed,
                cycles=ran_k,
                exit_code=exit_codes[k],
                # One lockstep run served every member; amortize its wall
                # time so summing member walls recovers the group's.
                wall_time_s=wall / group.worlds,
                state_digest=sim.state_digest(k),
                obs=obs_wire if k == 0 else None,
            )
        )
    return results


def worker_entry(
    circuit, compiled, spec_wire: dict, host: str, port: int, conn,
    fault=None, obs_mode: str | None = None, listening: bool = True,
) -> None:
    """Forked worker process main: run one shard, stream JSON-line events
    through ``conn`` (a write-only ``multiprocessing`` connection), finish
    with a ``done`` (or ``error``) event, and close the pipe.

    ``listening`` says whether the sweep has an ``on_event`` listener.
    Without one the attempt sends no ``hit`` lines: the ``done`` result
    carries every hit, so streaming them too would only cost encoding,
    pipe and decoding work for records nobody reads.

    ``fault`` (a :class:`repro.faults.ShardFault`, or None) arms this
    attempt's injected fault: kill/hang fire from the per-cycle hook,
    wire corruption garbles every line emitted from the fault cycle on —
    including the final ``done`` line, so the coordinator classifies the
    attempt as corrupt instead of silently accepting a damaged result.

    ``obs_mode`` arms observability for this attempt (the coordinator
    passes its own resolved mode so ``--obs``/``$REPRO_OBS`` on the
    coordinator reaches every worker).  The ``Obs`` is built *here*,
    after the fork, so its pid and span buffer are genuinely this
    worker's — and shared by the RPC client and the shard run.
    """
    from ..faults import FaultInjector, corrupt_line

    injector = FaultInjector(fault) if fault is not None else None

    def emit(event: dict) -> None:
        if not listening and event["event"] == "hit":
            return
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
            with RPCSymbolTable(host, port) as table:
                results = run_world_group(
                    circuit, table, group, emit=emit, compiled=compiled,
                    obs=obs_mode,
                )
            emit(group_done_event(group.shard_id, results))
            return
        spec = ShardSpec.from_wire(spec_wire)
        obs = make_obs(
            obs_mode,
            proc=f"shard {spec.shard_id}",
            labels={"shard": str(spec.shard_id)},
        )
        with RPCSymbolTable(host, port, obs=obs) as table:
            result = run_shard(
                circuit, table, spec, emit=emit, compiled=compiled,
                on_cycle=injector.on_cycle if injector is not None else None,
                obs=obs,
            )
        emit(done_event(result))
    except Exception as exc:  # noqa: BLE001 - process boundary
        with contextlib.suppress(OSError):
            # The spec itself may be what failed to decode: fall back to
            # the raw wire dict for the shard id so the coordinator still
            # gets the real error instead of a bare pipe EOF.  A
            # ConnectionError means the RPC transport gave out, not that
            # the spec is bad: flag it transient so the supervisor
            # retries (failure class "rpc") instead of settling terminal.
            shard_id = spec_wire.get("shard_id", -1)
            emit(error_event(
                shard_id, f"{type(exc).__name__}: {exc}",
                transient=isinstance(exc, ConnectionError),
            ))
    finally:
        conn.close()
