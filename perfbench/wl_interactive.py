"""Workload ``rv32-interactive``: one engineer in a closed loop on a hub.

A hot ``DebugHub`` serves the debug build of ``qsort`` with 64 retained
snapshots; one client thread on one connection at a time.  The run first
makes repeated fresh attaches, each to its first stop.  Then sessions
arm a conditional breakpoint on the register-file writeback (``rd == 5``
holds about every fourth cycle, about a thousand stops per run), print a
source variable at every stop, and at about 10% of stops (chosen by the
seed) do ``reverse_step`` then ``step``, until the program finishes.
Between sessions the program also runs to completion twice with nothing
armed.  The work is in the hub wire, the session pump, frame
reconstruction, symbol-table queries and timeline record/restore; the
engine only runs bursts of about four cycles.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import pb_util
import repro
from repro.core import Runtime
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.hub import DebugHub, HubClient, LocalSession, SessionOptions
from repro.sim import Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table

PROGRAM = "qsort"
SNAPSHOTS = 64
CONDITION = "rd == 5"
PRINTED = "wb_val"
REVERSE_SHARE = 0.1
MAX_CYCLES = 100_000
#: share of the budget spent on fresh attaches (at least MIN_ATTACHES)
ATTACH_SHARE = 0.1
MIN_ATTACHES = 5
#: stops per window of the closed-loop rate (armed_cycles_per_s)
WINDOW = 50
#: How closely this workload's timed results follow the host's speed (see
#: ``wl_fig5.HOST_SENSITIVITY``); thread hand-offs and socket waits follow
#: it less than pure computation does.
HOST_SENSITIVITY = 0.65
#: Run the whole process (client, hub loop, session threads) on one CPU:
#: one engineer's closed loop needs one core, and cross-core wake-ups on a
#: shared host vary by up to a factor of two between runs.
ONE_CPU = True


@dataclass
class State:
    expected: int
    design: object
    hub: DebugHub
    address: tuple
    line: tuple
    #: finished sessions awaiting the reference checks of :func:`finish`
    pending: list = field(default_factory=list)
    script_seed: int = 0


def setup(run) -> State:
    bench = benchmark_by_name(PROGRAM)
    words = assemble(bench.source).words
    design = repro.compile(RV32Core(words, 8192), debug=True)
    hub = DebugHub(design, options=SessionOptions(snapshots=SNAPSHOTS))
    try:
        address = hub.serve_background()
    except BaseException:
        hub.close()
        raise
    return State(
        expected=bench.expected,
        design=design,
        hub=hub,
        address=address,
        line=pb_util.source_line(RV32Core, "regs.write(rd, wb_val"),
        script_seed=run.seed,
    )


def teardown(state: State) -> None:
    state.hub.close()


def _client(state: State) -> HubClient:
    return HubClient(*state.address, timeout=pb_util.OP_TIMEOUT_S)


#: control operations: each returns a StopInfo stamped with its cycle
CONTROL = frozenset({"run", "cont", "step", "reverse_step"})


class _Failed(Exception):
    """A session operation failed; the session is abandoned."""


def _op(run, lat, kind: str, fn, *args, tracer=None):
    """One client operation: timed into ``lat[kind]`` and checked."""
    if tracer is not None:
        tracer.op_id += 1
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as failed op
        run.fail(kind, exc)
        raise _Failed(kind) from exc
    lat.setdefault(kind, []).append(time.perf_counter() - t0)
    if getattr(result, "reason", None) == "error":
        run.check(False, f"{kind}: {result.message}")
        raise _Failed(kind)
    run.check(True, kind)
    return result


def drive(run, state: State, session, lat: dict, tracer=None) -> dict:
    """Run the seeded debugging script on ``session`` to the end.

    Returns the session's outcome: stops seen, final stop, tohost, digest,
    and the closed loop's simulated cycles per second over each window of
    :data:`WINDOW` stops."""
    rng = random.Random(state.script_seed)
    marks = []

    def op(kind, fn, *args):
        result = _op(run, lat, kind, fn, *args, tracer=tracer)
        if kind in CONTROL:
            marks.append((time.perf_counter(), result.time))
        return result

    op("reset", session.reset, 1)
    op("add_breakpoint", session.add_breakpoint, *state.line, CONDITION)
    marks.append((time.perf_counter(), 0))
    stop = op("run", session.run, MAX_CYCLES)
    stops = 0
    while stop.stopped:
        stops += 1
        op("print", session.evaluate, PRINTED)
        if rng.random() < REVERSE_SHARE:
            stop = op("reverse_step", session.reverse_step)
            if not stop.stopped:
                break
            stops += 1
            stop = op("step", session.step)
            if not stop.stopped:
                break
            stops += 1
        stop = op("cont", session.cont)
    return {
        "stops": stops,
        "stop": stop,
        "tohost": op("peek", session.peek, "tohost"),
        "digest": op("state_digest", session.state_digest),
        "rates": [
            (c1 - c0) / (t1 - t0)
            for (t0, c0), (t1, c1) in zip(
                marks[::WINDOW], marks[WINDOW::WINDOW], strict=False
            )
        ],
    }


def _first_stop(run, state: State, lat: dict, tracer=None) -> None:
    """attach -> reset -> add breakpoint -> first stop, on a fresh
    connection; the whole sequence is one timed operation."""
    t0 = time.perf_counter()
    try:
        with _client(state) as client:
            session = client.attach()
            session.reset(1)
            session.add_breakpoint(*state.line, CONDITION)
            stop = session.run(MAX_CYCLES)
            dt = time.perf_counter() - t0
            session.detach()
    except Exception as exc:  # noqa: BLE001 - counted as failed op
        run.fail("first stop", exc)
        return
    if run.check(stop.reason == "breakpoint", f"first stop: {stop.reason}"):
        lat.setdefault("first_stop", []).append(dt)


def _idle_run(run, state: State, rates: list) -> None:
    """The program to completion over the hub with nothing armed."""
    try:
        with _client(state) as client:
            session = client.attach()
            session.reset(1)
            t0 = time.perf_counter()
            stop = session.run(MAX_CYCLES)
            dt = time.perf_counter() - t0
            tohost = session.peek("tohost")
            session.detach()
    except Exception as exc:  # noqa: BLE001 - counted as failed op
        run.fail("idle run", exc)
        return
    ok = stop.reason == "done" and stop.exit_code == 0
    if run.check(ok and tohost == state.expected, f"idle run: {stop.reason}"):
        rates.append(stop.cycles / dt)


def measure(run, state: State, seconds: float, tracer=None) -> dict:
    lat: dict[str, list] = {}
    attaches = pb_util.Deadline(seconds * ATTACH_SHARE)
    deadline = pb_util.Deadline(seconds)
    while len(lat.get("first_stop", ())) < MIN_ATTACHES or not attaches.expired():
        if len(lat.get("first_stop", ())) % 10 == 0:
            run.sample_speed()
        _first_stop(run, state, lat, tracer)
        if run.failed > 10 * MIN_ATTACHES:
            break
    idle: list[float] = []
    armed: list[float] = []
    while True:
        run.sample_speed()
        try:
            with _client(state) as client:
                session = client.attach()
                outcome = drive(run, state, session, lat, tracer)
                session.detach()
        except _Failed:
            pass
        except Exception as exc:  # noqa: BLE001 - counted as failed op
            run.fail("session", exc)
        else:
            state.pending.append(outcome)
            armed.extend(outcome["rates"])
        for _ in range(2):
            run.sample_speed()
            _idle_run(run, state, idle)
        if deadline.expired():
            break
    cont = lat.get("cont", [])

    def p50_ms(kind):
        values = lat.get(kind, [])
        return (pb_util.median(values) * 1e3, "ms", len(values))

    return {
        "idle_cycles_per_s": (pb_util.median(idle), "cycles/s", len(idle)),
        "armed_cycles_per_s": (pb_util.median(armed), "cycles/s", len(armed)),
        "op_p50_ms": p50_ms("cont"),
        "cont_p50_ms": p50_ms("cont"),
        "cont_p99_ms": (pb_util.percentile(cont, 99) * 1e3, "ms", len(cont)),
        "step_p50_ms": p50_ms("step"),
        "reverse_step_p50_ms": p50_ms("reverse_step"),
        "print_p50_ms": p50_ms("print"),
        "first_stop_ms": p50_ms("first_stop"),
    }


def _replay(run, state: State, lat: dict) -> dict | None:
    """The same script on an in-process LocalSession (no hub wire)."""
    sim = Simulator(
        state.design.low,
        compiled=state.hub.compiled,
        options=SessionOptions(snapshots=SNAPSHOTS),
    )
    symtable = SQLiteSymbolTable(write_symbol_table(state.design))
    session = LocalSession(Runtime(sim, symtable))
    session.stop_timeout = pb_util.OP_TIMEOUT_S
    try:
        return drive(run, state, session, lat)
    except _Failed:
        return None
    finally:
        session.detach()


def finish(run, state: State) -> None:
    """Check every measured session against two references: a free-running
    standalone Simulator of the same build (final digest) and an
    in-process replay of the same script (stop count)."""
    if not state.pending:
        return
    ref = Simulator(state.design.low, options=SessionOptions())
    ref.reset(1)
    ref.run(MAX_CYCLES)
    digest = ref.state_digest()
    replay = _replay(run, state, {})
    for outcome in state.pending:
        stop = outcome["stop"]
        ok = (
            stop.reason == "done"
            and stop.exit_code == 0
            and outcome["tohost"] == state.expected
            and outcome["digest"] == digest
            and replay is not None
            and outcome["stops"] == replay["stops"]
        )
        run.check(
            ok,
            f"session: {stop.reason}, tohost {outcome['tohost']}, "
            f"{outcome['stops']} stops",
        )
    state.pending.clear()


def compare(run, state: State, seconds: float, base: dict) -> dict:
    """Comparison configurations: the same script in-process, the bare
    wire round trip, attach cost, and the timeline on and off."""
    budget = pb_util.Deadline(seconds * 0.5)
    local: dict[str, list] = {}
    while True:
        _replay(run, state, local)
        if budget.expired():
            break
    attach, rtt = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        with _client(state) as client:
            session = client.attach()
            attach.append(time.perf_counter() - t0)
            for _ in range(10):
                t0 = time.perf_counter()
                session.get_time()
                rtt.append(time.perf_counter() - t0)
            session.detach()
    local_cont = pb_util.median(local.get("cont", [])) * 1e3
    out = {
        "hub.local_cont_p50_ms": local_cont,
        "hub.wire_ms": base["cont_p50_ms"][0] - local_cont,
        "hub.attach_ms": pb_util.median(attach) * 1e3,
        "hub.rtt_ms": pb_util.median(rtt) * 1e3,
    }
    out.update(_timeline(state, pb_util.Deadline(seconds * 0.5)))
    return out


def _timeline(state: State, budget) -> dict:
    """Record cost (free runs with and without snapshots, detached) and
    restore latency (``set_time`` 1 and 63 cycles back)."""
    compiled = state.hub.compiled
    rates = {0: [], SNAPSHOTS: []}
    while True:
        for snapshots in rates:
            sim = Simulator(
                state.design.low,
                compiled=compiled,
                options=SessionOptions(snapshots=snapshots),
            )
            sim.reset(1)
            t0 = time.perf_counter()
            sim.run(MAX_CYCLES)
            rates[snapshots].append(sim.get_time() / (time.perf_counter() - t0))
        if budget.expired():
            break
    off, on = pb_util.median(rates[0]), pb_util.median(rates[SNAPSHOTS])
    sim = Simulator(
        state.design.low, compiled=compiled, options=SessionOptions(snapshots=SNAPSHOTS)
    )
    sim.reset(1)
    sim.step(2000)
    now = sim.get_time()
    restores = []
    for _ in range(50):
        for back in (1, SNAPSHOTS - 1):
            t0 = time.perf_counter()
            sim.set_time(now - back)
            restores.append(time.perf_counter() - t0)
        sim.step(now - sim.get_time())
    return {
        "timeline.record_overhead_pct": (off / on - 1) * 100,
        "timeline.restore_us": pb_util.median(restores) * 1e6,
        "timeline.bytes": sim.stats()["snapshot_bytes"],
    }


def traced_layers(run, state, tracer) -> dict:
    return {}
