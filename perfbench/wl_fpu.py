"""Workload ``fpu-sweep``: the Sec. 4.2 bug hunt as a seeded shard sweep.

``FpuCmp(buggy=True)`` under ``ShardSession.sweep`` with the default
worker pool.  Phase *hunt* arms the Listing-3 breakpoint inside
``when (in.wflags)`` with ``rm == 2``: about one cycle in eight hits and
ships a frame.  Phase *worlds* runs the same seeds with no breakpoint and
``worlds_per_shard`` set, so each group runs vectorized.  The engine is
driven by per-cycle pokes (``settle_seeds``) instead of clock edges; this
is the only workload that exercises ``repro.shard``, the symbol-table RPC
and ``repro.sim.manyworlds``.  Shard seeds derive from the workload seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import pb_util
import repro
from repro.fpu import FpuCmp
from repro.hub import SessionOptions
from repro.shard import (
    BreakpointSpec,
    ShardSession,
    ShardSpec,
    default_workers,
    make_stimulus,
    stimulus_inputs,
)
from repro.sim import ManyWorldsSimulator, Simulator, make_sweep_stimulus

SHARDS = 8
CYCLES = 1000
WORLDS_PER_SHARD = 4
CONDITION = "rm == 2"
#: How closely this workload's timed results follow the host's speed (see
#: ``wl_fig5.HOST_SENSITIVITY``); a sweep spends most of its wall time in
#: fork, pipes and RPC, which the reference job's speed barely predicts.
HOST_SENSITIVITY = 0.25


@dataclass
class State:
    design: object
    session: ShardSession
    breakpoint: BreakpointSpec
    seed_base: int
    #: seed -> expected hits, and seed -> the first final-state digest seen
    expected: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    attempts: int = 0
    failed_shards: int = 0


def setup(run) -> State:
    design = repro.compile(FpuCmp(buggy=True))
    line = pb_util.source_line(FpuCmp, "self.exc <<= dcmp.io.exceptionFlags")
    return State(
        design=design,
        session=ShardSession(design, options=SessionOptions()),
        breakpoint=BreakpointSpec(*line, condition=CONDITION),
        seed_base=(run.seed * SHARDS) % (1 << 30),
    )


def teardown(state: State) -> None:
    state.session.close()


def finish(run, state: State) -> None:
    """Every check ran inline with its sweep."""


def _seeds(state: State) -> range:
    return range(state.seed_base, state.seed_base + SHARDS)


def _expected_hits(compiled, seed: int) -> int:
    """Stimulus cycles with ``wflags == 1 and rm == 2``, replaying the
    shard stimulus contract: sorted-name ``getrandbits`` pokes from
    ``Random(seed)`` every cycle."""
    inputs = stimulus_inputs(compiled, ShardSpec(0, seed=seed, cycles=CYCLES))
    rng = random.Random(seed)
    hits = 0
    for _ in range(CYCLES):
        pokes = {name: rng.getrandbits(width) for name, width in inputs}
        hits += pokes["wflags"] == 1 and pokes["rm"] == 2
    return hits


def _sweep(run, state: State, session: ShardSession, phase: str):
    """One sweep of ``phase`` (hunt or worlds); returns (report, wall)
    or None when the sweep itself failed."""
    kwargs = (
        {"breakpoints": [state.breakpoint]}
        if phase == "hunt"
        else {"worlds_per_shard": WORLDS_PER_SHARD}
    )
    run.sample_speed()
    t0 = time.perf_counter()
    try:
        report = session.sweep(
            SHARDS,
            CYCLES,
            seed_base=state.seed_base,
            timeout=pb_util.OP_TIMEOUT_S,
            **kwargs,
        )
    except Exception as exc:  # noqa: BLE001 - counted as failed op
        run.fail(f"{phase} sweep", exc)
        return None
    wall = time.perf_counter() - t0
    for res in report.results:
        state.attempts += res.attempts
        ok = (
            res.ok
            and res.attempts == 1
            and not res.failures
            and res.cycles == CYCLES
            and res.state_digest == state.digests.setdefault(res.seed, res.state_digest)
        )
        if phase == "hunt":
            ok = ok and len(res.hits) == state.expected[res.seed]
        state.failed_shards += not res.ok
        run.check(
            ok,
            f"{phase} shard {res.shard_id}: error {res.error}, "
            f"{res.attempts} attempt(s), {len(res.hits)} hits",
        )
    return report, wall


def _rate(report, wall: float) -> float:
    return sum(r.cycles for r in report.results) / wall


def _vectorized_groups(report) -> list[bool]:
    """Which world groups ran vectorized.  A vectorized group shares one
    lockstep wall time among its members (``run_world_group``), while a
    sequential group reports each member's own wall time."""
    results = report.results
    return [
        len({r.wall_time_s for r in results[i : i + WORLDS_PER_SHARD]}) == 1
        for i in range(0, len(results), WORLDS_PER_SHARD)
    ]


def measure(run, state: State, seconds: float, tracer=None) -> dict:
    for seed in _seeds(state):
        if seed not in state.expected:
            state.expected[seed] = _expected_hits(state.session.compiled, seed)
    hunt, worlds, walls = [], [], []
    deadline = pb_util.Deadline(seconds)
    while True:
        if tracer is not None:
            tracer.op_id += 1
        done = _sweep(run, state, state.session, "hunt")
        if done is not None:
            hunt.append(_rate(*done))
            walls.append(done[1])
        if tracer is not None:
            tracer.op_id += 1
        done = _sweep(run, state, state.session, "worlds")
        if done is not None:
            worlds.append(_rate(*done))
            run.info["world groups vectorized"] = _vectorized_groups(done[0])
        if deadline.expired():
            break
    run.info["shard workers"] = (
        f"hunt {default_workers(SHARDS)}, "
        f"worlds {default_workers(SHARDS // WORLDS_PER_SHARD)}"
    )
    return {
        "idle_cycles_per_s": (pb_util.median(worlds), "cycles/s", len(worlds)),
        "armed_cycles_per_s": (pb_util.median(hunt), "cycles/s", len(hunt)),
        "op_p50_ms": (pb_util.median(walls) * 1e3, "ms", len(walls)),
        "hunt_cycles_per_s": (pb_util.median(hunt), "cycles/s", len(hunt)),
        "worlds_cycles_per_s": (pb_util.median(worlds), "cycles/s", len(worlds)),
    }


def _session(state: State, **kwargs) -> ShardSession:
    return ShardSession(state.design, compiled=state.session.compiled, **kwargs)


def _poke_rate(run, state: State, stats: list) -> float:
    """The hunt stimulus on one in-process Simulator, no Runtime."""
    compiled = state.session.compiled
    total_t = total_c = 0
    for seed in _seeds(state):
        sim = Simulator(state.design.low, compiled=compiled, options=SessionOptions())
        stimulus = make_stimulus(sim, ShardSpec(0, seed=seed, cycles=CYCLES))
        sim.reset(1)
        t0 = time.perf_counter()
        total_c += sim.run_cycles(CYCLES, stimulus=stimulus)
        total_t += time.perf_counter() - t0
        run.check(sim.state_digest() == state.digests[seed], f"poke seed {seed}")
        stats.append(sim.stats())
    return total_c / total_t


def _worlds_rate(run, state: State, kernels: dict) -> float:
    """One in-process many-worlds group, no shard layer."""
    seeds = list(_seeds(state))[:WORLDS_PER_SHARD]
    sim = ManyWorldsSimulator(
        state.design.low,
        WORLDS_PER_SHARD,
        compiled=state.session.compiled,
        options=SessionOptions(),
    )
    stimulus = make_sweep_stimulus(sim, seeds)
    sim.reset(1)
    t0 = time.perf_counter()
    ran = sim.run_cycles(CYCLES, stimulus=stimulus)
    dt = time.perf_counter() - t0
    for k, seed in enumerate(seeds):
        run.check(sim.state_digest(k) == state.digests[seed], f"world {k}")
    kernels.update(sim.stats())
    return ran * WORLDS_PER_SHARD / dt


def _rpc(run, state: State) -> tuple[float, float]:
    """Symbol-table RPCs per hit and mean RPC latency, from the workers'
    ``rpc_requests_total`` / ``rpc_request_seconds`` metrics."""
    with _session(state, options=SessionOptions(obs="metrics")) as session:
        done = _sweep(run, state, session, "hunt")
    if done is None:
        return 0.0, 0.0
    requests = seconds = count = 0
    for res in done[0].results:
        for m in (res.obs or {}).get("metrics", {}).get("metrics", ()):
            if m["name"] == "rpc_requests_total":
                requests += m["value"]
            elif m["name"] == "rpc_request_seconds":
                seconds += m["sum"]
                count += m["count"]
    hits = sum(len(r.hits) for r in done[0].results)
    return requests / hits if hits else 0.0, seconds / count * 1e6 if count else 0.0


def compare(run, state: State, seconds: float, base: dict) -> dict:
    """Comparison configurations: the hunt inline (``workers=0``), the
    bare poke loop, one in-process world group, and RPC accounting."""
    inline, poke, worlds, stats, kernels = [], [], [], [], {}
    deadline = pb_util.Deadline(seconds)
    with _session(state, workers=0, options=SessionOptions()) as session:
        while True:
            done = _sweep(run, state, session, "hunt")
            if done is not None:
                inline.append(_rate(*done))
            poke.append(_poke_rate(run, state, stats))
            worlds.append(_worlds_rate(run, state, kernels))
            if deadline.expired():
                break
    rpc_per_hit, rpc_us = _rpc(run, state)
    inline_rate, poke_rate = pb_util.median(inline), pb_util.median(poke)
    ticks = sum(s["ticks"] for s in stats)
    lookups = stats[-1]["cone_hits"] + stats[-1]["cone_misses"]
    out = {
        "shard.inline_cycles_per_s": inline_rate,
        "sim.poke_cycles_per_s": poke_rate,
        "runtime.armed_ns_per_cycle": (1 / inline_rate - 1 / poke_rate) * 1e9,
        "sim.cone_hit_ratio": stats[-1]["cone_hits"] / lookups,
        "manyworlds.cycles_per_s": pb_util.median(worlds),
        "manyworlds.vector_statements": kernels["vector_statements"],
        "manyworlds.scalar_statements": kernels["scalar_statements"],
        "symtable.rpc_per_hit": rpc_per_hit,
        "symtable.rpc_us": rpc_us,
        "shard.attempts": state.attempts,
        "shard.failed": state.failed_shards,
    }
    for key in ("settle_tick", "settle_seeds", "settle_full"):
        out[f"sim.{key}_per_cycle"] = sum(s[key] for s in stats) / ticks
    return out


def traced_layers(run, state: State, tracer) -> dict:
    """One traced hunt inline, so the runtime, frames and symbol-table
    work of each hit lands in this process's spans."""
    with _session(state, workers=0, options=SessionOptions()) as session:
        _sweep(run, state, session, "hunt")
    evals = sum(rt.stats_bp_evals for rt in tracer.runtimes)
    hits = sum(bp.hit_count for rt in tracer.runtimes for bp in rt.list_breakpoints())
    cycles = sum(rt.stats_callbacks for rt in tracer.runtimes)
    return {
        "runtime.bp_evals_per_cycle": evals / cycles if cycles else 0.0,
        "runtime.hit_ratio": hits / evals if evals else 0.0,
    }
