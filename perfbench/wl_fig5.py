"""Workload ``rv32-fig5``: the paper's Fig. 5 suite as a batch job.

The ten RV32 programs, release build, each run to completion with an hgdb
``Runtime`` attached.  Two kinds of pass alternate so machine drift hits
both alike: *idle* (no breakpoint, the Fig. 5 configuration) and *armed*
(one conditional breakpoint on the register-file writeback whose
condition never holds).  Clock edges dominate: the engine, the value
store and the runtime's per-cycle callback do the work; the hub, frames,
symbol-table queries and timeline do none.  The suite is fixed by the
paper, so the seed is not used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pb_util
import repro
from repro.core import Runtime
from repro.cpu import RV32Core, assemble, build_suite
from repro.hub import SessionOptions
from repro.sim import Simulator, compile_design
from repro.symtable import SQLiteSymbolTable, write_symbol_table

MAX_CYCLES = 200_000
#: A PC no suite program reaches: the armed condition is evaluated at
#: every writeback and never holds.
ARMED_CONDITION = "pc == 0xFFFFFFF0"
#: How closely this workload's timed results follow the host's speed: the
#: exponent of ``pb_util.slowdown`` in a log-log fit of run medians on the
#: reference host (see ``run._scaled``).
HOST_SENSITIVITY = 0.75


@dataclass
class Program:
    name: str
    expected: int
    design: object
    symtable: object
    compiled: object


def setup(run) -> list[Program]:
    progs = []
    for bench in build_suite():
        design = repro.compile(RV32Core(assemble(bench.source).words, 8192))
        progs.append(
            Program(
                bench.name,
                bench.expected,
                design,
                SQLiteSymbolTable(write_symbol_table(design)),
                compile_design(design.low),
            )
        )
    return progs


def teardown(progs) -> None:
    for prog in progs:
        prog.symtable.conn.close()


def finish(run, progs) -> None:
    """Every check ran inline with its program."""


def _run_program(run, prog: Program, mode: str, line) -> tuple[float, int, object]:
    """One program to completion; ``mode`` is detached, idle or armed.
    Returns (seconds, cycles, simulator)."""
    sim = Simulator(prog.design.low, compiled=prog.compiled, options=SessionOptions())
    runtime = None
    if mode != "detached":
        runtime = Runtime(sim, prog.symtable)
        runtime.attach()
        if mode == "armed":
            runtime.add_breakpoint(*line, condition=ARMED_CONDITION)
    sim.reset()
    start = sim.get_time()
    t0 = time.perf_counter()
    code = sim.run(MAX_CYCLES)
    dt = time.perf_counter() - t0
    tohost = sim.peek("tohost")
    ok = code == 0 and tohost == prog.expected
    if runtime is not None:
        ok = ok and not any(bp.hit_count for bp in runtime.list_breakpoints())
    run.check(ok, f"{prog.name} ({mode}): exit {code}, tohost {tohost}")
    return dt, sim.get_time() - start, sim


def _passes(run, progs, modes, seconds: float, tracer=None) -> dict:
    """Alternate suite passes of each mode until the budget runs out.

    Returns mode -> {"rates": cycles/s of each whole pass, "times":
    seconds of each whole pass, "sims": the last pass's simulators}."""
    line = pb_util.source_line(RV32Core, "regs.write(rd, wb_val")
    out = {m: {"rates": [], "times": [], "sims": []} for m in modes}
    deadline = pb_util.Deadline(seconds)
    while True:
        for mode in modes:
            total_t = total_c = 0
            sims = []
            run.sample_speed()
            for prog in progs:
                if tracer is not None:
                    tracer.op_id += 1
                try:
                    dt, cycles, sim = _run_program(run, prog, mode, line)
                except Exception as exc:  # noqa: BLE001 - counted as failed op
                    run.fail(f"{prog.name} ({mode})", exc)
                    continue
                total_t += dt
                total_c += cycles
                sims.append(sim)
            if total_t > 0:
                out[mode]["rates"].append(total_c / total_t)
                out[mode]["times"].append(total_t)
            out[mode]["sims"] = sims
        if deadline.expired():
            return out


def measure(run, progs, seconds: float, tracer=None) -> dict:
    res = _passes(run, progs, ("idle", "armed"), seconds, tracer)
    idle, armed = res["idle"]["rates"], res["armed"]["rates"]
    times = res["idle"]["times"]
    return {
        "idle_cycles_per_s": (pb_util.median(idle), "cycles/s", len(idle)),
        "armed_cycles_per_s": (pb_util.median(armed), "cycles/s", len(armed)),
        "op_p50_ms": (pb_util.median(times) * 1e3, "ms", len(times)),
        "fig5_cycles_per_s": (pb_util.median(idle), "cycles/s", len(idle)),
    }


def compare(run, progs, seconds: float, base: dict) -> dict:
    """Detached, idle and armed passes interleaved: the runtime's cost per
    cycle, and which settle path the engine took."""
    res = _passes(run, progs, ("detached", "idle", "armed"), seconds)
    rate = {m: pb_util.median(res[m]["rates"]) for m in res}
    ns = {m: 1e9 / rate[m] for m in rate}
    stats = [sim.stats() for sim in res["idle"]["sims"]]
    ticks = sum(s["ticks"] for s in stats)
    lookups = stats[-1]["cone_hits"] + stats[-1]["cone_misses"]
    out = {
        "sim.detached_cycles_per_s": rate["detached"],
        "runtime.idle_overhead_pct": (rate["detached"] / rate["idle"] - 1) * 100,
        "runtime.idle_ns_per_cycle": ns["idle"] - ns["detached"],
        "runtime.armed_ns_per_cycle": ns["armed"] - ns["detached"],
        "sim.cone_hit_ratio": stats[-1]["cone_hits"] / lookups,
    }
    for key in ("settle_tick", "settle_seeds", "settle_full"):
        out[f"sim.{key}_per_cycle"] = sum(s[key] for s in stats) / ticks
    return out


def traced_layers(run, state, tracer) -> dict:
    """Condition evaluations per armed cycle and hits per evaluation, read
    off every armed runtime the traced passes attached."""
    armed = [rt for rt in tracer.runtimes if rt.list_breakpoints()]
    evals = sum(rt.stats_bp_evals for rt in armed)
    hits = sum(bp.hit_count for rt in armed for bp in rt.list_breakpoints())
    cycles = sum(rt.stats_callbacks for rt in armed)
    return {
        "runtime.bp_evals_per_cycle": evals / cycles if cycles else 0.0,
        "runtime.hit_ratio": hits / evals if evals else 0.0,
    }
