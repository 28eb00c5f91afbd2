"""The native free-run tier on the paper's RV32 suite.

ROADMAP item 7's bar: free-running the ten Fig. 5 programs through
``Simulator.run()``, which hands the budget to the design's C kernel
(``repro.sim.native``), must be at least 10x faster than the reference
engine (list store, ``fast=False``).  The table also reports the ratio
against the Python fast path (the same engine stepped in 1024-cycle
chunks, which is what ``run()`` did before the native tier), and the
tier's cost model: a cold build, a warm load from the disk cache, the
fixed cost of one segment (a one-cycle kernel call: the value table's
copy in and back; memories are shared in place), and the kernel's time
per cycle.

The two timeline rows keep 64 snapshots, as a reverse-debugging session
does.  Through ``run()`` each native segment is checkpointed, and its
last 64 cycles are re-executed into the timeline (the kernel re-runs the
rest of the segment first); the row must be at least 10x faster than the
same suite stepped in Python with the same timeline, and retain the same
cycles.

The armed row runs the same suite with an attached Runtime and a
breakpoint on the register-file writeback whose condition never holds:
through ``run()`` the kernel evaluates the breakpoint's wake predicate
every cycle, against the same armed suite stepped in Python.  It must be
at least 10x faster too.

Every configuration must end every program bit-identical to the
reference (the timeline rows with the same retained cycles), and the
armed runs with no hit; in smoke mode (``REPRO_BENCH_SMOKE=1``) that
parity is all this module asserts.
"""

from __future__ import annotations

import inspect
import os
import tempfile
import time
from array import array

import pytest

import repro
from repro.core import Runtime
from repro.cpu import RV32Core, assemble
from repro.hub import SessionOptions
from repro.sim import Simulator, compile_design, native

from conftest import best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_MAX_CYCLES = 200_000
_BAR = 10.0
#: The armed row's breakpoint: a PC no suite program reaches.
_ARMED_CONDITION = "pc == 0xFFFFFFF0"
needs_cc = pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)


def _writeback_line() -> tuple[str, int]:
    """(file, line) of the register-file writeback in the CPU source."""
    lines, first = inspect.getsourcelines(RV32Core)
    at = next(i for i, text in enumerate(lines) if "regs.write(rd, wb_val" in text)
    return inspect.getsourcefile(RV32Core), first + at


def _step_run(sim) -> None:
    """The Python fast path: the pre-native ``run()`` loop."""
    while not sim.finished:
        sim.step(1024)


def _native_run(sim) -> None:
    sim.run(_MAX_CYCLES)


def _suite(progs, fast, driver, armed=False, snapshots=0):
    """Run every program to completion (``armed``: with the never-true
    breakpoint inserted; ``snapshots``: keeping that many); returns the
    simulators and the seconds spent in ``driver``."""
    sims, spent = [], 0.0
    for bench, design, compiled, table in progs:
        options = SessionOptions(fast=fast, snapshots=snapshots)
        sim = Simulator(design.low, compiled=compiled, options=options)
        if armed:
            rt = Runtime(sim, table)
            rt.attach()
            bps = rt.add_breakpoint(*_writeback_line(), condition=_ARMED_CONDITION)
        sim.reset()
        t0 = time.perf_counter()
        driver(sim)
        spent += time.perf_counter() - t0
        assert sim.exit_code == 0 and sim.peek("tohost") == bench.expected, bench.name
        if armed:
            assert not any(bp.hit_count for bp in bps), bench.name
        sims.append(sim)
    return sims, spent


@pytest.fixture(scope="module")
def progs(compiled_suite):
    return [
        (bench, design, compile_design(design.low), table)
        for (_name, debug), (bench, design, table) in sorted(compiled_suite.items())
        if not debug
    ]


def _cost_model(progs) -> dict:
    """Cold build and warm load in a fresh cache; copy and per-cycle cost."""
    _bench, design, _compiled, _table = progs[0]
    saved_env, saved_memo = os.environ.get("XDG_CACHE_HOME"), native._LOADED
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["XDG_CACHE_HOME"] = tmp
        try:
            times = []
            for _ in range(2):  # cold (build), then warm (disk hit)
                native._LOADED = {}
                fresh = compile_design(design.low)
                t0 = time.perf_counter()
                kernel = native.kernel_for(fresh)
                times.append(time.perf_counter() - t0)
        finally:
            native._LOADED = saved_memo
            if saved_env is None:
                os.environ.pop("XDG_CACHE_HOME", None)
            else:
                os.environ["XDG_CACHE_HOME"] = saved_env
    assert kernel is not None
    sim = Simulator(design.low, compiled=fresh)
    sim.reset()

    def one_cycle():
        prog, wake = array("q", [0, 0]), array("Q", [0])
        kernel.run(sim._v, sim._w, sim.mems, 1, array("q", [0]), prog, wake)

    segment = best_of(one_cycle, n=200)
    spin = repro.compile(RV32Core(assemble("l:\n addi a0, a0, 1\n j l\n").words, 8192))
    spinner = Simulator(spin.low)
    spinner.reset()
    cycles = 100_000 if _SMOKE else 2_000_000
    per_cycle = best_of(spinner.run, cycles) / cycles
    return {
        "cold_ms": times[0] * 1e3,
        "warm_ms": times[1] * 1e3,
        "segment_us": segment * 1e6,
        "ns_per_cycle": per_cycle * 1e9,
    }


@needs_cc
def test_native_free_run_bar(progs, capsys):
    """Reference, Python fast path and native on the RV32 suite, then
    both again keeping 64 snapshots."""
    configs = {
        "reference": (False, _step_run, 0),
        "python fast": (True, _step_run, 0),
        "native": (True, _native_run, 0),
        "python fast, timeline 64": (True, _step_run, 64),
        "native, timeline 64": (True, _native_run, 64),
    }
    runs = {}
    for name, (fast, driver, snapshots) in configs.items():
        sims, _spent = _suite(progs, fast, driver, snapshots=snapshots)
        runs[name] = [
            (s.get_time(), s.state_digest(), s.timeline and s.timeline.times())
            for s in sims
        ]
        if driver is _native_run:
            assert all(s.stats()["native_cycles"] > 0 for s in sims)
    assert runs["native"] == runs["python fast"] == runs["reference"]
    assert runs["native, timeline 64"] == runs["python fast, timeline 64"]
    assert [r[:2] for r in runs["native, timeline 64"]] == [
        r[:2] for r in runs["reference"]
    ]
    cycles = sum(r[0] for r in runs["reference"])

    reps = 1 if _SMOKE else 5
    secs = {
        name: best_of(_suite, progs, fast, driver, False, snapshots, n=reps)
        for name, (fast, driver, snapshots) in configs.items()
    }
    cost = _cost_model(progs)
    lines = [
        "",
        "=== native free-run tier: RV32 suite through Simulator.run() ===",
        f"{'configuration':24s} {'suite ms':>9s} {'cycles/s':>11s}"
        f" {'vs reference':>13s}",
    ]
    for name, sec in secs.items():
        lines.append(
            f"{name:24s} {sec * 1e3:9.1f} {cycles / sec:11.0f}"
            f" {secs['reference'] / sec:12.1f}x"
        )
    timeline = secs["python fast, timeline 64"] / secs["native, timeline 64"]
    lines += [
        f"native vs python fast: {secs['python fast'] / secs['native']:.1f}x; "
        f"with timeline 64: {timeline:.1f}x",
        f"cold build {cost['cold_ms']:.0f} ms, warm load {cost['warm_ms']:.1f} ms, "
        f"fixed cost of one segment {cost['segment_us']:.1f} us, "
        f"kernel {cost['ns_per_cycle']:.1f} ns/cycle",
    ]
    with capsys.disabled():
        print("\n".join(lines))
    if not _SMOKE:
        ratio = secs["reference"] / secs["native"]
        assert ratio >= _BAR, f"native only {ratio:.1f}x the reference"
        assert timeline >= _BAR, f"native with a timeline only {timeline:.1f}x"


@needs_cc
def test_native_armed_bar(progs, capsys):
    """The armed suite: ``run()``, where the kernel evaluates the
    breakpoint's wake, against the same armed suite stepped in Python."""
    configs = {
        "armed python": _step_run,
        "armed native": lambda sim: sim.run(_MAX_CYCLES),
    }
    digests = {}
    for name, driver in configs.items():
        sims, _spent = _suite(progs, True, driver, armed=True)
        digests[name] = [(s.get_time(), s.state_digest()) for s in sims]
        if name == "armed native":
            assert all(s.stats()["native_cycles"] > 0 for s in sims)
    assert digests["armed native"] == digests["armed python"]
    cycles = sum(t for t, _d in digests["armed python"])

    # Only the drivers are timed: attaching a Runtime and inserting the
    # breakpoint cost the same on both sides and are not what is compared.
    reps = 1 if _SMOKE else 5
    secs = {
        name: min(_suite(progs, True, driver, armed=True)[1] for _ in range(reps))
        for name, driver in configs.items()
    }
    ratio = secs["armed python"] / secs["armed native"]
    lines = [
        "",
        f"=== armed ({_ARMED_CONDITION!r} on the writeback line) ===",
        *(
            f"{name:14s} {sec * 1e3:9.1f} ms {cycles / sec:11.0f} cycles/s"
            for name, sec in secs.items()
        ),
        f"native vs python: {ratio:.1f}x",
    ]
    with capsys.disabled():
        print("\n".join(lines))
    if not _SMOKE:
        assert ratio >= _BAR, f"armed native only {ratio:.1f}x the armed Python path"
