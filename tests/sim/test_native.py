"""The native free-run tier: when it runs, how it falls back, and threads.

``Simulator.run()`` hands its budget to the design's C kernel only when
nothing observes single cycles.  Every fallback — no compiler, a compile
error, an unusable cache directory, a truncated cached library — must give
the reference's results with at most one warning per design, and arming a
debugger from another thread must stop a native run at once.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from array import array

import pytest

import repro
import repro.hgf as hgf
from repro.core import CONTINUE, Runtime
from repro.cpu import RV32Core, assemble
from repro.hub import SessionOptions
from repro.sim import Simulator, compile_design, native
from repro.sim.interface import SimulatorError
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator, Counter, line_of

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Chatty(hgf.Module):
    """Prints at n == 100 and n == 1500, stops at n == 3000 with exit
    code 3."""

    def __init__(self):
        super().__init__()
        self.out = self.output("out", 16)
        n = self.reg("n", 16, init=0)
        n <<= (n + 1)[15:0]
        self.out <<= n
        self.printf((n == 100) | (n == 1500), "n={}", n)
        self.stop(n == 3000, 3)


class Wide(hgf.Module):
    """A 200-bit accumulator: beyond the kernel's 128-bit lanes."""

    def __init__(self):
        super().__init__()
        self.d = self.input("d", 200)
        acc = self.reg("acc", 200, init=0)
        acc <<= (acc + self.d)[199:0]


def _pair(design):
    """(default simulator, fast=False reference), both reset."""
    compiled = compile_design(design.low)
    sims = (
        Simulator(design.low, compiled=compiled),
        Simulator(design.low, options=SessionOptions(fast=False)),
    )
    for sim in sims:
        sim.reset()
    return sims


def _same(sim, ref):
    assert sim.get_time() == ref.get_time()
    assert sim.exit_code == ref.exit_code
    assert sim.printf_output == ref.printf_output
    assert sim.state_digest() == ref.state_digest()


def _run_accumulator(cycles=3000):
    """Run Accumulator natively against the reference; returns the
    simulator (stats, design) and the NativeWarnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim, ref = _pair(repro.compile(Accumulator()))
        for s in (sim, ref):
            s.poke("en", 1)
            s.poke("d", 7)
            s.run(cycles)
            s.run(cycles)  # a second run reuses the design's verdict
        _same(sim, ref)
    return sim, [w for w in caught if issubclass(w.category, native.NativeWarning)]


@pytest.fixture()
def fresh(tmp_path, monkeypatch):
    """An empty library cache and process memo."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LOADED", {})
    monkeypatch.setattr(native, "_COMPILERS", {})
    return tmp_path


def _has_compiler():
    return native._compiler()[1] is not None


needs_cc = pytest.mark.skipif(
    not _has_compiler(), reason="needs a working C compiler ($CC or cc)"
)


# -- when the tier runs -------------------------------------------------------


@needs_cc
def test_run_goes_native_and_matches_reference():
    sim, warned = _run_accumulator()
    assert not warned
    assert native.status(sim.design) == "on"
    assert sim.stats()["native_cycles"] == 6000
    assert sim.stats()["ticks"] == sim.stats()["settle_tick"] == 6001


@needs_cc
def test_stops_and_printfs_run_in_python():
    sim, ref = _pair(repro.compile(Chatty()))
    assert sim.run(10_000) == ref.run(10_000) == 3
    _same(sim, ref)
    assert sim.printf_output == ["n=100", "n=1500"]
    # Each printing or stopping cycle returns to Python, which runs the
    # rest of that 1024-cycle chunk; the kernel runs everything else.
    assert 1000 < sim.stats()["native_cycles"] < 3000


@needs_cc
@pytest.mark.parametrize(
    "position", [0, 6, -1], ids=["head-keyframe", "delta", "newest"]
)
def test_native_run_after_a_rewind(position):
    """A rewind writes an ``array('Q')`` keyframe and its deltas back into
    the store in place; the kernel runs on from that state, and the window
    it refills matches a stepped run's, whichever retained cycle the
    rewind lands on."""
    d = repro.compile(Accumulator())
    options = SessionOptions(snapshots=16)
    sim, ref = (Simulator(d.low, options=options) for _ in range(2))
    for s in (sim, ref):
        s.reset()
        s.poke("en", 1)
        s.poke("d", 9)
        s.step(30)
        s.set_time(s.timeline.times()[position])
        s.poke("d", 3)
    sim.run(5000)
    ref.step(5000)
    assert sim.stats()["native_cycles"] > 0
    _same(sim, ref)
    _same_window(sim, ref)


def test_never_native_outside_free_run():
    """Whatever observes single cycles keeps ``run()`` in Python; an
    entry-limited timeline does not (it is refilled after each segment)."""
    d = repro.compile(Accumulator())

    class Sink:
        def begin(self, sim):
            pass

        def sample(self, sim):
            pass

    stepped = Simulator(d.low)
    batch = Simulator(d.low)
    callback = Simulator(d.low)
    callback.add_clock_callback(lambda sim: None)
    traced = Simulator(d.low, trace=Sink())
    reference = Simulator(d.low, options=SessionOptions(fast=False))
    timeline = Simulator(d.low, options=SessionOptions(snapshots=8))
    stepped.step(2000)
    batch.run_cycles(2000, stimulus=lambda sim, cycle: sim.poke("d", cycle & 0xFF))
    for sim in (callback, traced, reference, timeline):
        sim.run(2000)
    for sim in (stepped, batch, callback, traced, reference):
        assert sim.get_time() == 2000
        assert sim.stats()["native_cycles"] == 0
    assert timeline.get_time() == 2000
    assert timeline.state_digest() == stepped.state_digest()
    assert timeline.timeline.times() == list(range(1992, 2000))
    if _has_compiler():
        assert timeline.stats()["native_cycles"] == 2000


@needs_cc
def test_memories_are_shared_with_the_kernel_in_place():
    """A native segment copies no memory: a one-cycle run() on the
    8192-word core allocates less than that memory at peak, and every
    memory is the same object afterwards."""
    sim = Simulator(_spin_design(8192).low)
    sim.reset()
    sim.run(10)  # load the kernel and warm up
    assert [len(m) for m in sim.mems] == [8192, 32]  # memory, register file
    assert all(isinstance(m, array) and m.typecode == "Q" for m in sim.mems)
    before = list(sim.mems)
    tracemalloc.start()
    try:
        sim.run(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.stats()["native_cycles"] == 11
    assert peak < 8192 * 8, peak
    assert all(a is b for a, b in zip(sim.mems, before, strict=True))


@needs_cc
@pytest.mark.parametrize(
    "bad",
    [list(range(64)), array("Q", bytes(8 * 63)), array("L", bytes(64 * 8))],
    ids=["list", "short", "typecode"],
)
def test_kernel_rejects_a_memory_it_cannot_share(bad):
    sim = Simulator(_spin_design().low)
    kernel = native.kernel_for(sim.design)
    prog, wake = array("q", [0, 0]), array("Q", [0])
    with pytest.raises(SimulatorError, match="array"):
        kernel.run(sim._v, sim._w, [bad, sim.mems[1]], 1, array("q", [0]), prog, wake)
    assert prog[0] == 0


@pytest.mark.parametrize(
    "wake",
    [("sig", -1), ("sig", 10**6), ("num", 2**64), ("num", -1), ("sig", 1, 2),
     ("+", ("sig", 1), ("num", 1)), ("!", ("sig", 1), ("sig", 2)), ("==",), "x"],
    ids=repr,
)
def test_malformed_wake_is_rejected(wake):
    sim = Simulator(repro.compile(Accumulator()).low)
    with pytest.raises(SimulatorError, match="malformed wake"):
        sim.add_clock_callback(lambda s: None, wake)
    assert sim._cb_list == () and len(sim._wake) == 1  # nothing registered


def test_wide_lane_wake_rejected_and_deep_wake_stays_python():
    """A wake may not read a >64-bit lane; one deeper than the
    interpreter's stack is accepted but keeps ``run()`` in Python."""
    wide = Simulator(repro.compile(Wide()).low)
    acc = wide.design.signal_index["Wide.acc"]
    with pytest.raises(SimulatorError, match="malformed wake"):
        wide.add_clock_callback(lambda s: None, ("sig", acc))
    sim = Simulator(repro.compile(Accumulator()).low)
    deep = ("sig", sim.design.signal_index["Accumulator.d"])
    for _ in range(native.WAKE_STACK):
        deep = ("==", ("num", 0), ("!", deep))
    calls = []
    sim.add_clock_callback(lambda s: calls.append(s.get_time()), deep)
    assert sim._wake is None
    sim.run(50)
    assert len(calls) == 50 and sim.stats()["native_cycles"] == 0


def test_ineligible_design_runs_in_python_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", native.NativeWarning)
        sim, ref = _pair(repro.compile(Wide()))
        for s in (sim, ref):
            s.poke("d", (1 << 199) | 12345)
            s.run(100)
    _same(sim, ref)
    assert native.status(sim.design).startswith("off (ineligible: a 200-bit value")
    assert sim.stats()["native_cycles"] == 0


# -- fallbacks ------------------------------------------------------------------


def _fake_cc(tmp_path, body):
    path = tmp_path / "fakecc"
    path.write_text(
        '#!/bin/sh\nif [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
        + body
    )
    path.chmod(0o755)
    return str(path)


def test_no_compiler_falls_back_with_one_warning(fresh, monkeypatch):
    monkeypatch.setenv("CC", str(fresh / "no-such-cc"))
    sim, warned = _run_accumulator()
    assert len(warned) == 1
    assert "no working C compiler" in str(warned[0].message)
    assert sim.stats()["native_cycles"] == 0
    assert native.status(sim.design).startswith("off (no working C compiler")


def test_compile_error_falls_back_with_one_warning(fresh, monkeypatch):
    monkeypatch.setenv("CC", _fake_cc(fresh, 'echo "error: no" >&2\nexit 1\n'))
    sim, warned = _run_accumulator()
    assert len(warned) == 1
    assert "build failed" in str(warned[0].message)
    assert sim.stats()["native_cycles"] == 0
    assert not os.listdir(native.cache_dir())  # no temporary left behind


@needs_cc
@pytest.mark.parametrize("problem", ["unwritable", "foreign"])
def test_unusable_cache_dir_uses_a_private_temp_dir(fresh, monkeypatch, problem):
    if problem == "unwritable":
        (fresh / "cache").write_text("a file where the directory should be")
    else:
        os.makedirs(fresh / "cache" / "repro-native")
        owner = os.stat(fresh / "cache" / "repro-native").st_uid
        monkeypatch.setattr(native.os, "getuid", lambda: owner + 1)
    path = native.cache_dir()
    assert not path.startswith(str(fresh))
    assert os.stat(path).st_mode & 0o777 == 0o700
    sim, warned = _run_accumulator()
    assert not warned
    assert sim.stats()["native_cycles"] == 6000


@needs_cc
def test_truncated_cached_library_is_rebuilt(fresh):
    cc, version = native._compiler()
    source = native.c_source(compile_design(repro.compile(Accumulator()).low))
    path = native.library_path(version, source)
    native._build(cc, source, path)
    with open(path, "r+b") as fh:
        fh.truncate(100)
    sim, warned = _run_accumulator()
    assert not warned
    assert sim.stats()["native_cycles"] == 6000
    assert os.path.getsize(path) > 100


@needs_cc
def test_two_processes_racing_on_one_key(fresh):
    script = (
        "import repro, sys\n"
        "from repro.sim import Simulator\n"
        "from tests.helpers import Accumulator\n"
        "sim = Simulator(repro.compile(Accumulator()).low)\n"
        "sim.reset(); sim.poke('en', 1); sim.poke('d', 7); sim.run(5000)\n"
        "print(sim.state_digest(), sim.stats()['native_cycles'])\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    design = repro.compile(Accumulator())
    ref = Simulator(design.low, options=SessionOptions(fast=False))
    ref.reset()
    ref.poke("en", 1)
    ref.poke("d", 7)
    ref.run(5000)
    for proc, (out, err) in zip(procs, outs, strict=True):
        assert proc.returncode == 0, err
        assert out.split() == [ref.state_digest(), "5000"]
    assert len(os.listdir(native.cache_dir())) == 1  # one library, no temporaries


# -- threads ------------------------------------------------------------------------


def _spin_design(mem_words=64):
    words = assemble("loop:\n addi a0, a0, 1\n j loop\n").words
    return repro.compile(RV32Core(words, mem_words))


class Stopped(Exception):
    pass


def _stop_on_hit(hit):
    raise Stopped(hit.time)


@needs_cc
@pytest.mark.parametrize("arm", ["breakpoint", "pause"])
def test_arming_from_another_thread_stops_a_native_run(arm):
    design = _spin_design()
    sim = Simulator(design.low)
    rt = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)), _stop_on_hit)
    rt.attach()
    sim.reset()

    def arm_once_running():
        deadline = time.monotonic() + 30
        while sim.get_time() < 1000 and time.monotonic() < deadline:
            time.sleep(0)
        if arm == "pause":
            rt.request_pause()
        else:
            rt.add_breakpoint(*line_of(design, "pc"))

    budget = 10**7
    armer = threading.Thread(target=arm_once_running, daemon=True)
    armer.start()
    with pytest.raises(Stopped) as stop:
        sim.run(budget)
    armer.join(timeout=30)
    assert 1000 <= stop.value.args[0] < budget // 10
    assert sim.stats()["native_cycles"] >= 999


@needs_cc
@pytest.mark.parametrize("change", ["add", "remove"])
def test_breakpoint_changes_from_another_thread_under_a_wake(change):
    """A native run under a wake (a never-true breakpoint keeps the runtime
    armed) sees a breakpoint added or removed from another thread from
    the next posedge on."""
    design = repro.compile(Accumulator())
    sim = Simulator(design.low)
    hits = []

    def on_hit(hit):
        hits.append(hit.time)
        if change == "add":
            raise Stopped(hit.time)
        return CONTINUE

    rt = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)), on_hit)
    rt.attach()
    line = line_of(design, "acc")
    rt.add_breakpoint(*line, condition="acc == 70000")  # 16 bits: never
    if change == "remove":
        periodic = rt.add_breakpoint(*line, condition="(acc & 4095) == 0")
    sim.reset()
    sim.poke("en", 1)
    sim.poke("d", 1)
    seen = {}

    def change_once_running():
        deadline = time.monotonic() + 30
        while sim.get_time() < 20_000 and time.monotonic() < deadline:
            time.sleep(0)
        seen["before"] = sim.get_time()
        if change == "add":
            rt.add_breakpoint(*line, condition="acc >= 0")
        else:
            rt.remove_breakpoint(periodic[0].rec.id)
        seen["after"] = sim.get_time()

    # Natively this design runs ~4 ns per cycle: the budget leaves the
    # changer ample time, and an added breakpoint ends the run long before.
    budget = 10**9 if change == "add" else 10**8
    changer = threading.Thread(target=change_once_running, daemon=True)
    changer.start()
    if change == "add":
        with pytest.raises(Stopped):
            sim.run(budget)
    else:
        assert sim.run(budget) is None
    changer.join(timeout=30)
    assert not changer.is_alive()
    assert 20_000 <= seen["before"] <= seen["after"] < budget // 10
    if change == "add":
        assert seen["before"] <= hits[0] <= seen["after"] + 1
    else:
        assert len(hits) >= 4 and max(hits) <= seen["after"]
        assert sim.get_time() == budget + 1
    assert sim.stats()["native_cycles"] >= 19_000


@needs_cc
def test_breakpoint_churn_from_threads_during_native_runs():
    """More threads than cores insert and remove never-true breakpoints
    while the interpreter switches threads every 10 us and the simulator
    runs natively: no wake update is lost, so the simulator ends running
    exactly the runtime's own wake, with no hit and the reference state."""
    design = repro.compile(Accumulator())
    sim = Simulator(design.low)
    hits = []
    rt = Runtime(
        sim,
        SQLiteSymbolTable(write_symbol_table(design)),
        lambda hit: hits.append(hit) or CONTINUE,
    )
    rt.attach()
    line = line_of(design, "acc")
    sim.reset()
    sim.poke("en", 1)
    sim.poke("d", 1)

    def churn(k):
        for j in range(20):  # acc has 16 bits: none of these ever holds
            (bp,) = rt.add_breakpoint(*line, condition=f"acc == {70000 + 50 * k + j}")
            if j % 3:
                rt.remove_breakpoint(bp.rec.id)

    threads = [threading.Thread(target=churn, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            sim.run(20_000)
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sim.run(20_000)
    registered = [] if rt._cb_id is None else [rt._cb_wake]
    assert registered == ([rt._wake()] if rt.list_breakpoints() else [])
    assert sim._wake == native.wake_program(registered, sim.design)
    assert not hits
    assert sim.stats()["native_cycles"] > 0
    ref = Simulator(design.low, options=SessionOptions(fast=False))
    ref.reset()
    ref.poke("en", 1)
    ref.poke("d", 1)
    ref.run(sim.get_time() - 1)
    _same(sim, ref)


@needs_cc
def test_get_time_never_falls_while_the_window_is_refilled():
    """Under a timeline, run() re-executes each native segment from its
    checkpoint; a thread polling get_time() meanwhile never reads a time
    earlier than one it read before."""
    sim = Simulator(_spin_design().low, options=SessionOptions(snapshots=64))
    sim.reset()
    seen, done = [], threading.Event()

    def poll():
        while not done.is_set():
            seen.append(sim.get_time())

    poller = threading.Thread(target=poll, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        poller.start()
        sim.run(2_000_000)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    poller.join(timeout=30)
    assert not poller.is_alive()
    assert sim.get_time() == 2_000_001
    assert sim.timeline.times() == list(range(2_000_001 - 64, 2_000_001))
    assert len(seen) > 100 and seen == sorted(seen)


class _Interrupt(BaseException):
    """Stands in for Ctrl-C, which lands between kernel slices."""


def _store_loop_design():
    """An RV32 core storing a counter round 64 words forever."""
    source = """
    loop:
        addi a0, a0, 1
        andi a1, a0, 63
        slli a1, a1, 2
        sw a0, 128(a1)
        j loop
    """
    return repro.compile(RV32Core(assemble(source).words, 512))


def _same_window(sim, ref):
    assert sim.timeline.times() == ref.timeline.times()
    for t in ref.timeline.times():
        sim.set_time(t)
        ref.set_time(t)
        assert sim.state_digest() == ref.state_digest(), t


@needs_cc
@pytest.mark.parametrize(
    "call,stop_at", [(2, 1001), (6, 4001)], ids=["first pass", "re-run"]
)
def test_an_interrupted_native_run_restarts_the_timeline(monkeypatch, call, stop_at):
    """Whether an exception interrupts a segment's native pass or the re-run
    that refills the window, the timeline restarts: it retains nothing,
    its next record is a keyframe, and every state it then retains matches
    a stepped run's."""
    design = _store_loop_design()
    sim = Simulator(design.low, options=SessionOptions(snapshots=16))
    sim.reset()
    kernel = native.kernel_for(sim.design)
    calls, real = [], kernel.fn

    def fn(*args):
        calls.append(1)
        if len(calls) == call:
            raise _Interrupt
        return real(*args)

    monkeypatch.setattr(native, "SLICE", 1000)
    monkeypatch.setattr(kernel, "fn", fn)
    # Five 1000-cycle slices from cycle 1, then the re-run from the last
    # checkpoint (cycle 4001) up to the window.
    with pytest.raises(_Interrupt):
        sim.run(5000)
    assert sim.get_time() == stop_at and len(sim.timeline) == 0
    # The counters count the cycles up to where the simulator stopped.
    assert sim.ticks == stop_at and sim.native_cycles == stop_at - 1
    sim.step(40)
    ref = Simulator(design.low, options=SessionOptions(snapshots=16))
    ref.reset()
    ref.step(stop_at - 1 + 40)
    stats, ref_stats = sim.stats(), ref.stats()
    for key in ("ticks", "settle_tick"):
        assert stats[key] == ref_stats[key], key
    assert sim.timeline.times() == list(range(stop_at + 24, stop_at + 40))
    _same_window(sim, ref)


@needs_cc
def test_a_window_opening_on_a_checkpoint_restarts_the_timeline(monkeypatch):
    """A segment whose window starts exactly at a slice checkpoint needs no
    re-run, but the kernel's earlier slices went unrecorded, so the
    timeline must still restart."""
    monkeypatch.setattr(native, "SLICE", 1000)
    design = _store_loop_design()
    sim = Simulator(design.low, options=SessionOptions(snapshots=16))
    ref = Simulator(design.low, options=SessionOptions(snapshots=16))
    sim.reset()
    ref.reset()
    sim.run(1016)  # slices from cycles 1 and 1001; the window opens at 1001
    ref.step(1016)
    assert sim.timeline.times() == list(range(1001, 1017))
    assert sim.stats()["native_cycles"] == 1016
    _same_window(sim, ref)


@needs_cc
def test_threads_share_one_compiled_design():
    """More threads than cores run simulators of one compiled design, and
    race to load its kernel, while the interpreter switches threads every
    10 us: each must still end bit-identical to its own reference."""
    design = repro.compile(Accumulator())
    compiled = compile_design(design.low)
    offsets = (3, 5, 7, 11)

    def drive(sim, d):
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", d)
        for _ in range(50):
            sim.run(2000)

    sims = [Simulator(design.low, compiled=compiled) for _ in offsets]
    threads = [
        threading.Thread(target=drive, args=(sim, d))
        for sim, d in zip(sims, offsets, strict=True)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for sim, d in zip(sims, offsets, strict=True):
        ref = Simulator(design.low, options=SessionOptions(fast=False))
        drive(ref, d)
        assert sim.stats()["native_cycles"] == 100_000
        _same(sim, ref)


# -- observability -----------------------------------------------------------------


@needs_cc
def test_native_cycles_metric_and_build_span(fresh):
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(obs="trace"))
    sim.reset()
    sim.poke("en", 1)
    sim.run(500)
    (span,) = [s for s in sim.obs.tracer.spans if s.name == "sim.native_build"]
    assert span.args["cache"] == "miss" and span.args["ms"] > 0
    metrics = sim.obs.metrics.snapshot()["metrics"]
    (series,) = [m for m in metrics if m["name"] == "sim_native_cycles_total"]
    assert series["value"] == 500

    again = Simulator(d.low, options=SessionOptions(obs="trace"))
    again.reset()
    again.run(10)
    (span,) = [s for s in again.obs.tracer.spans if s.name == "sim.native_build"]
    assert span.args["cache"] == "memo"


# -- stimulus tapes -----------------------------------------------------------------


class Beat(hgf.Module):
    """A 4-bit cycle count and a random input: ``seen`` samples ``x`` on
    every 16th cycle after reset, where the count wraps to 0."""

    def __init__(self):
        super().__init__()
        x = self.input("x", 8)
        self.o = self.output("o", 8)
        n = self.reg("n", 4, init=0)
        n <<= (n + 1)[3:0]
        seen = self.reg("seen", 8, init=0)
        with self.when(n == 0):
            seen <<= x
        self.o <<= seen


def _beat_hunt(
    design, fast: bool, cycles: int = 100, beat: int = 16, recorder: bool = False
):
    """A shard-style run of ``Beat`` under a breakpoint on ``seen``, its
    hits kept by a plain handler (the wake path) or a ``HitRecorder`` (the
    kernel records them): (hit records, progress reports, digest, native
    cycles, native hits)."""
    from repro.core import HitRecorder
    from repro.shard import ShardSpec, make_stimulus

    sim = Simulator(design.low, options=SessionOptions(fast=fast))
    records = []
    sink = (
        HitRecorder() if recorder
        else lambda hit: records.append(hit.to_record()) or CONTINUE
    )
    rt = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)), sink)
    rt.attach()
    rt.add_breakpoint(*line_of(design, "seen"))
    sim.reset()
    beats = []
    stimulus = make_stimulus(sim, ShardSpec(0, seed=5, cycles=cycles))
    ran = sim.run_cycles(
        cycles, stimulus, on_progress=lambda s, k: beats.append(k), progress_every=beat
    )
    assert ran == cycles
    if recorder:
        records = sink.records
    stats = sim.stats()
    return records, beats, sim.state_digest(), stats["native_cycles"], stats["native_hits"]


@needs_cc
def test_a_tape_run_woken_on_the_first_row_of_each_segment():
    """The wake holds on the first row after reset and on the first row of
    every 16-cycle heartbeat segment, so each kernel call returns before
    finishing its first cycle: the row it applied must reach Python."""
    design = repro.compile(Beat())
    tape = _beat_hunt(design, fast=True)
    pokes = _beat_hunt(design, fast=False)
    assert tape[:3] == pokes[:3]
    # Reset is time 0, so segments start at times 1, 17, ..., 97.
    woken = list(range(1, 101, 16))
    assert [r["time"] for r in tape[0]] == [0, *woken]
    assert tape[3] == 100 - len(woken)
    assert pokes[3] == 0
    assert tape[4] == pokes[4] == 0


@needs_cc
def test_a_recording_tape_run_records_the_first_row_of_each_segment():
    """With a ``HitRecorder`` the kernel records those hits itself: each
    is the first cycle of a kernel call, and every cycle after reset runs
    in C."""
    design = repro.compile(Beat())
    tape = _beat_hunt(design, fast=True, recorder=True)
    pokes = _beat_hunt(design, fast=False, recorder=True)
    assert tape[:3] == pokes[:3] == _beat_hunt(design, fast=True)[:3]
    woken = list(range(1, 101, 16))
    assert [r["time"] for r in tape[0]] == [0, *woken]
    assert tape[3:] == (100, len(woken))  # reset's hit ran in Python
    assert pokes[3:] == (0, 0)


class _WideLane(hgf.Module):
    """A 100-bit register next to an 8-bit input: one wide lane."""

    def __init__(self):
        super().__init__()
        d = self.input("d", 8)
        acc = self.reg("acc", 100, init=0)
        acc <<= (acc + d.pad(100))[99:0]


@needs_cc
@pytest.mark.parametrize("bad", ["short", "out of range", "wide"])
def test_kernel_rejects_a_tape_it_cannot_run(bad):
    """A tape that is shorter than the run, or whose column is not a
    narrow lane of the design, never reaches C."""
    sim = Simulator(repro.compile(_WideLane()).low)
    design = sim.design
    kernel = native.kernel_for(design)
    columns = [design.top_inputs["d"]]
    if bad == "out of range":
        columns = [len(design.signals)]
    elif bad == "wide":
        columns = [next(iter(design.wide_indices))]
    rows = array("Q", [1, 2, 3])
    tape = native.tape_header(columns, rows, 1 if bad == "short" else 0)
    prog, wake = array("q", [0, 0]), array("Q", [0])
    before = sim.state_digest()
    with pytest.raises(SimulatorError, match="tape"):
        kernel.run(sim._v, sim._w, sim.mems, 3, array("q", [0]), prog, wake, tape)
    assert prog[0] == 0
    assert sim.state_digest() == before
