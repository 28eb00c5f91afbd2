"""Runtime tests: breakpoint emulation, the Fig. 2 scheduling loop,
conditions, step/reverse, and callback overhead accounting."""

import gc
import threading
import time
import weakref

import pytest

import repro
from repro.core import (
    CONTINUE,
    DETACH,
    REVERSE_CONTINUE,
    REVERSE_STEP,
    STEP,
    DebuggerError,
)
from repro.sim import SessionOptions, Simulator, native
from tests.helpers import Accumulator, TwoLeaves, line_of, make_runtime


def _setup(mod_cls=Accumulator, snapshots=64, debug=False, **kw):
    d = repro.compile(mod_cls(), debug=debug)
    sim = Simulator(d.low, options=SessionOptions(snapshots=snapshots))
    return d, sim


class TestBreakpointManagement:
    def test_add_by_short_filename(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        _f, line = line_of(d, "acc")
        bps = rt.add_breakpoint("helpers.py", line)
        assert len(bps) == 1

    def test_unknown_file(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        with pytest.raises(DebuggerError, match="unknown source file"):
            rt.add_breakpoint("missing.py", 1)

    def test_unmapped_line(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        with pytest.raises(DebuggerError, match="no statement"):
            rt.add_breakpoint("helpers.py", 1)

    def test_remove_and_clear(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        _f, line = line_of(d, "acc")
        bps = rt.add_breakpoint("helpers.py", line)
        assert rt.remove_breakpoint(bps[0].rec.id)
        assert not rt.remove_breakpoint(bps[0].rec.id)
        rt.add_breakpoint("helpers.py", line)
        rt.clear_breakpoints()
        assert rt.list_breakpoints() == []


class TestHits:
    def test_enable_condition_gates_hits(self):
        d, sim = _setup()
        hits = []

        def on_hit(h):
            hits.append(h.time)
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line)
        sim.reset()
        sim.poke("d", 1)
        sim.poke("en", 0)
        sim.step(3)
        assert hits == []  # enable (en == 1) is false
        sim.poke("en", 1)
        sim.step(2)
        assert len(hits) == 2

    def test_frames_carry_values(self):
        d, sim = _setup()
        captured = []

        def on_hit(h):
            captured.append(h.frames[0].var("acc"))
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line)
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 10)
        sim.step(3)
        assert captured == [0, 10, 20]

    def test_user_condition(self):
        d, sim = _setup()
        hits = []

        def on_hit(h):
            hits.append(h.frames[0].var("acc"))
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line, condition="acc >= 30")
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 10)
        sim.step(5)
        assert hits == [30, 40]

    def test_condition_on_generator_var(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.time), CONTINUE)[1])
        rt.attach()
        _f, line = line_of(d, "acc")
        # `width` is a generator constant (16): condition compares against it
        rt.add_breakpoint("helpers.py", line, condition="width == 16")
        sim.reset()
        sim.poke("en", 1)
        sim.step(1)
        assert len(hits) == 1

    def test_threads_for_sibling_instances(self):
        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low)
        groups = []

        def on_hit(h):
            groups.append([f.instance_path for f in h.frames])
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, line = line_of(d, "o")
        sim.reset()  # reset before inserting: reset-cycle hits would count
        rt.add_breakpoint("helpers.py", line)
        sim.poke("x", 4)  # a.i=4 (>2 hits), b.i=1 (no)
        sim.step(1)
        assert groups == [["TwoLeaves.a"]]
        sim.poke("x", 6)  # a.i=6 hits, b.i=3 hits: two threads in one group
        sim.step(1)
        assert groups[-1] == ["TwoLeaves.a", "TwoLeaves.b"]

    def test_detach_stops_future_hits(self):
        d, sim = _setup()
        hits = []

        def on_hit(h):
            hits.append(h.time)
            return DETACH

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line)
        sim.reset()
        sim.poke("en", 1)
        sim.step(5)
        assert len(hits) == 1
        assert not rt.attached


class TestStepping:
    def test_step_visits_next_statement(self):
        d, sim = _setup()
        seq = []
        cmds = iter([STEP, STEP, CONTINUE])

        def on_hit(h):
            seq.append((h.time, h.line))
            return next(cmds, CONTINUE)

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, acc_line = line_of(d, "acc")
        _f, total_line = line_of(d, "total")
        rt.add_breakpoint("helpers.py", acc_line)
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        assert seq[0] == (1, acc_line)
        assert seq[1] == (1, total_line)   # step: next group, same cycle
        assert seq[2][0] == 2              # step past end: next cycle

    def test_pause_request(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.line), CONTINUE)[1])
        rt.attach()
        sim.reset()
        sim.step(2)
        assert hits == []  # no breakpoints inserted
        rt.request_pause()
        sim.poke("en", 1)
        sim.step(1)
        assert len(hits) == 1  # paused at the first active statement


class TestReverse:
    def test_intra_cycle_reverse_step(self):
        d, sim = _setup()
        seq = []
        cmds = iter([STEP, REVERSE_STEP, CONTINUE])

        def on_hit(h):
            seq.append(h.line)
            return next(cmds, CONTINUE)

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, acc_line = line_of(d, "acc")
        _f, total_line = line_of(d, "total")
        rt.add_breakpoint("helpers.py", acc_line)
        sim.reset()
        sim.poke("en", 1)
        sim.step(2)
        # acc -> (step) total -> (reverse-step) acc again
        assert seq[:3] == [acc_line, total_line, acc_line]

    def test_cross_cycle_reverse_step(self):
        d, sim = _setup(snapshots=64)
        seq = []
        cmds = iter([REVERSE_STEP, CONTINUE])

        def on_hit(h):
            seq.append((h.time, h.line))
            return next(cmds, CONTINUE)

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, total_line = line_of(d, "total")
        # `total` is the first statement of the module's schedule? No —
        # use acc (earliest conditional stmt): reverse from it crosses cycles.
        _f, acc_line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", acc_line)
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        # first hit at cycle 1; reverse-step from the first group goes to
        # the previous cycle's last statement.
        assert seq[0][0] >= 1
        assert seq[1][0] == seq[0][0] - 1

    def test_reverse_continue_finds_previous_hit(self):
        d, sim = _setup(snapshots=64)
        seq = []
        cmds = iter([CONTINUE, CONTINUE, REVERSE_CONTINUE, CONTINUE, DETACH])

        def on_hit(h):
            seq.append((h.time, h.frames[0].var("acc")))
            return next(cmds, DETACH)

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        _f, acc_line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", acc_line)
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 5)
        sim.step(4)
        times = [t for t, _ in seq]
        # hits at 1, 2, 3 then reverse-continue lands back at 2
        assert times[0] == 1 and times[1] == 2 and times[2] == 3
        assert times[3] == 2
        assert seq[3][1] == seq[1][1]  # same state as the first visit

    def test_reverse_without_snapshots_warns(self):
        d, sim = _setup(snapshots=0)
        cmds = iter([REVERSE_STEP])
        rt = make_runtime(d, sim, lambda h: next(cmds, CONTINUE))
        rt.attach()
        _f, acc_line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", acc_line)
        sim.reset()
        sim.poke("en", 1)
        sim.step(2)
        assert any("reverse" in w for w in rt.warnings)


class TestOverheadAccounting:
    def test_no_breakpoints_fast_path(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        rt.attach()
        sim.reset()
        sim.step(50)
        assert rt.stats_callbacks == 51
        assert rt.stats_bp_evals == 0  # nothing evaluated without breakpoints

    def test_evaluate_global(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        sim.reset()
        sim.poke("d", 7)
        assert rt.evaluate("d + 1") == 8


def _count_clock_calls(rt) -> list:
    """Route the runtime's clock callback through a counting wrapper
    (installed before attach, so the wrapper is what gets registered)."""
    calls = []
    inner = rt._on_clock

    def counting(sim):
        calls.append(sim.get_time())
        inner(sim)

    rt._on_clock = counting
    return calls


class TestIdleHook:
    """An attached runtime registers its clock callback only while armed."""

    def test_idle_runtime_registers_nothing(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        calls = _count_clock_calls(rt)
        rt.attach()
        sim.reset()
        sim.poke("en", 1)
        sim.step(1000)
        assert rt.attached
        assert sim._cb_list == ()
        assert calls == []
        assert rt.stats_callbacks == 1001

    def test_idle_attached_runtime_forms_no_reference_cycle(self):
        """Dropping an idle attached runtime and its simulator frees both
        at once: nothing is left for the cyclic collector."""
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        rt.attach()
        sim.reset()
        sim.run(100)
        gone = weakref.ref(sim)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del sim, rt
            assert gone() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_armed_attached_runtime_forms_no_reference_cycle(self):
        """The same while armed: the simulator's clock callback reaches the
        runtime through a weak reference."""
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line, condition="acc > 1000")
        assert len(sim._cb_list) == 1
        sim.reset()
        sim.run(100)
        gone = weakref.ref(sim)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del sim, rt
            assert gone() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_arming_registers_and_last_removal_unregisters(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        calls = _count_clock_calls(rt)
        rt.attach()
        sim.reset()
        _f, line = line_of(d, "acc")
        bps = rt.add_breakpoint("helpers.py", line, condition="acc > 1000")
        assert len(sim._cb_list) == 1 and rt.attached
        sim.step(10)
        assert len(calls) == 10
        wp = rt.add_watchpoint("acc")
        rt.remove_breakpoint(bps[0].rec.id)
        assert len(sim._cb_list) == 1  # the watchpoint keeps it armed
        rt.remove_watchpoint(wp.id)
        assert sim._cb_list == () and rt.attached
        sim.step(10)
        assert len(calls) == 10
        rt.detach()
        assert not rt.attached and sim._cb_list == ()

    def test_stats_callbacks_never_fall_nor_exceed_posedges(self):
        d, sim = _setup()
        rt = make_runtime(d, sim, lambda h: CONTINUE)
        _f, line = line_of(d, "acc")
        seen = []

        def check():
            seen.append(rt.stats_callbacks)
            assert seen == sorted(seen)
            assert seen[-1] <= sim.stats()["ticks"]

        rt.attach()
        sim.reset()
        sim.poke("en", 1)
        sim.step(20)
        check()  # idle
        bps = rt.add_breakpoint("helpers.py", line)
        sim.step(5)
        check()  # armed
        rt.remove_breakpoint(bps[0].rec.id)
        sim.step(20)
        check()  # idle again
        sim.set_time(sim.get_time() - 15)  # rewind while idle
        check()
        sim.step(30)
        check()
        rt.detach()
        sim.step(10)
        check()
        # attached from the first posedge: one per posedge until detach
        assert seen[-1] == sim.stats()["ticks"] - 10

    @pytest.mark.parametrize("backend", ["scalar", "reference"])
    def test_pause_from_another_thread_reaches_an_idle_runtime(self, backend):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low, options=SessionOptions(fast=backend == "scalar"))

        class Paused(Exception):
            pass

        hits = []

        def on_hit(h):
            hits.append(h.time)
            raise Paused  # ends sim.run below

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        sim.reset()
        sim.poke("en", 1)

        asked = []  # the time just before, then just after, the request

        def pause_once_running():
            deadline = time.monotonic() + 10
            while sim.get_time() < 100 and time.monotonic() < deadline:
                time.sleep(0.001)
            asked.append(sim.get_time())
            rt.request_pause()
            asked.append(sim.get_time())

        # The budget only ends a run whose pause never lands: a native
        # kernel free-runs this design hundreds of times faster than
        # Python, so it gets the larger one.  The reference path
        # (fast=False) always runs in Python.
        fast = backend == "scalar" and native.kernel_for(sim.design) is not None
        budget = 10**9 if fast else 10**6
        pauser = threading.Thread(target=pause_once_running, daemon=True)
        pauser.start()
        with pytest.raises(Paused):
            sim.run(budget)
        pauser.join(timeout=10)
        assert not pauser.is_alive()
        assert len(hits) == 1
        # The hit lands within one 1024-cycle run chunk (twice that, for
        # slack) of the request returning, whatever the simulator's speed.
        # The bound counts from the time read after the request: a scalar
        # kernel keeps running, without the GIL, while it registers.
        t_before, t_after = asked
        assert 100 <= hits[0]
        assert t_before <= hits[0] <= t_after + 2 * 1024
