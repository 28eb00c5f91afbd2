"""Simulator engine tests: stepping, reset, callbacks, snapshots."""

import sys
import threading

import pytest

import repro
import repro.hgf as hgf
from repro.sim import SessionOptions, Simulator, SimulatorError
from tests.helpers import Accumulator, Counter


@pytest.fixture()
def counter_sim():
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(snapshots=64))
    sim.reset()
    return sim


class TestBasics:
    def test_reset_initializes(self, counter_sim):
        assert counter_sim.peek("out") == 0

    def test_counting(self, counter_sim):
        counter_sim.poke("en", 1)
        counter_sim.step(5)
        assert counter_sim.peek("out") == 5

    def test_enable_gates(self, counter_sim):
        counter_sim.poke("en", 1)
        counter_sim.step(3)
        counter_sim.poke("en", 0)
        counter_sim.step(3)
        assert counter_sim.peek("out") == 3

    def test_wrap(self):
        d = repro.compile(Counter(width=2))
        sim = Simulator(d.low)
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        assert sim.peek("wrapped") == 1
        sim.step()
        assert sim.peek("out") == 0

    def test_poke_masks(self, counter_sim):
        counter_sim.poke("en", 0xFF)  # 1-bit port
        assert counter_sim.peek("en") == 1

    def test_unknown_signal(self, counter_sim):
        with pytest.raises(SimulatorError):
            counter_sim.peek("bogus")
        with pytest.raises(SimulatorError):
            counter_sim.poke("bogus", 1)

    def test_peek_by_full_path(self, counter_sim):
        assert counter_sim.peek("Counter.out") == counter_sim.peek("out")

    def test_time_advances(self, counter_sim):
        t0 = counter_sim.get_time()
        counter_sim.step(4)
        assert counter_sim.get_time() == t0 + 4


class TestCallbacks:
    def test_callback_sees_stable_preedge_values(self, counter_sim):
        seen = []
        counter_sim.add_clock_callback(
            lambda s: seen.append((s.get_time(), s.get_value("Counter.out")))
        )
        counter_sim.poke("en", 1)
        counter_sim.step(3)
        times = [t for t, _ in seen]
        values = [v for _, v in seen]
        assert values == [0, 1, 2]  # pre-edge values
        assert times == sorted(times)

    def test_callback_removal(self, counter_sim):
        calls = []
        cb = counter_sim.add_clock_callback(lambda s: calls.append(1))
        counter_sim.step(2)
        counter_sim.remove_clock_callback(cb)
        counter_sim.step(2)
        assert len(calls) == 2

    def test_callback_can_poke(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        sim.reset()

        def force(s):
            s.set_value("Accumulator.d", 9)

        sim.add_clock_callback(force)
        sim.poke("en", 1)
        sim.poke("d", 1)
        sim.step(2)
        assert sim.peek("total") == 18  # callback overrode the poke

    def test_concurrent_registration_loses_nothing(self, counter_sim):
        # Debuggers arm from hub and session threads: ids must stay
        # unique and no registration may be lost under contention.
        ids, removed = [], []

        def churn():
            for _ in range(200):
                cb_id = counter_sim.add_clock_callback(lambda s: None)
                ids.append(cb_id)
                if cb_id % 2:
                    counter_sim.remove_clock_callback(cb_id)
                    removed.append(cb_id)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(set(ids)) == len(ids) == 800
        assert len(counter_sim._cb_list) == 800 - len(removed)


class TestSetValueSetTime:
    def test_set_value_reflects_combinationally(self, counter_sim):
        counter_sim.set_value("Counter.en", 1)
        counter_sim.step()
        assert counter_sim.peek("out") == 1

    def test_set_time_restores_state(self, counter_sim):
        # After reset the counter sits at time 1 with out == 0, so the
        # observable invariant is out == time - 1 while enabled.
        counter_sim.poke("en", 1)
        counter_sim.step(10)
        assert counter_sim.peek("out") == 10
        assert counter_sim.get_time() == 11
        counter_sim.set_time(5)
        assert counter_sim.get_time() == 5
        assert counter_sim.peek("out") == 4

    def test_resume_after_rewind(self, counter_sim):
        counter_sim.poke("en", 1)
        counter_sim.step(10)
        counter_sim.set_time(5)
        counter_sim.step(2)
        assert counter_sim.peek("out") == 6
        assert counter_sim.get_time() == 7

    def test_set_time_without_snapshots_rejected(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        sim.reset()
        assert not sim.can_set_time
        with pytest.raises(SimulatorError):
            sim.set_time(0)

    def test_snapshot_ring_bounded(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low, options=SessionOptions(snapshots=4))
        sim.reset()
        sim.poke("en", 1)
        sim.step(20)
        with pytest.raises(SimulatorError):
            sim.set_time(2)  # evicted
        sim.set_time(sim.get_time() - 2)  # recent one works

    def test_memory_state_snapshot(self):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                self.wen = self.input("wen", 1)
                self.o = self.output("o", 8)
                mem = self.mem("m", 8, 4)
                cnt = self.reg("cnt", 8, init=0)
                cnt <<= (cnt + 1)[7:0]
                with self.when(self.wen == 1):
                    mem.write(self.lit(0, 2), cnt, self.lit(1, 1))
                self.o <<= mem[0]

        d = repro.compile(M())
        sim = Simulator(d.low, options=SessionOptions(snapshots=64))
        sim.reset()
        sim.poke("wen", 1)
        sim.step(4)  # time is now 5
        assert sim.get_time() == 5
        value_at_5 = sim.peek("o")
        sim.step(3)
        assert sim.peek("o") != value_at_5
        sim.set_time(5)
        assert sim.peek("o") == value_at_5


class TestHierarchyInterface:
    def test_hierarchy_walk(self):
        from tests.helpers import TwoLeaves

        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low)
        paths = [n.path for n in sim.hierarchy().walk()]
        assert paths == ["TwoLeaves", "TwoLeaves.a", "TwoLeaves.b"]

    def test_hierarchy_signals(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        root = sim.hierarchy()
        names = [s.name for s in root.signals]
        assert "out" in names and "count" in names and "clock" in names

    def test_find(self):
        from tests.helpers import TwoLeaves

        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low)
        node = sim.hierarchy().find("TwoLeaves.b")
        assert node is not None and node.module in ("AluLeaf", "AluLeaf_1")

    def test_clock_name(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        assert sim.clock_name() == "Counter.clock"

    def test_top_path_prefix(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low, top_path="TB.dut")
        assert sim.clock_name() == "TB.dut.clock"
        sim.reset()
        sim.poke("en", 1)
        sim.step(2)
        assert sim.get_value("TB.dut.out") == 2


class TestRunAndStop:
    def test_run_until_stop(self):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                r = self.reg("r", 8, init=0)
                r <<= (r + 1)[7:0]
                self.o = self.output("o", 8)
                self.o <<= r
                self.stop(r == 9, 0)

        d = repro.compile(M())
        sim = Simulator(d.low)
        sim.reset()
        assert sim.run(1000) == 0
        assert sim.finished
        assert sim.exit_code == 0

    def test_run_timeout_returns_none(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        sim.reset()
        assert sim.run(100) is None
        assert not sim.finished

    def test_step_after_finish_is_noop(self):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                self.o = self.output("o", 1)
                self.o <<= 0
                self.stop(self.lit(1, 1) == 1, 7)

        d = repro.compile(M())
        sim = Simulator(d.low)
        sim.reset()
        t = sim.get_time()
        sim.step(5)
        assert sim.get_time() <= t + 5
        assert sim.exit_code == 7
