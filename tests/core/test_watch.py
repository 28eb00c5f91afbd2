"""Watchpoint (data breakpoint) tests."""

import pytest

import repro
from repro.core import CONTINUE, DETACH, DebuggerError
from repro.sim import SessionOptions, Simulator
from tests.helpers import Accumulator, Counter, line_of, make_runtime


def _setup(mod_cls=Counter):
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=16))
    return d, sim


class TestWatchpoints:
    def test_change_detected(self):
        d, sim = _setup()
        hits = []

        def on_hit(h):
            assert h.watch is not None
            hits.append((h.time, h.watch["old"], h.watch["new"]))
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        sim.reset()
        rt.add_watchpoint("count")
        sim.poke("en", 1)
        sim.step(4)
        # priming observation at cycle 1; changes observed at 2, 3, 4
        assert hits == [(2, 0, 1), (3, 1, 2), (4, 2, 3)]

    def test_no_hit_without_change(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.time), CONTINUE)[1])
        rt.attach()
        sim.reset()
        rt.add_watchpoint("count")
        sim.poke("en", 0)
        sim.step(5)
        assert hits == []

    def test_full_path_target(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        wp = rt.add_watchpoint("Counter.count")
        assert wp.path == "Counter.count"

    def test_instance_local_target(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        wp = rt.add_watchpoint("count")
        assert wp.path == "Counter.count"

    def test_unresolvable_rejected(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        with pytest.raises(DebuggerError, match="watch target"):
            rt.add_watchpoint("no_such_signal")

    def test_condition_on_new_value(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.watch["new"]), CONTINUE)[1])
        rt.attach()
        sim.reset()
        rt.add_watchpoint("count", condition="new >= 3")
        sim.poke("en", 1)
        sim.step(6)
        assert hits == [3, 4, 5]

    def test_condition_on_old_value(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.watch["old"]), CONTINUE)[1])
        rt.attach()
        sim.reset()
        rt.add_watchpoint("count", condition="old == 2")
        sim.poke("en", 1)
        sim.step(5)
        assert hits == [2]

    def test_remove(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(1), CONTINUE)[1])
        rt.attach()
        sim.reset()
        wp = rt.add_watchpoint("count")
        sim.poke("en", 1)
        sim.step(3)  # prime at 1, hits at 2 and 3
        assert rt.remove_watchpoint(wp.id)
        sim.step(2)
        assert len(hits) == 2
        assert not rt.remove_watchpoint(wp.id)

    def test_hit_count_tracked(self):
        d, sim = _setup()
        rt = make_runtime(d, sim)
        rt.attach()
        sim.reset()
        wp = rt.add_watchpoint("count")
        sim.poke("en", 1)
        sim.step(5)  # prime + 4 observed changes
        assert wp.hit_count == 4

    def test_detach_from_watch_hit(self):
        d, sim = _setup()
        hits = []

        def on_hit(h):
            hits.append(h.time)
            return DETACH

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        sim.reset()
        rt.add_watchpoint("count")
        sim.poke("en", 1)
        sim.step(4)
        assert len(hits) == 1
        assert not rt.attached

    def test_watch_and_breakpoints_combine(self):
        d, sim = _setup(Accumulator)
        kinds = []

        def on_hit(h):
            kinds.append("watch" if h.watch else "bp")
            return CONTINUE

        rt = make_runtime(d, sim, on_hit)
        rt.attach()
        sim.reset()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line)
        rt.add_watchpoint("acc")
        sim.poke("en", 1)
        sim.poke("d", 5)
        sim.step(2)
        # each cycle: watch fires (when acc changed) and the bp fires
        assert "watch" in kinds and "bp" in kinds


class TestConditionErrors:
    def test_unknown_name_surfaces_once_and_keeps_hitting(self):
        """A bad condition no longer silently drops hits forever: the
        watchpoint is marked errored, the error rides the first change
        event exactly once, and later changes report unconditionally."""
        d, sim = _setup()
        watches = []
        rt = make_runtime(
            d, sim, lambda h: (watches.append(dict(h.watch)), CONTINUE)[1]
        )
        rt.attach()
        sim.reset()
        wp = rt.add_watchpoint("count", condition="no_such_name > 0")
        assert wp.error is not None
        assert any("no_such_name" in w for w in rt.warnings)
        sim.poke("en", 1)
        sim.step(4)  # prime at 1; changes at 2, 3, 4
        assert len(watches) == 3  # hits are NOT dropped
        assert "error" in watches[0]  # surfaced on the first event...
        assert all("error" not in w for w in watches[1:])  # ...exactly once
        assert wp.hit_count == 3

    def test_runtime_value_error_marks_watchpoint(self):
        """A condition that only fails at evaluation time (negative shift
        count) errors on first evaluation instead of crashing or silently
        suppressing, then reports unconditionally."""
        d, sim = _setup()
        watches = []
        rt = make_runtime(
            d, sim, lambda h: (watches.append(dict(h.watch)), CONTINUE)[1]
        )
        rt.attach()
        sim.reset()
        wp = rt.add_watchpoint("count", condition="1 << (old - new) > 0")
        assert wp.error is None  # compiles fine; fails only at runtime
        sim.poke("en", 1)
        sim.step(4)
        assert wp.error is not None
        assert len(watches) == 3
        assert sum("error" in w for w in watches) == 1

    def test_parse_error_still_raises_at_add(self):
        from repro.core import ExprError

        d, sim = _setup()
        rt = make_runtime(d, sim)
        with pytest.raises(ExprError):
            rt.add_watchpoint("count", condition="1 +")


class TestCompiledConditions:
    def test_condition_compiled_and_path_indexed(self):
        """Conditions compile to a closure and the path resolves to a
        value-table index at add() time on a live simulator."""
        d, sim = _setup()
        rt = make_runtime(d, sim)
        wp = rt.add_watchpoint("count", condition="new % 2 == 0 && old < new")
        assert wp.condition_fn is not None
        assert wp.index == sim.design.signal_index["Counter.count"]

    def test_compiled_matches_interpreter_semantics(self):
        """The compiled condition agrees with tree-walking `evaluate` over
        the same old/new environments, including div-by-zero semantics."""
        import random

        from repro.core import expr_eval
        from repro.core.watch import _compile_condition

        rng = random.Random(3)
        exprs = [
            "new > old", "old == 2", "value >= 3", "new % 3 == 0 && old",
            "(new - old) * 2 < 7 || old == 0", "new / old > 1",
            "old ? new : 5", "~new & 3",
        ]
        for src in exprs:
            ast = expr_eval.parse(src)
            fn = _compile_condition(ast)
            for _ in range(50):
                env = {"old": rng.randrange(8), "new": rng.randrange(8)}
                env["value"] = env["new"]
                want = expr_eval.evaluate(ast, lambda n: env[n])
                assert fn(env["old"], env["new"]) == want, src

    def test_replay_backend_falls_back_to_get_value(self):
        """WatchStore built over a backend without a value table keeps
        working through per-cycle get_value lookups."""
        from repro.core.watch import WatchStore

        class FakeBackend:
            def __init__(self):
                self.t = 0

            def get_value(self, path):
                assert path == "Top.sig"
                return self.t

        be = FakeBackend()
        store = WatchStore(be)
        wp = store.add("Top.sig", "sig")
        assert wp.index is None
        assert store.changed(be) == []  # primes
        be.t = 5
        assert store.changed(be) == [(wp, 0, 5)]


class TestRewindRepriming:
    def test_set_time_reprimes_last(self):
        d, sim = _setup()
        hits = []
        rt = make_runtime(
            d, sim,
            lambda h: (hits.append((h.time, h.watch["old"], h.watch["new"])),
                       CONTINUE)[1],
        )
        rt.attach()
        sim.reset()
        wp = rt.add_watchpoint("count")
        sim.poke("en", 1)
        sim.step(5)
        stale = wp.last
        sim.set_time(2)
        # re-primed against the restored state, not the pre-rewind value
        assert wp.last == sim.peek("count")
        assert wp.last != stale
        hits.clear()
        sim.poke("en", 0)  # freeze: re-execution implies no changes
        sim.step(3)
        assert hits == []

    def test_replay_set_time_reprimes_too(self, tmp_path):
        """The rewind hook also fires on the trace-replay backend."""
        import repro
        from repro.core.watch import WatchStore
        from repro.sim import Simulator
        from repro.trace import ReplayEngine, VcdWriter

        d = repro.compile(Counter())
        vcd_path = tmp_path / "t.vcd"
        writer = VcdWriter(str(vcd_path))
        sim = Simulator(d.low, trace=writer)
        sim.reset()
        sim.poke("en", 1)
        sim.step(6)
        writer.close()

        rp = ReplayEngine.from_file(str(vcd_path))
        WatchStore(rp)  # binds without a value store (replay backend)
        primed = []
        rp.add_set_time_callback(lambda s, t: primed.append(t))
        rp.set_time(3)
        assert primed == [3]


class TestIgnoreCounts:
    def test_ignore_skips_hits(self):
        d, sim = _setup(Accumulator)
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.time), CONTINUE)[1])
        rt.attach()
        sim.reset()
        _f, line = line_of(d, "acc")
        (bp,) = rt.add_breakpoint("helpers.py", line)
        bp.ignore_count = 2
        sim.poke("en", 1)
        sim.poke("d", 1)
        sim.step(5)
        assert len(hits) == 3  # first two suppressed
        assert bp.hit_count == 5  # all condition-passing evaluations counted

    def test_console_ignore_command(self):
        from repro.client import ConsoleDebugger

        d, sim = _setup(Accumulator)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt, script=["q"])
        rt.attach()
        sim.reset()
        _f, line = line_of(d, "acc")
        dbg.execute(f"b helpers.py:{line}")
        bp_id = rt.list_breakpoints()[0].rec.id
        dbg.execute(f"ignore {bp_id} 3")
        sim.poke("en", 1)
        sim.poke("d", 1)
        sim.step(5)
        stops = [l for l in dbg.transcript if l.startswith("stopped")]
        assert len(stops) == 1 and "cycle 4" in stops[0]


class TestConsoleWatch:
    def test_watch_command(self):
        from repro.client import ConsoleDebugger

        d, sim = _setup()
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt, script=["info breakpoints", "q"])
        rt.attach()
        sim.reset()
        dbg.execute("watch count")
        sim.poke("en", 1)
        sim.step(2)
        joined = "\n".join(dbg.transcript)
        assert "watchpoint #1" in joined
        assert "0 -> 1" in joined
