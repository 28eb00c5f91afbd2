"""Scripted gdb-like console debugger tests."""


import repro
from repro.client import ConsoleDebugger
from repro.sim import SessionOptions, Simulator
from tests.helpers import Accumulator, TwoLeaves, line_of, make_runtime


def _session(script, mod_cls=Accumulator, pokes=None, cycles=4, bp_sink="acc"):
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    rt = make_runtime(d, sim)
    dbg = ConsoleDebugger(rt, script=script)
    rt.attach()
    _f, line = line_of(d, bp_sink)
    for k, v in (pokes or {"en": 1, "d": 5}).items():
        sim.poke(k, v)
    sim.reset()
    dbg.execute(f"b helpers.py:{line}")
    sim.step(cycles)
    return dbg, sim


class TestCommands:
    def test_breakpoint_insertion_reported(self):
        dbg, _ = _session(["q"])
        assert any("breakpoint set" in l for l in dbg.transcript)
        assert any("(en == 1)" in l for l in dbg.transcript)

    def test_stop_banner(self):
        dbg, _ = _session(["q"])
        assert any(l.startswith("stopped at helpers.py:") for l in dbg.transcript)

    def test_locals(self):
        dbg, _ = _session(["locals", "q"])
        joined = "\n".join(dbg.transcript)
        assert "acc = 0" in joined
        assert "d = 5" in joined

    def test_print_expression(self):
        dbg, _ = _session(["p acc + d", "q"])
        assert any("acc + d = 5" in l for l in dbg.transcript)

    def test_gen_vars(self):
        dbg, _ = _session(["gen", "q"])
        joined = "\n".join(dbg.transcript)
        assert "width = 16" in joined

    def test_info_breakpoints(self):
        dbg, _ = _session(["info breakpoints", "q"])
        assert any("#" in l and "helpers.py" in l for l in dbg.transcript)

    def test_info_time_and_where(self):
        dbg, _ = _session(["info time", "where", "q"])
        joined = "\n".join(dbg.transcript)
        assert "cycle 1" in joined
        assert "@ cycle 1" in joined

    def test_step_and_reverse(self):
        dbg, _ = _session(["s", "rs", "c", "q"])
        stops = [l for l in dbg.transcript if l.startswith("stopped")]
        assert len(stops) >= 3
        # stop 1 and stop 3 are the same location (step then reverse-step)
        assert stops[0].split("@")[0] == stops[2].split("@")[0]

    def test_continue_until_next_hit(self):
        dbg, _ = _session(["c", "q"])
        stops = [l for l in dbg.transcript if l.startswith("stopped")]
        assert "cycle 1" in stops[0] and "cycle 2" in stops[1]

    def test_conditional_breakpoint_syntax(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt, script=["q"])
        rt.attach()
        _f, line = line_of(d, "acc")
        dbg.execute(f"b helpers.py:{line} if acc >= 10")
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 5)
        sim.step(4)
        stops = [l for l in dbg.transcript if l.startswith("stopped")]
        assert "cycle 3" in stops[0]  # acc reaches 10 at cycle 3

    def test_threads_listing(self):
        dbg, _ = _session(
            ["info threads", "frame 1", "locals", "q"],
            mod_cls=TwoLeaves,
            pokes={"x": 6},
            cycles=1,
            bp_sink="o",
        )
        joined = "\n".join(dbg.transcript)
        assert "thread 0: TwoLeaves.a" in joined
        assert "thread 1: TwoLeaves.b" in joined

    def test_delete_all(self):
        dbg, sim = _session(["delete", "c"], cycles=6)
        stops = [l for l in dbg.transcript if l.startswith("stopped")]
        assert len(stops) == 1  # deleted at first stop; continue runs free

    def test_error_reported_not_fatal(self):
        dbg, _ = _session(["p nonexistent_signal", "q"])
        assert any(l.startswith("error:") for l in dbg.transcript)

    def test_unknown_command_hint(self):
        dbg, _ = _session(["wat", "q"])
        assert any("unknown command" in l for l in dbg.transcript)

    def test_set_value(self):
        dbg, sim = _session(["set Accumulator.d 9", "c", "q"], cycles=3)
        assert any("Accumulator.d = 9" in l for l in dbg.transcript)


class TestShardCommand:
    def test_shard_sweep_from_console(self):
        """`shard N CYCLES` fans the live design out with the session's
        breakpoints and prints the aggregated report."""
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        _f, line = line_of(d, "acc")
        dbg.execute(f"b helpers.py:{line}")
        dbg.execute("shard 3 20 100")
        joined = "\n".join(dbg.transcript)
        assert "3 shard(s)" in joined
        assert "hit histogram" in joined

    def test_shard_supervision_tokens(self):
        """`retries=`/`deadline=` trailing tokens tune the supervision
        layer without disturbing the positional args."""
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        _f, line = line_of(d, "acc")
        dbg.execute(f"b helpers.py:{line}")
        dbg.execute("shard 2 15 7 retries=2 deadline=30")
        joined = "\n".join(dbg.transcript)
        assert "2 shard(s)" in joined

    def test_shard_bad_supervision_value(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        dbg.execute("shard 2 10 retries=lots")
        assert any("bad retries value" in l for l in dbg.transcript)

    def test_shard_requires_breakpoints(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        dbg.execute("shard 2 10")
        assert any("no breakpoints to sweep" in l for l in dbg.transcript)

    def test_shard_usage_message(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        dbg.execute("shard 2")
        assert any("usage: shard" in l for l in dbg.transcript)

    def test_shard_rejected_on_replay_backend(self, tmp_path):
        from repro.symtable import SQLiteSymbolTable, write_symbol_table
        from repro.trace import ReplayEngine, VcdWriter

        d = repro.compile(Accumulator())
        vcd = str(tmp_path / "run.vcd")
        w = VcdWriter(vcd)
        sim = Simulator(d.low, trace=w)
        sim.reset()
        sim.step(3)
        w.close()
        replay = ReplayEngine.from_file(vcd)
        from repro.core import Runtime

        rt = Runtime(replay, SQLiteSymbolTable(write_symbol_table(d)))
        dbg = ConsoleDebugger(rt)
        _f, line = line_of(d, "acc")
        dbg.execute(f"b helpers.py:{line}")
        dbg.execute("shard 2 10")
        assert any("live Simulator" in l for l in dbg.transcript)


class TestTimelineCommand:
    def _debugger(self, snapshots=16):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low, options=SessionOptions(snapshots=snapshots))
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        rt.attach()
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 2)
        sim.step(6)
        return dbg, sim

    def test_info_shows_window_and_cycle(self):
        dbg, sim = self._debugger()
        dbg.execute("timeline")
        joined = "\n".join(dbg.transcript)
        assert "timeline: cycles 0..6" in joined
        assert f"current cycle: {sim.get_time()}" in joined

    def test_goto_jumps_and_errors_stay_in_repl(self):
        dbg, sim = self._debugger()
        dbg.execute("timeline goto 3")
        assert sim.get_time() == 3
        assert any("now at cycle 3" in l for l in dbg.transcript)
        dbg.execute("timeline goto 9999")  # out of window: error, not crash
        assert any("retained window" in l for l in dbg.transcript)

    def test_history_resolves_local_names(self):
        dbg, sim = self._debugger()
        dbg.execute("timeline history acc 4")
        cycle_lines = [l for l in dbg.transcript if l.startswith("  cycle")]
        assert len(cycle_lines) == 4
        assert sim.get_time() == 7  # cursor restored after the walk

    def test_disabled_timeline_reports_hint(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        dbg.execute("timeline")
        assert any("no timeline" in l for l in dbg.transcript)

    def test_timeline_on_replay_backend(self, tmp_path):
        from repro.core import Runtime
        from repro.symtable import SQLiteSymbolTable, write_symbol_table
        from repro.trace import ReplayEngine, VcdWriter

        d = repro.compile(Accumulator())
        vcd = str(tmp_path / "run.vcd")
        w = VcdWriter(vcd)
        sim = Simulator(d.low, trace=w)
        sim.reset()
        sim.step(5)
        w.close()
        replay = ReplayEngine.from_file(vcd)
        rt = Runtime(replay, SQLiteSymbolTable(write_symbol_table(d)))
        dbg = ConsoleDebugger(rt)
        dbg.execute("timeline")
        assert any("full VCD replay" in l for l in dbg.transcript)
        dbg.execute("timeline history total 3")
        assert any(l.startswith("  cycle") for l in dbg.transcript)


class TestStatsCommand:
    def _dbg(self, obs="off"):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low, options=SessionOptions(obs=obs, snapshots=16))
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt, script=[])
        sim.poke("en", 1)
        sim.reset()
        sim.step(10)
        return dbg

    def test_counters_always_available(self):
        dbg = self._dbg()
        dbg.execute("stats")
        assert any(l.strip().startswith("ticks") for l in dbg.transcript)
        assert any("settle_seeds" in l for l in dbg.transcript)
        # obs is off: no metric catalog beyond the plain counters
        assert not any("sim_ticks_total" in l for l in dbg.transcript)

    def test_metric_catalog_when_obs_armed(self):
        dbg = self._dbg(obs="metrics")
        dbg.execute("stats")
        assert any("sim_ticks_total" in l for l in dbg.transcript)

    def test_replay_backend_reports_no_counters(self, tmp_path):
        from repro.core import Runtime
        from repro.symtable import SQLiteSymbolTable, write_symbol_table
        from repro.trace import ReplayEngine, VcdWriter

        d = repro.compile(Accumulator())
        vcd = str(tmp_path / "run.vcd")
        w = VcdWriter(vcd)
        sim = Simulator(d.low, trace=w)
        sim.reset()
        sim.step(5)
        w.close()
        rt = Runtime(
            ReplayEngine.from_file(vcd),
            SQLiteSymbolTable(write_symbol_table(d)),
        )
        dbg = ConsoleDebugger(rt)
        dbg.execute("stats")
        assert any("no counters" in l for l in dbg.transcript)
