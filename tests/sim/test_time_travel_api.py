"""One time-travel test suite, two backends.

The timeline refactor's contract is that the live simulator and the VCD
replay engine expose *the same* time-travel API — ``set_time`` through
the shared interface template, a ``timeline`` view, windowed ``history``
queries, set-time callbacks — with identical observable behavior.  Every
test in ``TestTimeTravelSuite`` runs against both backends via the
parametrized fixture; divergence between the two is a regression in the
unification, not in either backend.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import CONTINUE, REVERSE_STEP, Runtime
from repro.sim import SessionOptions, Simulator, TimelineError
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from repro.trace import ReplayEngine, VcdWriter
from tests.helpers import Counter

CYCLES = 12


def _run_stimulus(sim):
    """The canonical run both backends must agree on: reset, count 8
    enabled cycles, 3 disabled ones."""
    sim.reset()
    sim.poke("en", 1)
    sim.step(8)
    sim.poke("en", 0)
    sim.step(3)


@pytest.fixture(params=["live", "replay"])
def backend(request, tmp_path):
    """The same run, seen live (snapshots) or replayed from its trace.

    Both are driven to their final cycle before the test body runs, so
    time travel is purely about going *back*.
    """
    d = repro.compile(Counter())
    if request.param == "live":
        sim = Simulator(d.low, options=SessionOptions(snapshots=64))
        _run_stimulus(sim)
        return sim
    path = str(tmp_path / "run.vcd")
    w = VcdWriter(path)
    live = Simulator(d.low, trace=w)
    _run_stimulus(live)
    w.close()
    rp = ReplayEngine.from_file(path)
    rp.run()
    return rp


def _out_at(t: int) -> int:
    """Counter.out at cycle t for the canonical run (reset at cycle 0,
    counting from cycle 1, frozen from cycle 9)."""
    return min(max(t - 1, 0), 8)


class TestTimeTravelSuite:
    def test_can_set_time_and_timeline_present(self, backend):
        assert backend.can_set_time
        assert backend.timeline is not None
        assert backend.timeline.window() is not None

    def test_set_time_restores_recorded_values(self, backend):
        for t in (3, 9, 5):
            backend.set_time(t)
            assert backend.get_time() == t
            assert backend.get_value("Counter.out") == _out_at(t)

    def test_window_covers_whole_run(self, backend):
        lo, hi = backend.timeline.window()
        assert lo == 0
        assert hi >= CYCLES - 1
        assert backend.timeline.times() == list(range(lo, hi + 1))

    def test_out_of_window_raises_timeline_error(self, backend):
        with pytest.raises(TimelineError):
            backend.set_time(10_000)
        with pytest.raises(ValueError):  # TimelineError is a ValueError
            backend.set_time(10_000)

    def test_prev_time_walks_backwards(self, backend):
        tl = backend.timeline
        assert tl.prev_time(5) == 4
        assert tl.prev_time(tl.window()[0]) is None

    def test_history_matches_set_time_walk(self, backend):
        series = backend.history("Counter.out")
        assert series, "history must cover the retained window"
        for t, v in series:
            assert v == _out_at(t)
        # History restores the pre-walk cursor.
        assert backend.get_time() == backend.timeline.times()[-1] or (
            backend.get_time() >= CYCLES - 1
        )

    def test_history_windowed(self, backend):
        series = backend.history("Counter.out", start=2, end=5)
        assert [t for t, _ in series] == [2, 3, 4, 5]

    def test_set_time_callbacks_fire_once_per_jump(self, backend):
        seen = []
        cb = backend.add_set_time_callback(lambda s, t: seen.append(t))
        backend.set_time(4)
        backend.set_time(7)
        assert seen == [4, 7]
        backend.remove_set_time_callback(cb)
        backend.set_time(2)
        assert seen == [4, 7]

    def test_describe_names_the_window(self, backend):
        text = backend.timeline.describe()
        assert "0.." in text


def test_live_and_replay_history_identical(tmp_path):
    """The same run queried through both backends yields byte-identical
    history series — the unified API's end-to-end check."""
    d = repro.compile(Counter())
    path = str(tmp_path / "run.vcd")
    w = VcdWriter(path)
    live = Simulator(d.low, trace=w, options=SessionOptions(snapshots=64))
    _run_stimulus(live)
    w.close()
    rp = ReplayEngine.from_file(path)
    rp.run()
    for sig in ("Counter.out", "Counter.en", "Counter.wrapped"):
        live_series = live.history(sig)
        replay_series = rp.history(sig)
        # The live run may retain one extra (current, post-step) cycle
        # beyond the trace's last sampled posedge.
        assert live_series[: len(replay_series)] == replay_series


@pytest.mark.parametrize("mode", ["live", "replay"])
def test_reverse_step_through_runtime(mode, tmp_path):
    """The runtime's reverse-step path — _reverse_time over the
    timeline's prev_time — works identically on both backends."""
    d = repro.compile(Counter())
    st = SQLiteSymbolTable(write_symbol_table(d))
    if mode == "live":
        sim = Simulator(d.low, options=SessionOptions(snapshots=64))
    else:
        path = str(tmp_path / "run.vcd")
        w = VcdWriter(path)
        live = Simulator(d.low, trace=w)
        _run_stimulus(live)
        w.close()
        sim = ReplayEngine.from_file(path)

    times = []
    # Run forward to the fourth hit, then reverse-step twice.
    commands = iter([CONTINUE, CONTINUE, CONTINUE, REVERSE_STEP, REVERSE_STEP])

    def on_hit(hit):
        times.append(hit.time)
        return next(commands, CONTINUE)

    rt = Runtime(sim, st, on_hit)
    rt.attach()
    _f_line = [
        e for e in d.debug_info.all_entries() if e.sink == "count"
    ][0]
    rt.add_breakpoint(_f_line.info.filename, _f_line.info.line)
    if mode == "live":
        _run_stimulus(sim)
    else:
        sim.run()
    # Four forward hits, then two reverse steps from the fourth: reverse
    # stepping is intra-cycle first, then crosses into the prior cycle,
    # so times must not increase and must strictly precede the hit the
    # reversal started from.
    assert len(times) >= 6
    assert times[4] <= times[3] and times[5] <= times[4]
    assert times[5] < times[3]
