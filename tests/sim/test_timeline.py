"""Unit tests for the ``repro.sim.timeline`` subsystem.

Covers the surfaces the integration/property suites don't pin directly:
error shapes (``TimelineError`` is both a ``SimulatorError`` and a
``ValueError`` and always names the retained window), entry-limited
retention, rewind cost, the memory-history cap warning, wire
serialization, and cross-run divergence localization.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

import repro
import repro.hgf as hgf
from repro.sim import (
    SessionOptions,
    Simulator,
    SimulatorError,
    Timeline,
    TimelineError,
    ValueStore,
)
from repro.sim.timeline import (
    MEM_HISTORY_WORD_CAP,
    FullTraceTimeline,
    first_timeline_divergence,
    iter_wire_states,
)
from tests.helpers import Counter


def _counter(**kw):
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(**kw))
    sim.reset()
    sim.poke("en", 1)
    return sim


# -- error shapes ------------------------------------------------------------


class TestErrors:
    def test_disabled_set_time_raises_value_error(self):
        sim = _counter()
        with pytest.raises(ValueError):
            sim.set_time(0)
        with pytest.raises(SimulatorError):
            sim.set_time(0)
        with pytest.raises(TimelineError, match="snapshots"):
            sim.set_time(0)

    def test_out_of_window_names_retained_window(self):
        sim = _counter(snapshots=4)
        sim.step(20)
        with pytest.raises(TimelineError, match=r"17\.\.20"):
            sim.set_time(2)
        with pytest.raises(ValueError, match="retained window"):
            sim.set_time(999)

    def test_empty_timeline_message(self):
        d = repro.compile(Counter())
        # no step yet: nothing recorded
        sim = Simulator(d.low, options=SessionOptions(snapshots=4))
        with pytest.raises(TimelineError, match="empty"):
            sim.set_time(0)

    def test_replay_out_of_window_is_timeline_error(self, tmp_path):
        from repro.trace import ReplayEngine, VcdWriter

        d = repro.compile(Counter())
        path = str(tmp_path / "c.vcd")
        w = VcdWriter(path)
        live = Simulator(d.low, trace=w)
        live.reset()
        live.step(5)
        w.close()
        rp = ReplayEngine.from_file(path)
        with pytest.raises(TimelineError, match="retains cycles 0"):
            rp.set_time(999)
        with pytest.raises(ValueError):
            rp.set_time(-1)

    def test_bad_construction(self):
        sim = _counter()
        with pytest.raises(TypeError, match="limit"):
            Timeline(sim.store, sim.mems, sim.design.mems)
        with pytest.raises(SimulatorError, match="must be > 0, got -1"):
            Timeline(sim.store, sim.mems, sim.design.mems, limit=-1)
        with pytest.raises(SimulatorError, match="must be > 0, got -1"):
            Simulator(sim.design.circuit, options=SessionOptions(snapshots=-1))
        for name in ("byte_budget", "codec", "keyframe_every"):
            with pytest.raises(TypeError, match=name):
                Timeline(sim.store, sim.mems, limit=4, **{name: 1})


# -- retention ---------------------------------------------------------------


class TestRetention:
    def test_entry_limit_keeps_exactly_n(self):
        sim = _counter(snapshots=4)
        sim.step(20)
        assert len(sim.timeline) == 4
        assert sim.timeline.window() == (17, 20)

    def test_nbytes_sizes_the_window_when_read(self):
        """``nbytes`` is computed when read, over the retained entries."""
        sim = _counter(snapshots=8)
        sim.step(2)
        short = sim.timeline.nbytes
        sim.step(20)
        tl = sim.timeline
        assert 0 < short < tl.nbytes == sum(tl._entry_nbytes(e) for e in tl.entries)

    def test_stats_report_the_window(self):
        """``stats()`` reads the window's size and cost off the timeline:
        one keyframe, one record per stepped cycle, one fold-forward
        eviction per record past the limit."""
        sim = _counter(snapshots=8)
        sim.step(20)
        tl = sim.timeline
        s = sim.stats()
        assert s["timeline_entries"] == len(tl) == 8
        assert s["timeline_keyframes"] == 1
        assert s["timeline_records"] == sim.get_time() == 21
        assert s["timeline_evictions"] == 21 - 8
        assert s["snapshot_bytes"] == tl.nbytes
        assert s["timeline_compression_ratio"] == tl.compression_ratio()

    def test_metrics_export_the_window(self):
        """With metrics on, the same numbers leave as ``sim_timeline_*``
        and ``sim_snapshot_bytes`` series."""
        sim = _counter(snapshots=8, obs="metrics")
        sim.step(20)
        got = {m["name"]: m["value"] for m in sim.obs.metrics.snapshot()["metrics"]}
        s = sim.stats()
        assert got["sim_timeline_entries"] == 8
        assert got["sim_timeline_records_total"] == s["timeline_records"]
        assert got["sim_timeline_keyframes_total"] == 1
        assert got["sim_timeline_evictions_total"] == s["timeline_evictions"]
        assert got["sim_snapshot_bytes"] == sim.timeline.nbytes
        assert got["sim_timeline_compression_ratio"] == s["timeline_compression_ratio"]


# -- the head keyframe ------------------------------------------------------


class _CountingDeque(deque):
    """An entry deque that counts the entries read out of it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for e in super().__iter__():
            self.reads += 1
            yield e

    def __reversed__(self):
        for e in super().__reversed__():
            self.reads += 1
            yield e


class TestKeyframes:
    @pytest.mark.parametrize("window", [64, 1024, 16384])
    def test_rewind_reads_back_to_the_head_keyframe_only(self, window):
        """With one keyframe at the head of a full window, reaching the
        cycle at position p reads its entry from the by-time index and
        the p entries before it from the deque: a rewind replays at most
        N - 1 deltas, whatever N."""
        sim = _counter(snapshots=window)
        sim.step(window + 5)  # a full window, with evictions behind it
        tl = sim.timeline
        assert len(tl) == window
        times = tl.times()
        tl.entries = counted = _CountingDeque(tl.entries)
        sim.set_time(times[-1])
        newest = sim.peek("out")
        for pos in (window - 2, window // 2, 1, 0):
            t = times[pos]
            counted.reads = 0
            sim.set_time(t)
            assert counted.reads == pos, t
            # en held at 1: the 8-bit count rose once per cycle since.
            assert sim.peek("out") == (newest - (times[-1] - t)) % 256

    def test_rewind_onto_the_head_keyframe_and_resume(self):
        """Re-executing from a rewind onto the head keyframe re-takes it
        (the predecessor baseline is gone) and records deltas after it;
        rewinds into the new run stay exact."""
        sim = _counter(snapshots=8)
        gold = {}
        for _ in range(12):
            sim.flush()
            gold[sim.get_time()] = sim.peek("out")
            sim.step(1)
        head = sim.timeline.times()[0]
        sim.set_time(head)
        assert sim.peek("out") == gold[head]
        sim.step(3)
        tl = sim.timeline
        assert tl.times() == [head, head + 1, head + 2]
        assert [e.values is not None for e in tl.entries] == [True, False, False]
        sim.set_time(head + 2)
        assert sim.peek("out") == gold[head + 2]

    def test_rewind_onto_a_delta_and_resume(self):
        """Re-executing from a rewind onto a delta entry keeps the
        predecessor's state as the baseline: the stale suffix goes, the
        re-taken cycles are deltas, and no keyframe is taken."""
        sim = _counter(snapshots=16)
        gold = {}
        for _ in range(10):
            sim.flush()
            gold[sim.get_time()] = sim.peek("out")
            sim.step(1)
        tl = sim.timeline
        t = tl.times()[4]
        sim.set_time(t)
        assert sim.peek("out") == gold[t]
        sim.step(3)
        assert tl.times() == list(range(t + 3))
        assert tl.stat_keyframes == 1
        assert [e.values is not None for e in tl.entries] == [True] + [False] * (t + 2)
        for back in range(t + 2, 0, -1):
            sim.set_time(back)
            assert sim.peek("out") == gold[back]

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 8])
    def test_random_rewinds_keep_one_keyframe_at_the_head(self, limit):
        """Seeded random poke/step/rewind schedules: the window stays a
        run of at most ``limit`` consecutive cycles whose head is its only
        keyframe, each entry's seq stamp names its deque position, and
        every retained cycle restores the state it was stepped through
        with last."""
        for trial in range(25):
            rng = random.Random(f"window-{limit}-{trial}")
            sim = _counter(snapshots=limit)
            gold = {}
            for _ in range(30):
                if rng.random() < 0.7:
                    sim.poke("en", rng.randint(0, 1))
                    for _ in range(rng.randint(1, 6)):
                        sim.flush()
                        gold[sim.get_time()] = sim.values.as_list()
                        sim.step(1)
                else:
                    sim.set_time(rng.choice(sim.timeline.times()))
                tl = sim.timeline
                times = tl.times()
                assert 0 < len(times) <= limit, trial
                assert times == list(range(times[0], times[0] + len(times))), trial
                assert set(tl.by_time) == set(times), trial
                assert [e.values is not None for e in tl.entries] == (
                    [True] + [False] * (len(times) - 1)
                ), trial
                assert [e.seq - tl._head_seq for e in tl.entries] == list(
                    range(len(times))
                ), trial
            for t in reversed(sim.timeline.times()):
                if t in gold:  # cycle 0 is the reset, not stepped here
                    sim.set_time(t)
                    assert sim.values.as_list() == gold[t], (trial, t)

    def test_head_is_always_keyframe_after_eviction(self):
        sim = _counter(snapshots=5)
        sim.step(40)
        assert sim.timeline.entries[0].values is not None


# -- memory-history gating ---------------------------------------------------


class _BigMem(hgf.Module):
    def __init__(self, depth):
        super().__init__()
        self.o = self.output("o", 8)
        mem = self.mem("m", 8, depth)
        cnt = self.reg("cnt", 8, init=0)
        cnt <<= (cnt + 1)[7:0]
        with self.when(cnt < 4):
            mem.write(cnt[1:0], cnt, self.lit(1, 1))
        self.o <<= mem[0]


class TestMemGating:
    def test_oversized_memories_warn_once_and_degrade(self):
        d = repro.compile(_BigMem(MEM_HISTORY_WORD_CAP + 1))
        with pytest.warns(RuntimeWarning, match="memory history disabled"):
            sim = Simulator(d.low, options=SessionOptions(snapshots=8))
        assert sim.timeline.snap_mems is False
        sim.reset()
        sim.step(6)
        t = sim.timeline.times()[2]
        sim.set_time(t)  # registers still rewind
        assert sim.get_time() == t

    def test_small_memories_keep_history_silently(self, recwarn):
        d = repro.compile(_BigMem(8))
        sim = Simulator(d.low, options=SessionOptions(snapshots=8))
        assert sim.timeline.snap_mems is True
        assert not any(
            isinstance(w.message, RuntimeWarning) for w in recwarn.list
        )


# -- wire serialization + divergence localization ----------------------------
#
# The wire ships a delta as runs of consecutive signal indices.  The
# adversarial change patterns — every signal (one maximal run),
# alternating (no two indices adjacent: the worst case for run
# detection), a single change, none — pin the run count and the decode.

#: (label, changed lanes, runs on the wire)
DELTA_PATTERNS = [
    ("all-same", {i: 7 for i in range(64)}, 1),
    ("alternating", {i: i + 1 for i in range(0, 64, 2)}, 32),
    ("single-change", {17: 0xDEAD}, 1),
    ("two-runs", {**{i: 1 for i in range(4)}, **{i: 2 for i in range(40, 44)}}, 2),
    ("empty", {}, 0),
]


def _delta_wire(n: int, changed: dict[int, int]) -> int:
    """Record a keyframe over ``n`` state lanes, write ``changed``, record
    its delta; check that the wire decodes back to the live lanes at both
    cycles, and return the number of runs the delta shipped as."""
    store = ValueStore(n, (), tuple(range(n)))
    tl = Timeline(store, [], limit=4)
    tl.record(0)
    before = list(store.narrow)
    for i, v in changed.items():
        store[i] = v
    tl.record(1)
    wire = tl.to_wire()
    states = {t: state for t, state, _w, _m in iter_wire_states(wire)}
    assert states == {0: dict(enumerate(before)), 1: dict(enumerate(store.narrow))}
    return len(wire["entries"][1]["d"])


class TestWire:
    @pytest.mark.parametrize(
        ("snapshots", "steps"),
        [(8, 3), (8, 20), (1, 5)],
        ids=["filling", "evicted", "one-entry"],
    )
    def test_wire_reconstructs_state_signals(self, snapshots, steps):
        sim = _counter(snapshots=snapshots)
        sim.step(steps)
        wire = sim.timeline.to_wire()
        seen = []
        for t, state, _wide, _mems in iter_wire_states(wire):
            seen.append(t)
            sim.set_time(t)  # the recorded entry is ground truth
            for idx, val in state.items():
                assert val == sim.values[idx]
        assert seen == sim.timeline.times()

    def test_wire_is_the_same_on_fast_and_reference(self):
        """The reference interpreter records the same history as generated
        code, entry for entry, so their wires are equal."""
        fast, ref = _counter(snapshots=8), _counter(snapshots=8, fast=False)
        for sim in (fast, ref):
            sim.step(5)
            sim.poke("en", 0)
            sim.step(3)
            sim.poke("en", 1)
            sim.step(6)
        assert fast.timeline.to_wire() == ref.timeline.to_wire()

    def test_wire_is_json_safe(self):
        import json

        sim = _counter(snapshots=8)
        sim.step(12)
        wire = sim.timeline.to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert sorted(wire) == ["entries", "state", "v"]

    @pytest.mark.parametrize(("label", "changed", "runs"), DELTA_PATTERNS)
    def test_wire_delta_runs_adversarial_patterns(self, label, changed, runs):
        assert _delta_wire(64, changed) == runs, label

    def test_wire_delta_runs_random_patterns(self):
        rng = random.Random(2024)
        for _trial in range(25):
            changed = {
                i: rng.getrandbits(64)
                for i in rng.sample(range(256), rng.randint(0, 256))
            }
            starts = sum(1 for i in changed if i - 1 not in changed)
            assert _delta_wire(256, changed) == starts

    def test_identical_runs_do_not_diverge(self):
        a = _counter(snapshots=8)
        b = _counter(snapshots=8)
        a.step(15)
        b.step(15)
        assert first_timeline_divergence(
            a.timeline.to_wire(), b.timeline.to_wire()
        ) is None

    def test_divergence_names_first_cycle_and_signal(self):
        a = _counter(snapshots=32)
        b = _counter(snapshots=32)
        a.step(10)
        b.step(10)
        b.poke("en", 0)  # diverges from cycle 11's recorded state on
        a.step(5)
        b.step(5)
        div = first_timeline_divergence(
            a.timeline.to_wire(), b.timeline.to_wire()
        )
        assert div is not None and div["kind"] == "signal"
        assert div["time"] == 11
        assert a.design.signals[div["index"]].path == "Counter.en"
        assert (div["a"], div["b"]) == (1, 0)

    def test_mem_divergence_localized(self):
        d = repro.compile(_BigMem(8))
        a = Simulator(d.low, options=SessionOptions(snapshots=32))
        b = Simulator(d.low, options=SessionOptions(snapshots=32))
        for sim in (a, b):
            sim.reset()
            sim.step(6)
        wire_b = b.timeline.to_wire()
        # Corrupt one memory word in b's keyframe.
        for rec in wire_b["entries"]:
            if "m" in rec:
                rec["m"][0][1] ^= 0xFF
                break
        div = first_timeline_divergence(a.timeline.to_wire(), wire_b)
        assert div is not None and div["kind"] == "mem"
        assert div["index"] == [0, 1]


# -- the view API ------------------------------------------------------------


class TestView:
    def test_live_view(self):
        sim = _counter(snapshots=8)
        sim.step(20)
        tl = sim.timeline
        lo, hi = tl.window()
        assert tl.times() == list(range(lo, hi + 1))
        assert lo in tl and hi in tl and (lo - 1) not in tl
        assert tl.prev_time(hi) == hi - 1
        assert tl.prev_time(lo) is None
        assert "cycles" in tl.describe()
        assert tl.nbytes > 0

    def test_full_trace_view(self):
        tl = FullTraceTimeline(10)
        assert tl.window() == (0, 9)
        assert len(tl) == 10
        assert 9 in tl and 10 not in tl
        assert tl.prev_time(5) == 4
        assert tl.prev_time(0) is None
        assert tl.prev_time(99) == 9
        assert tl.nbytes == 0
        assert FullTraceTimeline(0).window() is None


# -- history queries ---------------------------------------------------------


class TestHistory:
    def test_history_matches_recorded_values(self):
        sim = _counter(snapshots=64)
        gold = []
        for _ in range(10):
            sim.flush()
            gold.append((sim.get_time(), sim.peek("out")))
            sim.step(1)
        gold.append((sim.get_time(), sim.peek("out")))
        series = sim.history("Counter.out")
        assert series[-len(gold):] == gold  # (reset's cycle 0 precedes)
        assert sim.get_time() == gold[-1][0]  # time restored

    def test_history_window_args(self):
        sim = _counter(snapshots=64)
        sim.step(10)
        series = sim.history("Counter.out", start=3, end=6)
        assert [t for t, _ in series] == [3, 4, 5, 6]

    def test_history_restores_finished_flag(self):
        class Stopper(hgf.Module):
            def __init__(self):
                super().__init__()
                r = self.reg("r", 8, init=0)
                r <<= (r + 1)[7:0]
                self.o = self.output("o", 8)
                self.o <<= r
                self.stop(r == 5, 3)

        d = repro.compile(Stopper())
        sim = Simulator(d.low, options=SessionOptions(snapshots=64))
        sim.reset()
        sim.run(100)
        assert sim.finished and sim.exit_code == 3
        series = sim.history("Stopper.r")
        assert series  # the full run is retained
        assert sim.finished and sim.exit_code == 3  # flag survived the walk

    def test_history_without_timeline_rejected(self):
        sim = _counter()
        with pytest.raises(SimulatorError, match="keeps no history"):
            sim.history("Counter.out")

    def test_history_on_full_ring_does_not_evict_oldest(self):
        """Regression: recording the current cycle for a history walk
        must not push the oldest retained cycle out of a full ring."""
        sim = _counter(snapshots=8)
        sim.step(8)
        window_before = sim.timeline.window()
        sim.history("Counter.out")
        assert sim.timeline.window()[0] == window_before[0]
        sim.set_time(window_before[0])  # oldest cycle still reachable
        assert sim.get_time() == window_before[0]

    def test_history_after_rewind_preserves_forward_window(self):
        """Regression: a read-only history query right after a rewind
        must neither truncate the retained window nor drop the forward
        cycles from its own result."""
        sim = _counter(snapshots=16)
        sim.step(6)
        full = sim.history("Counter.out")
        sim.set_time(3)
        series = sim.history("Counter.out")
        assert series == full          # cycles 4..6 still reported
        assert sim.get_time() == 3     # cursor restored to the rewind
        sim.set_time(6)                # forward window survived the query
        assert sim.get_time() == 6
