"""Unit tests for the ``repro.sim.timeline`` subsystem.

Covers the surfaces the integration/property suites don't pin directly:
error shapes (``TimelineError`` is both a ``SimulatorError`` and a
``ValueError`` and always names the retained window), byte-budget
retention, periodic keyframes, the memory-history cap warning, codec
selection, wire serialization, and cross-run divergence localization.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

import repro
import repro.hgf as hgf
from repro.sim import SessionOptions, Simulator, SimulatorError, Timeline, TimelineError
from repro.sim.timeline import (
    MEM_HISTORY_WORD_CAP,
    FullTraceTimeline,
    first_timeline_divergence,
    iter_wire_states,
    make_codec,
    resolve_codec_kind,
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
        with pytest.raises(SimulatorError, match="limit or a byte budget"):
            Timeline(sim.store, sim.mems, sim.design.mems)
        with pytest.raises(SimulatorError, match="must be > 0"):
            Timeline(sim.store, sim.mems, sim.design.mems, limit=-1)
        with pytest.raises(SimulatorError, match="keyframe_every must be >= 0, got -1"):
            Timeline(sim.store, sim.mems, sim.design.mems, limit=4, keyframe_every=-1)
        with pytest.raises(SimulatorError, match="got -1"):
            Simulator(
                sim.design.circuit,
                options=SessionOptions(snapshots=16, keyframe_every=-1),
            )
        with pytest.raises(SimulatorError, match="unknown timeline codec"):
            Simulator(
                sim.design.circuit,
                options=SessionOptions(snapshots=4, snapshot_codec="zip"),
            )


# -- codec selection ---------------------------------------------------------


class TestCodecSelection:
    def test_resolve_default(self):
        assert resolve_codec_kind(None) == "raw"
        assert resolve_codec_kind("rle") == "rle"
        assert _counter(snapshots=4).timeline.codec.name == "raw"
        with pytest.raises(SimulatorError):
            resolve_codec_kind("gzip")

    def test_explicit_argument(self):
        sim = _counter(snapshots=4, snapshot_codec="rle")
        assert sim.timeline.codec.name == "rle"
        assert make_codec("raw").name == "raw"


# -- retention ---------------------------------------------------------------


class TestRetention:
    def test_entry_limit_keeps_exactly_n(self):
        sim = _counter(snapshots=4)
        sim.step(20)
        assert len(sim.timeline) == 4
        assert sim.timeline.window() == (17, 20)

    @pytest.mark.parametrize("codec", ["raw", "rle"])
    def test_byte_budget_bounds_nbytes(self, codec):
        sim = _counter(snapshot_bytes=8_192, snapshot_codec=codec)
        sim.step(300)
        tl = sim.timeline
        assert tl.nbytes <= 8_192
        assert len(tl) >= 2
        # The window is usable: rewind to its oldest cycle.
        lo, hi = tl.window()
        sim.set_time(lo)
        assert sim.get_time() == lo

    def test_rle_window_longer_than_raw_at_equal_budget(self):
        budget = 32_768
        windows = {}
        for codec in ("raw", "rle"):
            sim = _counter(snapshot_bytes=budget, snapshot_codec=codec)
            sim.step(2000)
            lo, hi = sim.timeline.window()
            windows[codec] = hi - lo + 1
        assert windows["rle"] > windows["raw"]

    def test_nbytes_accounting_tracks_evictions(self):
        # Under a byte budget the per-entry estimates are maintained
        # eagerly and must stay consistent through folds and evictions.
        sim = _counter(snapshot_bytes=16_384, snapshot_codec="rle")
        sim.step(300)
        tl = sim.timeline
        assert tl.nbytes == sum(e.nbytes for e in tl.entries)
        assert tl.nbytes == sum(tl._entry_nbytes(e) for e in tl.entries)
        # Entry-limited timelines skip eager accounting but still answer
        # nbytes (lazily) for the console.
        lazy = _counter(snapshots=8)
        lazy.step(20)
        assert lazy.timeline.nbytes > 0
        assert all(e.nbytes == 0 for e in lazy.timeline.entries)


# -- periodic keyframes ------------------------------------------------------


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
    def test_rewind_reads_at_most_k_plus_one_entries(self, window):
        """keyframe_every=K bounds a rewind's work, not only its replayed
        deltas: whatever the window, reaching any retained cycle reads
        its entry and at most K entries back to its keyframe."""
        k = 8
        sim = _counter(snapshots=window, snapshot_codec="rle", keyframe_every=k)
        sim.step(window + 5)  # a full window, with evictions behind it
        tl = sim.timeline
        assert len(tl) == window
        times = tl.times()
        tl.entries = counted = _CountingDeque(tl.entries)
        applied = []
        apply = tl.codec.apply
        tl.codec.apply = lambda vals, delta: (applied.append(1), apply(vals, delta))
        sim.set_time(times[-1])
        newest = sim.peek("out")
        for t in (times[-2], times[len(times) // 2], times[1], times[0]):
            counted.reads = 0
            applied.clear()
            sim.set_time(t)
            # The target comes from the by-time index; at most K more
            # entries back to its keyframe come from the deque.
            assert counted.reads <= k, t
            assert len(applied) <= k, t
            # en held at 1: the 8-bit count rose once per cycle since.
            assert sim.peek("out") == (newest - (times[-1] - t)) % 256

    def test_keyframe_cadence(self):
        sim = _counter(snapshots=32, snapshot_codec="rle", keyframe_every=8)
        sim.step(30)
        kinds = [e.values is not None for e in sim.timeline.entries]
        assert kinds[0] is True
        assert sum(kinds) >= 3  # head + periodic keyframes
        # Between two keyframes there are exactly keyframe_every deltas.
        key_pos = [i for i, k in enumerate(kinds) if k]
        assert all(b - a == 9 for a, b in zip(key_pos, key_pos[1:], strict=False))

    def test_rewind_onto_periodic_keyframe_and_resume(self):
        sim = _counter(snapshots=64, snapshot_codec="rle", keyframe_every=4)
        gold = {}
        for _ in range(20):
            sim.flush()
            gold[sim.get_time()] = sim.peek("out")
            sim.step(1)
        tl = sim.timeline
        key_times = [e.time for e in tl.entries if e.values is not None]
        assert len(key_times) >= 3
        # Land exactly on a mid-ring keyframe, then resume and re-rewind.
        t = key_times[1]
        sim.set_time(t)
        assert sim.peek("out") == gold[t]
        sim.step(3)
        sim.set_time(t + 2)
        assert sim.peek("out") == gold[t + 2]

    def test_rewind_keeps_the_keyframe_cadence(self):
        """Re-executing after a rewind onto a delta entry continues the
        rewound-to segment: no segment ever exceeds K deltas, so no
        rewind replays more than K."""
        sim = _counter(snapshots=64, snapshot_codec="rle", keyframe_every=4)
        sim.step(7)  # cycles 0..7 retained, keyframes at 0 and 5
        sim.set_time(4)
        sim.step(12)
        tl = sim.timeline
        assert tl.times() == list(range(16))
        assert [e.time for e in tl.entries if e.values is not None] == [0, 5, 10, 15]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_random_rewinds_keep_the_keyframe_cadence(self, k):
        """Seeded random step/rewind schedules: every completed segment
        holds exactly K deltas, and the open one at most K."""
        for trial in range(25):
            rng = random.Random(f"cadence-{k}-{trial}")
            sim = _counter(snapshots=10_000, snapshot_codec="rle", keyframe_every=k)
            for _ in range(30):
                if rng.random() < 0.7:
                    sim.step(rng.randint(1, 6))
                else:
                    sim.set_time(rng.choice(sim.timeline.times()))
            sim.step(1)
            entries = sim.timeline.entries
            keys = [i for i, e in enumerate(entries) if e.values is not None]
            segments = [b - a - 1 for a, b in zip(keys, keys[1:], strict=False)]
            assert all(n == k for n in segments), (trial, segments)
            assert len(entries) - keys[-1] - 1 <= k, trial

    def test_head_is_always_keyframe_after_eviction(self):
        sim = _counter(snapshots=5, snapshot_codec="rle", keyframe_every=3)
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


class TestWire:
    @pytest.mark.parametrize("keyframe_every", [0, 3])
    @pytest.mark.parametrize("codec", ["raw", "rle"])
    def test_wire_reconstructs_state_signals(self, codec, keyframe_every):
        sim = _counter(
            snapshots=8, snapshot_codec=codec, keyframe_every=keyframe_every
        )
        sim.step(20)
        wire = sim.timeline.to_wire()
        for t, state, _wide, _mems in iter_wire_states(wire):
            sim.set_time(t)  # the recorded entry is ground truth
            for idx, val in state.items():
                assert val == sim.values[idx]

    def test_wire_is_json_safe_and_codec_independent(self):
        import json

        wires = []
        for codec in ("raw", "rle"):
            sim = _counter(snapshots=8, snapshot_codec=codec)
            sim.step(12)
            wires.append(json.loads(json.dumps(sim.timeline.to_wire())))
        assert wires[0]["entries"] == wires[1]["entries"]

    def test_identical_runs_do_not_diverge(self):
        a = _counter(snapshots=8, snapshot_codec="rle")
        b = _counter(snapshots=8, snapshot_codec="raw")
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

    def test_snapshot_bytes_zero_means_no_budget(self):
        """Regression: snapshots=N with snapshot_bytes=0 is the plain
        entry-limited ring, not a construction error."""
        d = repro.compile(Counter())
        sim = Simulator(d.low, options=SessionOptions(snapshots=8, snapshot_bytes=0))
        assert sim.timeline is not None
        assert sim.timeline.byte_budget is None
        sim = Simulator(d.low, options=SessionOptions(snapshot_bytes=0))
        assert sim.timeline is None

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
