"""Many-worlds simulation (``repro.sim.manyworlds``).

The contract under test: N scenario worlds, one scalar ``Simulator`` each
over a shared compiled design, are **bit-identical**, per world, to N
sequential reference (``fast=False``) ``Simulator`` runs of the same
per-world stimulus — and breakpoint/watchpoint conditions
evaluate once per world, reporting the exact set of worlds that fired
(``docs/manyworlds.md``).
"""

from __future__ import annotations

import random

import pytest

import repro
import repro.hgf as hgf
from repro.core.runtime import CONTINUE, HitRecorder
from repro.hub import SessionOptions
from repro.sim import (
    ManyWorldsSimulator,
    Simulator,
    SimulatorError,
    Stimulus,
    make_sweep_stimulus,
    native,
)

from tests.helpers import Accumulator, line_of, make_runtime


# -- designs ----------------------------------------------------------------


class OpZoo(hgf.Module):
    """Every op shape: arith, compares, shifts (static and dynamic, signed
    and unsigned), div/rem, mux, cat/bits/pad, reductions, 64-bit
    native-wrap lanes and >64-bit intermediates, so per-world parity
    against the scalar engine covers the whole expression language."""

    def __init__(self):
        super().__init__()
        a = self.input("a", 32)
        b = self.input("b", 32)
        c = self.input("c", 6)
        o = self.output("o", 64)
        r1 = self.reg("r1", 32, init=123456789)
        r2 = self.reg("r2", 64, init=(1 << 63) | 12345)
        r3 = self.reg("r3", 16, init=7)
        sa = a.as_sint()
        sb = b.as_sint()
        n1 = self.node("n1", (a + b)[31:0])
        n2 = self.node("n2", (a * b)[63:0])
        n3 = self.node("n3", (sa - sb).as_uint()[31:0])
        n4 = self.node("n4", a // (b[3:0] + self.lit(1, 5))[4:0])
        n5 = self.node("n5", a % (b[4:0] + self.lit(3, 6))[5:0])
        n6 = self.node("n6", (a << 7)[38:32])
        n7 = self.node("n7", (sa >> 3).as_uint())
        n8 = self.node("n8", a >> 5)
        n9 = self.node("n9", (a << c)[31:0])
        n10 = self.node("n10", a >> c)
        n11 = self.node("n11", (sa >> c).as_uint())
        n12 = self.node("n12", hgf.mux(a > b, n1, n2[31:0]))
        n13 = self.node("n13", a[15:0].cat(b[15:0]))
        n14 = self.node("n14", a.andr() ^ a.orr() ^ a.xorr())
        n15 = self.node("n15", ~a)
        n16 = self.node("n16", (-sa).as_uint()[31:0])
        n17 = self.node("n17", (r2 + r2)[63:0])
        n18 = self.node("n18", (r2 * self.lit(0x9E3779B97F4A7C15, 64))[63:0])
        n19 = self.node("n19", hgf.mux(sa < sb, a, b))
        n20 = self.node("n20", a.pad(48))
        r1 <<= (n1 ^ n12 ^ n19 ^ n14.pad(32))[31:0]
        r2 <<= (n17 ^ n18 ^ n2)[63:0]
        r3 <<= (n13[15:0] ^ n5.pad(16) ^ n4[15:0] ^ n9[15:0] ^ n10[15:0]
                ^ n11[15:0] ^ n3[15:0] ^ n6.pad(16) ^ n7[15:0] ^ n8[15:0]
                ^ n15[15:0] ^ n16[15:0] ^ n20[15:0])[15:0]
        o <<= (r2 ^ r1.pad(64) ^ r3.pad(64))[63:0]


class MemZoo(hgf.Module):
    """Memory write + read across scenario worlds."""

    def __init__(self):
        super().__init__()
        a = self.input("a", 8)
        d = self.input("d", 16)
        o = self.output("o", 16)
        mem = self.mem("scratch", width=16, depth=32)
        acc = self.reg("acc", 16, init=0)
        mem.write(a[4:0], (d + acc)[15:0], a[0:0])
        rd = self.node("rd", mem[(a >> 3)[4:0]])
        acc <<= (acc + rd)[15:0]
        o <<= acc


class Stopper(hgf.Module):
    """Fires ``Stop`` when the accumulator's low byte hits a marker — at a
    stimulus-dependent (so world-dependent) cycle."""

    def __init__(self):
        super().__init__()
        x = self.input("x", 8)
        self.o = self.output("o", 16)
        acc = self.reg("acc", 16, init=0)
        acc <<= (acc + x.pad(16))[15:0]
        self.stop(acc[7:0] == self.lit(0xA5, 8), 3)
        self.o <<= acc


class WideWorlds(hgf.Module):
    """Product of 64-bit operands: the 128-bit result and the 96-bit
    register live in each world's wide overflow dict, not its lanes."""

    def __init__(self):
        super().__init__()
        x = self.input("x", 64)
        self.o = self.output("o", 64)
        # A full-width init: with init=1 the first-cycle product collapses
        # to x and the update xor self-cancels, converging every world.
        r = self.reg("r", 96, init=0x123456789ABCDEF01234567)
        p = self.node("p", r[63:0] * (r[95:32] ^ x))
        r <<= (p[95:0] ^ x.pad(96))[95:0]
        # The visible output depends only on the (shared) input, so when
        # every world sees the same x the narrow lanes stay identical and
        # divergence lives purely in the wide dict.
        self.o <<= x ^ self.lit(0xDEADBEEF, 64)


class WideMem(hgf.Module):
    """A 96-bit memory, written from the input every cycle."""

    def __init__(self):
        super().__init__()
        a = self.input("a", 3)
        d = self.input("d", 32)
        self.o = self.output("o", 96)
        mem = self.mem("wide", width=96, depth=8)
        mem.write(a, d.cat(d).cat(d), self.lit(1, 1))
        self.o <<= mem[(a + self.lit(1, 3))[2:0]]


# -- reference runs ---------------------------------------------------------


def _reference_digest(design, seed, cycles):
    """One world's sequential reference: the shard-farm seed contract
    (sorted-input draws from ``random.Random(seed)``), on the scalar
    engine's reference path."""
    sim = Simulator(design.low, options=SessionOptions(fast=False))
    rng = random.Random(seed)
    compiled = sim.design
    inputs = sorted(
        n for n in compiled.top_inputs if n not in ("clock", "reset")
    )
    widths = {
        n: compiled.signals[compiled.top_inputs[n]].width for n in inputs
    }

    def stim(s, _c):
        for n in inputs:
            s.poke(n, rng.getrandbits(widths[n]))

    sim.reset(1)
    sim.run_cycles(cycles, stimulus=stim)
    return sim.state_digest()


#: SessionOptions the worlds are built with: each world's Simulator
#: honours them, so parity must hold under every one.
WORLD_OPTIONS = {
    "default": None,
    "reference": SessionOptions(fast=False),
    "timeline": SessionOptions(snapshots=8, snapshot_codec="rle", keyframe_every=4),
}


def _manyworlds_digests(design, seeds, cycles, options=None):
    mw = ManyWorldsSimulator(design.low, len(seeds), options=options)
    mw.reset(1)
    mw.run_cycles(cycles, stimulus=make_sweep_stimulus(mw, seeds))
    return [mw.state_digest(k) for k in range(len(seeds))], mw


# -- parity -----------------------------------------------------------------


def _check_world_options(mw, name):
    for sim in mw.sims:
        assert sim._fast is (name != "reference")
        if name == "timeline":
            assert len(sim.timeline) == 8
        else:
            assert sim.timeline is None


@pytest.mark.parametrize("options", list(WORLD_OPTIONS))
@pytest.mark.parametrize("design_cls", [OpZoo, MemZoo])
def test_parity_vs_sequential_reference(design_cls, options):
    design = repro.compile(design_cls())
    seeds = [100 + k for k in range(4)]
    got, mw = _manyworlds_digests(design, seeds, 120, WORLD_OPTIONS[options])
    _check_world_options(mw, options)
    for k, seed in enumerate(seeds):
        assert got[k] == _reference_digest(design, seed, 120), (
            f"world {k} diverged from the reference"
        )


def test_distinct_seeds_distinct_worlds():
    design = repro.compile(OpZoo())
    digests, _mw = _manyworlds_digests(design, [5, 6, 7], 50)
    assert len(set(digests)) == 3


# -- per-world stop semantics ----------------------------------------------


def test_stop_finishes_only_fired_worlds():
    design = repro.compile(Stopper())
    # World k adds k+1 per cycle: the 0xA5 marker lands on different
    # cycles (and never, for steps that miss it within the budget).
    rates = [1, 5, 2, 11]
    mw = ManyWorldsSimulator(design.low, len(rates))
    mw.reset(1)
    mw.poke_worlds("x", rates)
    mw.step(400)

    expected = []
    for rate in rates:
        sim = Simulator(design.low)
        sim.reset(1)
        sim.poke("x", rate)
        ran = sim.run_cycles(400)
        expected.append(
            (sim.exit_code, ran if sim.finished else None, sim.state_digest())
        )

    for k, (code, tick, digest) in enumerate(expected):
        assert mw.exit_codes[k] == code
        assert mw.state_digest(k) == digest, f"world {k} diverged"
    finished = {k for k, (code, _t, _d) in enumerate(expected) if code is not None}
    assert finished, "scenario must finish at least one world"
    assert finished != set(range(len(rates))), (
        "scenario must leave at least one world running"
    )
    assert set(mw.active_worlds) == set(range(len(rates))) - finished

    # Finished worlds froze: more cycles must not move their archived state.
    before = [mw.state_digest(k) for k in finished]
    mw.step(25)
    assert [mw.state_digest(k) for k in finished] == before


def test_run_until_all_worlds_finish():
    design = repro.compile(Stopper())
    mw = ManyWorldsSimulator(design.low, 2)
    mw.reset(1)
    mw.poke_worlds("x", [0xA5, 55])  # world 0 hits on the first edge
    codes = mw.run(max_cycles=2000)
    assert codes == [3, 3]
    assert mw.finished
    assert mw.finish_ticks[0] is not None
    assert mw.finish_ticks[0] < mw.finish_ticks[1]


# -- poke/peek and error surfaces ------------------------------------------


def test_poke_peek_worlds():
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(design.low, 3)
    mw.reset(1)
    mw.poke("en", 1)
    mw.poke_worlds("d", [1, 10, 200])
    mw.step(3)
    assert mw.peek_worlds("total") == [3, 30, 600]
    assert mw.peek("total", world=2) == 600
    mw.poke_world("d", 1, 7)
    mw.step(1)
    assert mw.peek_worlds("total") == [4, 37, 800]


def test_world_index_and_seed_errors():
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(design.low, 2)
    with pytest.raises(SimulatorError):
        mw.peek("total", world=2)
    with pytest.raises(SimulatorError):
        mw.poke_world("d", -1, 5)
    with pytest.raises(SimulatorError):
        mw.poke_worlds("d", [1, 2, 3])  # wrong arity
    with pytest.raises(SimulatorError):
        make_sweep_stimulus(mw, [1, 2, 3])  # wrong seed count
    with pytest.raises(SimulatorError):
        ManyWorldsSimulator(design.low, 0)


# -- mask breakpoints and watchpoints --------------------------------------


def test_mask_breakpoint_reports_exact_world_subset():
    design = repro.compile(Accumulator())
    rates = [1, 5, 0, 9]  # world 2 never accumulates
    mw = ManyWorldsSimulator(design.low, len(rates))
    rec = HitRecorder()
    rt = make_runtime(design, mw, on_hit=rec)
    rt.attach()
    fn, line = line_of(design, "acc")
    rt.add_breakpoint(fn, line, condition="acc > 20")

    mw.reset(1)
    mw.poke("en", 1)
    mw.poke_worlds("d", rates)
    mw.step(6)

    assert rec.records, "the condition holds in some worlds by cycle 6"
    for r in rec.records:
        worlds = r["worlds"]
        # The exact set: conditions evaluate the pre-edge state, so at
        # recorded time t world k has accumulated rates[k] * (t - 1).
        expected = [
            k for k, rate in enumerate(rates) if rate * (r["time"] - 1) > 20
        ]
        assert worlds == expected
        # Strict subset: world 2 (rate 0) can never fire.
        assert 2 not in worlds
        assert worlds != list(range(len(rates)))
    assert mw.stats()["mask_hits"] > 0


def test_mask_watchpoint_carries_world_set():
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(design.low, 3)
    rec = HitRecorder()
    rt = make_runtime(design, mw, on_hit=rec)
    rt.attach()
    rt.add_watchpoint("acc", condition="new > 40")

    mw.reset(1)
    mw.poke("en", 1)
    mw.poke_worlds("d", [1, 25, 3])
    mw.step(4)

    assert rec.records
    first = rec.records[0]["watch"]
    assert first["worlds"] == [1], "only the fast world crossed 40 first"


def test_mask_breakpoint_can_pause_and_resume():
    """A hit handler sees per-world state and CONTINUE keeps all worlds
    advancing in lockstep (pausing is global: worlds share the clock)."""
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(design.low, 2)
    seen = []

    def on_hit(hit):
        seen.append((hit.time, hit.worlds, mw.peek_worlds("total")))
        return CONTINUE

    rt = make_runtime(design, mw, on_hit=on_hit)
    rt.attach()
    fn, line = line_of(design, "acc")
    rt.add_breakpoint(fn, line, condition="acc > 10")
    mw.reset(1)
    t0 = mw.get_time()
    mw.poke("en", 1)
    mw.poke_worlds("d", [3, 50])
    mw.step(5)
    assert seen
    _time0, worlds0, totals0 = seen[0]
    assert worlds0 == (1,)
    assert totals0[1] > 10
    assert mw.get_time() == t0 + 5  # CONTINUE never stalled the clock


# -- wide (>64-bit) signals under scenario batching ------------------------


@pytest.mark.parametrize("options", list(WORLD_OPTIONS))
def test_wide_product_parity(options):
    design = repro.compile(WideWorlds())
    seeds = [31 + k for k in range(3)]
    got, mw = _manyworlds_digests(design, seeds, 80, WORLD_OPTIONS[options])
    _check_world_options(mw, options)
    for k, seed in enumerate(seeds):
        assert got[k] == _reference_digest(design, seed, 80)


def test_worlds_diverging_only_in_wide_dict():
    """Poke distinct x for one cycle, then identical x forever: every
    narrow signal re-converges across worlds while the >64-bit register
    keeps the worlds distinct purely through the wide overflow dict."""
    design = repro.compile(WideWorlds())
    mw = ManyWorldsSimulator(design.low, 3)
    mw.reset(1)
    mw.poke_worlds("x", [10, 20, 30])
    mw.step(1)
    mw.poke("x", 12345)  # identical across worlds from now on
    mw.step(10)

    compiled = mw.design
    assert compiled.wide_indices, "the design must carry wide signals"
    for i, info in enumerate(compiled.signals):
        if i in compiled.wide_indices:
            continue
        values = mw.peek_worlds(info.path)
        assert values == values[:1] * 3, (
            f"narrow signal {info.path} diverged; divergence must be wide-only"
        )
    digests = [mw.state_digest(k) for k in range(3)]
    assert len(set(digests)) == 3, "wide divergence must reach the digest"

    # And the wide values themselves are per-world visible.
    r_vals = mw.peek_worlds("r")
    assert len(set(r_vals)) == 3
    assert all(v < (1 << 96) for v in r_vals)


# -- time travel ------------------------------------------------------------


def test_set_time_rewinds_every_world():
    """Rewind semantics match the scalar engine per world: registers and
    memories restore to the target cycle, and comb re-settles from the
    live input values (inputs are not state — the scalar engine does the
    same, so the parity contract covers rewinds too)."""
    design = repro.compile(OpZoo())
    seeds = [3, 4]
    mw = ManyWorldsSimulator(
        design.low, 2, options=SessionOptions(snapshots=64)
    )
    stim = make_sweep_stimulus(mw, seeds)
    mw.reset(1)
    mw.run_cycles(20, stimulus=stim)
    end = [mw.state_digest(k) for k in range(2)]
    t_end = mw.get_time()

    mw.set_time(t_end - 10)
    rewound = [mw.state_digest(k) for k in range(2)]
    assert rewound != end
    # Fast-forward within the retained window (the current cycle itself
    # is not retained — same as the scalar engine).
    mw.set_time(t_end - 1)
    forward = [mw.state_digest(k) for k in range(2)]

    # Per-world scalar reference: the same seeded run, the same jumps.
    for k, seed in enumerate(seeds):
        sim = Simulator(design.low, options=SessionOptions(snapshots=64))
        rng = random.Random(seed)
        compiled = sim.design
        inputs = sorted(
            n for n in compiled.top_inputs if n not in ("clock", "reset")
        )
        widths = {
            n: compiled.signals[compiled.top_inputs[n]].width for n in inputs
        }

        def stim_one(s, _c, rng=rng):
            for n in inputs:
                s.poke(n, rng.getrandbits(widths[n]))

        sim.reset(1)
        sim.run_cycles(20, stimulus=stim_one)
        sim.set_time(t_end - 10)
        assert sim.state_digest() == rewound[k], f"world {k} rewind diverged"
        sim.set_time(t_end - 1)
        assert sim.state_digest() == forward[k], f"world {k} replay diverged"


# -- options plumbing -------------------------------------------------------


def test_shared_session_options_record():
    """The same frozen SessionOptions record Simulator/hub/shard share
    builds every world: each world's simulator honours it."""
    design = repro.compile(Accumulator())
    options = SessionOptions(fast=False, snapshots=4)
    mw = ManyWorldsSimulator(design.low, 2, options=options)
    assert len(mw.sims) == 2
    for k, sim in enumerate(mw.sims):
        assert mw.world_stores[k] is sim.store
        assert sim.design is mw.design
        assert sim._fast is False
        assert sim.timeline is not None and sim.timeline.limit == 4
    assert mw.store is mw.sims[0].store
    mw.reset(1)
    mw.poke("en", 1)
    mw.poke_worlds("d", [2, 3])
    mw.step(2)
    assert mw.peek_worlds("total") == [4, 6]
    assert all(sim.stats()["settle_full"] > 0 for sim in mw.sims)


def test_snapshots_with_a_wide_memory_rewind_every_world():
    """Each world keeps its own timeline, so a >64-bit memory takes
    snapshots as in a scalar run, and set_time restores every world."""
    design = repro.compile(WideMem())
    seeds = [11, 12, 13]
    mw = ManyWorldsSimulator(
        design.low, len(seeds), options=SessionOptions(snapshots=8)
    )
    mw.reset(1)
    mw.run_cycles(12, stimulus=make_sweep_stimulus(mw, seeds))
    target = mw.get_time() - 5
    mw.set_time(target)
    for k, seed in enumerate(seeds):
        sim = Simulator(design.low, options=SessionOptions(snapshots=8))
        sim.reset(1)
        sim.run_cycles(12, stimulus=Stimulus(sim.design, seed))
        sim.set_time(target)
        assert mw.state_digest(k) == sim.state_digest(), f"world {k}"
        assert mw.peek_worlds("o")[k] == sim.peek("o")


def test_byte_budget_timeline_is_refused():
    """A byte budget would evict each world's history at its own pace, so
    world 0's timeline could name cycles another world no longer holds:
    many-worlds time travel takes a snapshot count only."""
    design = repro.compile(Accumulator())
    for options in (
        SessionOptions(snapshot_bytes=1 << 16),
        SessionOptions(snapshots=8, snapshot_bytes=1 << 16),
    ):
        with pytest.raises(SimulatorError, match="snapshots=N"):
            ManyWorldsSimulator(design.low, 2, options=options)
    # 0 means no budget, as for a scalar Simulator.
    mw = ManyWorldsSimulator(
        design.low, 2, options=SessionOptions(snapshots=8, snapshot_bytes=0)
    )
    assert mw.can_set_time


def test_free_tape_run_goes_native_in_every_world():
    """With nothing attached, run_cycles hands each world its tape: every
    cycle of every world runs on the kernel."""
    design = repro.compile(MemZoo())
    mw = ManyWorldsSimulator(design.low, 4)
    if native.kernel_for(mw.design) is None:
        pytest.skip(f"no native kernel: {native.status(mw.design)}")
    seeds = [5, 6, 7, 8]
    ran = mw.run_cycles(300, stimulus=make_sweep_stimulus(mw, seeds))
    assert ran == 300
    assert [sim.stats()["native_cycles"] for sim in mw.sims] == [300] * 4
    for k, seed in enumerate(seeds):
        ref = Simulator(design.low)
        tape = Stimulus(ref.design, seed)
        # A plain function keeps the reference on the Python poke loop.
        ref.run_cycles(300, stimulus=lambda s, c, tape=tape: tape(s, c))
        assert ref.stats()["native_cycles"] == 0
        assert mw.state_digest(k) == ref.state_digest(), f"world {k}"
