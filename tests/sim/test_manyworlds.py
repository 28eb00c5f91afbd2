"""Many-worlds batch runs (``repro.sim.manyworlds``).

The contract under test: N scenario worlds, one scalar ``Simulator`` each
over a shared compiled design, are **bit-identical**, per world, to N
sequential reference (``fast=False``) ``Simulator`` runs of the same
per-world stimulus.
"""

from __future__ import annotations

import ast
import os
import random

import pytest

import repro
import repro.client
import repro.core
import repro.hgf as hgf
from repro.hub import SessionOptions
from repro.obs import NULL_OBS
from repro.shard import ShardSpec, run_shard
from repro.sim import (
    ManyWorldsSimulator,
    Simulator,
    SimulatorError,
    SimulatorInterface,
    Stimulus,
    make_sweep_stimulus,
    native,
)
from repro.symtable import SQLiteSymbolTable, write_symbol_table

from tests.helpers import Accumulator


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
    "timeline": SessionOptions(snapshots=8),
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


def test_sweep_stimulus_is_the_shard_tape():
    """World k's tape, held overrides included, is the one a shard with
    ``seed=seeds[k]`` runs: each world's digest is that shard's."""
    design = repro.compile(Accumulator())
    seeds = [3, 4, 5]
    overrides = {"en": 1}
    mw = ManyWorldsSimulator(design.low, len(seeds))
    for sim in mw.sims:
        sim.poke("en", 1)
    mw.reset(1)
    mw.run_cycles(40, stimulus=make_sweep_stimulus(mw, seeds, overrides))
    st = SQLiteSymbolTable(write_symbol_table(design))
    for k, seed in enumerate(seeds):
        spec = ShardSpec(shard_id=k, seed=seed, cycles=40, overrides=overrides)
        shard = run_shard(design.low, st, spec)
        assert mw.state_digest(k) == shard.state_digest, f"world {k}"
    assert mw.sims[0].peek("en") == 1, "the override must stay held"


def test_run_cycles_without_stimulus_holds_each_worlds_inputs():
    """``stimulus=None`` runs every world on the inputs poked into it, as
    a scalar ``run_cycles`` without stimulus does."""
    design = repro.compile(Accumulator())
    ds = [1, 4, 9]
    mw = ManyWorldsSimulator(design.low, len(ds))
    mw.reset(1)
    for sim, d in zip(mw.sims, ds, strict=True):
        sim.poke("en", 1)
        sim.poke("d", d)
    assert mw.run_cycles(30) == 30
    for k, d in enumerate(ds):
        ref = Simulator(design.low)
        ref.reset(1)
        ref.poke("en", 1)
        ref.poke("d", d)
        ref.run_cycles(30)
        assert mw.state_digest(k) == ref.state_digest(), f"world {k}"
    assert len({mw.state_digest(k) for k in range(len(ds))}) == len(ds)


# -- per-world stop semantics ----------------------------------------------


def test_stop_finishes_only_fired_worlds():
    design = repro.compile(Stopper())
    # World k adds k+1 per cycle: the 0xA5 marker lands on different
    # cycles (and never, for steps that miss it within the budget).
    rates = [1, 5, 2, 11]
    mw = ManyWorldsSimulator(design.low, len(rates))
    mw.reset(1)
    for sim, rate in zip(mw.sims, rates, strict=True):
        sim.poke("x", rate)
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
    assert {k for k, sim in enumerate(mw.sims) if sim.finished} == finished

    # Finished worlds froze: more cycles, or a reset, must not move their
    # archived state.
    before = [mw.state_digest(k) for k in finished]
    mw.step(25)
    mw.reset(1)
    assert [mw.state_digest(k) for k in finished] == before


def test_run_until_all_worlds_finish():
    design = repro.compile(Stopper())
    mw = ManyWorldsSimulator(design.low, 2)
    mw.reset(1)
    # World 0 hits on the first edge.
    for sim, x in zip(mw.sims, [0xA5, 55], strict=True):
        sim.poke("x", x)
    codes = mw.run(max_cycles=2000)
    assert codes == [3, 3]
    assert mw.finished
    assert mw.sims[0].get_time() < mw.sims[1].get_time()


def test_run_budget_leaves_unstopped_worlds_running():
    """``run(max_cycles)`` ends each world at its own Stop or at the
    budget: a world still running reports None, and a later run finishes
    it without moving the world that already stopped."""
    design = repro.compile(Stopper())
    mw = ManyWorldsSimulator(design.low, 2)
    mw.reset(1)
    for sim, x in zip(mw.sims, [0xA5, 0], strict=True):
        sim.poke("x", x)  # x = 0 never reaches the marker
    assert mw.run(max_cycles=50) == [3, None]
    assert not mw.finished
    stopped = mw.state_digest(0)
    mw.sims[1].poke("x", 0xA5)
    assert mw.run(max_cycles=50) == [3, 3]
    assert mw.finished
    assert mw.state_digest(0) == stopped


# -- error surfaces ---------------------------------------------------------


def test_world_index_and_seed_errors():
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(design.low, 2)
    with pytest.raises(SimulatorError):
        mw.state_digest(2)
    with pytest.raises(SimulatorError):
        mw.state_digest(-1)
    with pytest.raises(SimulatorError):
        make_sweep_stimulus(mw, [1, 2, 3])  # wrong seed count
    with pytest.raises(SimulatorError):
        mw.run_cycles(5, stimulus=[None] * 3)  # one stimulus per world
    with pytest.raises(SimulatorError):
        ManyWorldsSimulator(design.low, 0)


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
    for sim, x in zip(mw.sims, [10, 20, 30], strict=True):
        sim.poke("x", x)
    mw.step(1)
    for sim in mw.sims:
        sim.poke("x", 12345)  # identical across worlds from now on
    mw.step(10)

    compiled = mw.design
    assert compiled.wide_indices, "the design must carry wide signals"
    for i, info in enumerate(compiled.signals):
        if i in compiled.wide_indices:
            continue
        values = [sim.peek(info.path) for sim in mw.sims]
        assert values == values[:1] * 3, (
            f"narrow signal {info.path} diverged; divergence must be wide-only"
        )
    digests = [mw.state_digest(k) for k in range(3)]
    assert len(set(digests)) == 3, "wide divergence must reach the digest"

    # And the wide values themselves are per-world visible.
    r_vals = [sim.peek("r") for sim in mw.sims]
    assert len(set(r_vals)) == 3
    assert all(v < (1 << 96) for v in r_vals)


# -- options plumbing -------------------------------------------------------


def test_shared_session_options_record():
    """The same frozen SessionOptions record Simulator/hub/shard share
    builds every world: each world's simulator honours it."""
    design = repro.compile(Accumulator())
    options = SessionOptions(fast=False, snapshots=4)
    mw = ManyWorldsSimulator(design.low, 2, options=options)
    assert len(mw.sims) == 2
    for sim in mw.sims:
        assert sim.design is mw.design
        assert sim._fast is False
        assert sim.timeline is not None and sim.timeline.limit == 4
    mw.reset(1)
    for sim, d in zip(mw.sims, [2, 3], strict=True):
        sim.poke("en", 1)
        sim.poke("d", d)
    mw.step(2)
    assert [sim.peek("total") for sim in mw.sims] == [4, 6]
    assert all(sim.stats()["settle_full"] > 0 for sim in mw.sims)


def test_worlds_share_a_given_compile():
    """``compiled=`` skips the compile: every world runs the design it
    was handed (perfbench's fpu workload passes its session's)."""
    design = repro.compile(Accumulator())
    compiled = Simulator(design.low).design
    mw = ManyWorldsSimulator(None, 3, compiled=compiled)
    assert mw.design is compiled
    assert all(sim.design is compiled for sim in mw.sims)


def test_worlds_are_built_with_obs_off():
    """``obs`` configures the compile only: one registry would hold every
    world's series under the same names, so each world reports none."""
    design = repro.compile(Accumulator())
    mw = ManyWorldsSimulator(
        design.low, 2, options=SessionOptions(obs="metrics")
    )
    assert all(sim.obs is NULL_OBS for sim in mw.sims)


def test_stats_counts_every_statement_as_scalar():
    """``stats()`` keeps the two statement counts perfbench reports: no
    statement is vectorised, and the count does not grow with worlds."""
    design = repro.compile(OpZoo())
    one, four = (ManyWorldsSimulator(design.low, n).stats() for n in (1, 4))
    assert one == four
    assert set(one) == {"vector_statements", "scalar_statements"}
    assert one["vector_statements"] == 0
    assert one["scalar_statements"] > 0


def test_wide_memory_parity():
    """A >64-bit memory under per-world timelines: every world equals a
    scalar run of its seed."""
    design = repro.compile(WideMem())
    seeds = [11, 12, 13]
    mw = ManyWorldsSimulator(
        design.low, len(seeds), options=SessionOptions(snapshots=8)
    )
    mw.reset(1)
    mw.run_cycles(12, stimulus=make_sweep_stimulus(mw, seeds))
    for k, seed in enumerate(seeds):
        sim = Simulator(design.low, options=SessionOptions(snapshots=8))
        sim.reset(1)
        sim.run_cycles(12, stimulus=Stimulus(sim.design, seed))
        assert mw.state_digest(k) == sim.state_digest(), f"world {k}"
        assert mw.sims[k].peek("o") == sim.peek("o")


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


# -- the debugger's boundary -------------------------------------------------

#: what the deleted many-worlds debug backend exposed to the debugger
_WORLD_NAMES = {
    "ManyWorldsSimulator",
    "worlds",
    "world_stores",
    "active_worlds",
    "fired_worlds",
    "note_mask_hit",
}


def _names(node) -> list[str]:
    """The names ``node`` imports or reads, string constants included
    (``getattr(sim, "worlds")``)."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(a.name for a in node.names)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_batch_runner_is_no_debug_backend():
    """The batch runner is not a ``SimulatorInterface`` and keeps none of
    the deleted debug surface."""
    assert not issubclass(ManyWorldsSimulator, SimulatorInterface)
    mw = ManyWorldsSimulator(repro.compile(Accumulator()).low, 2)
    gone = [
        "register_clock_callback", "set_time", "timeline", "get_value",
        "set_value", "hierarchy", "poke_worlds", "peek_worlds", "peek_mem",
        "world_stores", "active_worlds", "finish_ticks",
        "printf_output_world", "note_mask_hit",
    ]
    assert [name for name in gone if hasattr(mw, name)] == []


def test_debugger_packages_know_no_worlds():
    """A runtime debugs one simulation: no module of ``repro.core`` or
    ``repro.client`` imports the many-worlds batch runner or reads a
    world attribute."""
    found = []
    for package in (repro.core, repro.client):
        root = os.path.dirname(package.__file__)
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                for n in _names(node):
                    if n in _WORLD_NAMES or "manyworlds" in n.split("."):
                        found.append(f"{package.__name__}.{name}:{node.lineno} {n}")
    assert not found, found
