"""Many-worlds batches and world groups on the scalar kernel.

``repro.sim.manyworlds`` runs N stimulus scenarios ("worlds") as one
batch with one scalar ``Simulator`` per world:
``ManyWorldsSimulator.run_cycles`` hands each world its
:func:`make_sweep_stimulus` tape, which the design's native kernel pokes
and steps in C.  A shard world group runs the same tapes one
``Simulator`` after another.

This benchmark runs the *same* N-seed sweep three ways on the 24-stage
pipeline, N = 32 worlds: sequential scalar tape runs sharing one hot
``CompiledDesign``, one ``ManyWorldsSimulator.run_cycles``, and
sequential runs that poke each cycle from Python on the list store (the
fastest configuration without a kernel).

Acceptance bars:

* the tape runs and the many-worlds batch each reach >= 5x the
  aggregate cycles/s of the Python poke loop at N=32 — asserted in smoke
  too (smoke only shrinks the cycle count; the world count stays at 32);
* per-world ``state_digest`` identical across the three, and to the
  sequential reference, asserted always.

The throughput test skips where no kernel builds (no C compiler).
"""

from __future__ import annotations

import os

import repro
import repro.hgf as hgf
from repro.sim import Simulator, native
from repro.sim.compiler import compile_design
from repro.sim.manyworlds import ManyWorldsSimulator, make_sweep_stimulus
from repro.shard.spec import ShardSpec
from repro.shard.worker import make_stimulus

import pytest

from conftest import best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
# The bar is pinned at N=32 even in smoke (asserted in CI smoke); smoke
# only shrinks the cycle count and repeat count.
_WORLDS = 32
_CYCLES = 500 if _SMOKE else 1000
_STAGES = 24
_BAR = 5.0
_PARITY_WORLDS = 4 if _SMOKE else 8
_PARITY_CYCLES = 60 if _SMOKE else 200


class _ManyWorldsPipe(hgf.Module):
    """The shard-farm pipeline (bench_shard's compute-bound scenario):
    per-stage xor+add+slice keeps each cycle arithmetic-dominated, so the
    ratio below measures simulation throughput, not harness overhead."""

    def __init__(self, stages: int = _STAGES, width: int = 32):
        super().__init__()
        self.x = self.input("x", width)
        self.o = self.output("o", width)
        mask = (1 << width) - 1
        acc = self.x
        for k in range(stages):
            r = self.reg(f"p{k}", width, init=(k * 2654435761) & mask)
            r <<= ((acc ^ r) + self.lit((2 * k + 1) & mask, width))[width - 1:0]
            acc = r
        self.o <<= acc


def _sequential_digests(design, compiled, seeds, cycles, tape=True):
    """One seeded Simulator run per world under the shard seed contract:
    the stimulus as a tape (the kernel pokes it where one builds), or
    (``tape=False``) the same rows poked from Python each cycle."""
    digests = []
    for seed in seeds:
        sim = Simulator(design.low, compiled=compiled)
        stim = make_stimulus(sim, ShardSpec(seed, seed=seed, cycles=0))
        if not tape:
            rows = stim

            def stim(s, cycle, rows=rows):
                rows(s, cycle)

        sim.reset(1)
        sim.run_cycles(cycles, stimulus=stim)
        digests.append(sim.state_digest())
    return digests


def test_manyworlds_throughput(capsys):
    """The bars: scalar tape runs and a many-worlds batch each >= 5x the
    Python poke loop, at N=32."""
    design = repro.compile(_ManyWorldsPipe())
    compiled = compile_design(design.low, None)
    if native.kernel_for(compiled) is None:
        pytest.skip(f"no native kernel: {native.status(compiled)}")
    seeds = list(range(_WORLDS))

    def tape_sweep():
        return _sequential_digests(design, compiled, seeds, _CYCLES)

    def poke_sweep():
        return _sequential_digests(design, compiled, seeds, _CYCLES, tape=False)

    def worlds_sweep():
        mw = ManyWorldsSimulator(design.low, _WORLDS, compiled=compiled)
        stim = make_sweep_stimulus(mw, seeds)
        mw.reset(1)
        mw.run_cycles(_CYCLES, stimulus=stim)
        return [mw.state_digest(k) for k in range(_WORLDS)]

    # Parity first (asserted always): same seeds, same per-world bits.
    tape = tape_sweep()
    assert worlds_sweep() == tape, "many-worlds diverged from the tape runs"
    assert poke_sweep() == tape, "Python pokes diverged from the tape runs"

    # The bars are ratio assertions and hold in smoke too, so every side
    # takes the best of 2 even there — one sample flakes on load.
    tape_wall = best_of(tape_sweep, n=2)
    worlds_wall = best_of(worlds_sweep, n=2)
    poke_wall = best_of(poke_sweep, n=2)
    total_cycles = _WORLDS * _CYCLES
    with capsys.disabled():
        print(
            f"\n=== world groups ({_WORLDS} worlds x {_CYCLES} "
            f"cycles, {_STAGES}-stage pipeline) ==="
        )
        print(f"{'':>22} {'wall':>10} {'agg cycles/s':>14}")
        for name, wall in (
            ("scalar tape runs", tape_wall),
            ("many-worlds", worlds_wall),
            ("Python poke loop", poke_wall),
        ):
            print(f"{name:>22} {wall * 1e3:>8.1f}ms {total_cycles / wall:>14,.0f}")
        print(
            f"over the Python poke loop: tape runs {poke_wall / tape_wall:.1f}x, "
            f"many-worlds {poke_wall / worlds_wall:.1f}x (bar: >= {_BAR:.0f}x each)"
        )
    assert poke_wall / worlds_wall >= _BAR, (
        f"many-worlds only {poke_wall / worlds_wall:.2f}x the Python poke "
        f"loop at N={_WORLDS}"
    )
    assert poke_wall / tape_wall >= _BAR, (
        f"tape runs only {poke_wall / tape_wall:.2f}x the Python poke loop"
    )


def test_manyworlds_digest_parity(capsys):
    """Per-world digests match the sequential scalar runs."""
    design = repro.compile(_ManyWorldsPipe(stages=6))
    compiled = compile_design(design.low, None)
    seeds = [7 * k + 3 for k in range(_PARITY_WORLDS)]

    mw = ManyWorldsSimulator(design.low, _PARITY_WORLDS, compiled=compiled)
    stim = make_sweep_stimulus(mw, seeds)
    mw.reset(1)
    mw.run_cycles(_PARITY_CYCLES, stimulus=stim)
    worlds = [mw.state_digest(k) for k in range(_PARITY_WORLDS)]

    ref = _sequential_digests(design, compiled, seeds, _PARITY_CYCLES)
    assert ref == worlds, "the sequential reference diverged from many-worlds"
    with capsys.disabled():
        print(
            f"\n=== many-worlds parity: {_PARITY_WORLDS} worlds "
            f"bit-identical to sequential runs ===\nok"
        )
