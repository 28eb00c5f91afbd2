"""Property tests pinning the timeline codecs to the reference semantics.

The acceptance contract of the ``repro.sim.timeline`` refactor: under
randomized poke/tick/set_time schedules, a simulator whose history is
``rle``-encoded (with periodic keyframes) is bit-identical — signal for
signal, memory word for memory word, at every observation point — to one
using the ``raw`` codec and to the uncompressed full-comb reference
(``fast=False``), including rewinds that land exactly on keyframe
boundaries.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.sim import SessionOptions, Simulator
from tests.helpers import Accumulator, Counter, TwoLeaves

from tests.sim.test_fastpath_property import MemMixer

MODULES = [Counter, Accumulator, TwoLeaves, MemMixer]


def _state(sim):
    sim.flush()
    return (sim.values.as_list(), [list(m) for m in sim.mems], sim.get_time())


def _lanes(d, snapshots=24):
    """One workload, three history representations: rle (periodic
    keyframes every 5 deltas), raw (the seed ring), and the full-comb
    reference."""
    return [
        Simulator(
            d.low,
            options=SessionOptions(
                snapshots=snapshots,
                fast=True,
                snapshot_codec="rle",
                keyframe_every=5,
            ),
        ),
        Simulator(
            d.low,
            options=SessionOptions(
                snapshots=snapshots, fast=True, snapshot_codec="raw"
            ),
        ),
        Simulator(
            d.low,
            options=SessionOptions(
                snapshots=snapshots, fast=False, snapshot_codec="raw"
            ),
        ),
    ]


def _longest_delta_run(timeline) -> int:
    """The most consecutive delta entries anywhere in ``timeline``."""
    longest = run = 0
    for e in timeline.entries:
        run = 0 if e.values is not None else run + 1
        longest = max(longest, run)
    return longest


@pytest.mark.parametrize("schedule", [0, 1, 2])
@pytest.mark.parametrize("mod_cls", MODULES)
def test_rle_raw_reference_lockstep(mod_cls, schedule):
    """Random pokes/steps/rewinds keep all three lanes bit-identical,
    and the rle lane never holds more than its K=5 deltas in a row.
    Three schedules per design, each seeded by a stable string, so a
    failing one replays."""
    d = repro.compile(mod_cls())
    sims = _lanes(d)
    rng = random.Random(f"lockstep-{mod_cls.__name__}-{schedule}")
    inputs = sorted(n for n in sims[0].design.top_inputs if n != "clock")
    for sim in sims:
        sim.reset()

    for _ in range(90):
        r = rng.random()
        if r < 0.5 and inputs:
            name = rng.choice(inputs)
            width = sims[0].design.signals[
                sims[0].design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            for sim in sims:
                sim.poke(name, value)
        elif r < 0.8:
            cycles = rng.randint(1, 3)
            for sim in sims:
                sim.step(cycles)
        else:
            times = sims[0].timeline.times()
            if times:
                if rng.random() < 0.4:
                    # Land exactly on one of the rle lane's keyframe
                    # boundaries (head or periodic).
                    keys = [e.time for e in sims[0].timeline.entries
                            if e.values is not None]
                    t = rng.choice(keys)
                else:
                    t = rng.choice(times)
                for sim in sims:
                    sim.set_time(t)
        states = [_state(sim) for sim in sims]
        assert states[0] == states[1] == states[2]
        assert (sims[0].timeline.times() == sims[1].timeline.times()
                == sims[2].timeline.times())
        assert _longest_delta_run(sims[0].timeline) <= 5


@pytest.mark.parametrize("mod_cls", MODULES)
def test_every_retained_cycle_restores_identically(mod_cls):
    """Walk the full retained window of all three lanes in random order:
    every set_time target must reconstruct the same state everywhere,
    and re-execution after a keyframe-boundary rewind must too."""
    d = repro.compile(mod_cls())
    sims = _lanes(d, snapshots=20)
    rng = random.Random(99)
    inputs = sorted(n for n in sims[0].design.top_inputs if n != "clock")
    for sim in sims:
        sim.reset()
    for _ in range(40):
        for name in inputs:
            width = sims[0].design.signals[
                sims[0].design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            for sim in sims:
                sim.poke(name, value)
        for sim in sims:
            sim.step(1)

    times = sims[0].timeline.times()
    rng.shuffle(times)
    for t in times:
        for sim in sims:
            sim.set_time(t)
        states = [_state(sim) for sim in sims]
        assert states[0] == states[1] == states[2], f"diverged at t={t}"

    # Rewind every lane onto the rle lane's oldest periodic keyframe,
    # diverge the stimulus, and check re-execution stays lockstep.
    keys = [e.time for e in sims[0].timeline.entries if e.values is not None]
    for sim in sims:
        sim.set_time(keys[-1])
        sim.poke(inputs[0], 1)
        sim.step(5)
    states = [_state(sim) for sim in sims]
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize(
    ("codec", "keyframe_every"), [("rle", 16), ("rle", 0), ("raw", 0)]
)
def test_byte_budget_lockstep_with_entry_ring(codec, keyframe_every):
    """A byte-budgeted timeline must agree with the entry-count raw ring
    on every cycle both retain."""
    d = repro.compile(Counter())
    budgeted = Simulator(
        d.low,
        options=SessionOptions(
            snapshot_bytes=1 << 16,
            snapshot_codec=codec,
            keyframe_every=keyframe_every,
        ),
    )
    ring = Simulator(d.low, options=SessionOptions(snapshots=64))
    for sim in (budgeted, ring):
        sim.reset()
        sim.poke("en", 1)
        sim.step(120)
    common = sorted(
        set(budgeted.timeline.times()) & set(ring.timeline.times())
    )
    assert common  # the windows overlap
    for t in common[:: max(1, len(common) // 10)]:
        budgeted.set_time(t)
        ring.set_time(t)
        assert _state(budgeted) == _state(ring)
