"""Property tests pinning the timeline to the reference semantics.

Under randomized poke/tick/set_time schedules, the fast path's history is
bit-identical — signal for signal, memory word for memory word, at every
observation point — to the full-comb reference (``fast=False``),
including rewinds that land exactly on the head keyframe.
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
    """One workload on the fast path and on the full-comb reference."""
    return [
        Simulator(d.low, options=SessionOptions(snapshots=snapshots, fast=fast))
        for fast in (True, False)
    ]


@pytest.mark.parametrize("schedule", [0, 1, 2])
@pytest.mark.parametrize("mod_cls", MODULES)
def test_fast_reference_lockstep(mod_cls, schedule):
    """Random pokes/steps/rewinds keep both lanes bit-identical, with the
    head keyframe the only keyframe.  Three schedules per design, each
    seeded by a stable string, so a failing one replays."""
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
                # Land exactly on the head keyframe now and then.
                t = times[0] if rng.random() < 0.4 else rng.choice(times)
                for sim in sims:
                    sim.set_time(t)
        states = [_state(sim) for sim in sims]
        assert states[0] == states[1]
        assert sims[0].timeline.times() == sims[1].timeline.times()
        kinds = [e.values is not None for e in sims[0].timeline.entries]
        assert not kinds or (kinds[0] and not any(kinds[1:]))


@pytest.mark.parametrize("mod_cls", MODULES)
def test_every_retained_cycle_restores_identically(mod_cls):
    """Walk the full retained window of both lanes in random order: every
    set_time target must reconstruct the same state in each, and
    re-execution after a rewind onto the head keyframe must too."""
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
        assert states[0] == states[1], f"diverged at t={t}"

    # Rewind both lanes onto the head keyframe, diverge the stimulus, and
    # check re-execution stays lockstep.
    head = sims[0].timeline.times()[0]
    for sim in sims:
        sim.set_time(head)
        sim.poke(inputs[0], 1)
        sim.step(5)
    states = [_state(sim) for sim in sims]
    assert states[0] == states[1]


@pytest.mark.parametrize("mod_cls", MODULES)
def test_short_and_long_windows_agree(mod_cls):
    """A 4-entry window (its head folded forward on almost every cycle)
    and a 64-entry one, driven through the same random pokes, steps and
    rewinds: the short one always holds the newest cycles of the long
    one, and every cycle both retain restores identically in each."""
    d = repro.compile(mod_cls())
    short, long_ = (
        Simulator(d.low, options=SessionOptions(snapshots=n)) for n in (4, 64)
    )
    sims = (short, long_)
    rng = random.Random(f"windows-{mod_cls.__name__}")
    inputs = sorted(n for n in short.design.top_inputs if n != "clock")
    for sim in sims:
        sim.reset()

    for _ in range(120):
        r = rng.random()
        if r < 0.5 and inputs:
            name = rng.choice(inputs)
            width = short.design.signals[short.design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            for sim in sims:
                sim.poke(name, value)
        elif r < 0.85:
            cycles = rng.randint(1, 4)
            for sim in sims:
                sim.step(cycles)
        else:
            t = rng.choice(short.timeline.times())
            for sim in sims:
                sim.set_time(t)
        assert _state(short) == _state(long_)
        kept, every = short.timeline.times(), long_.timeline.times()
        assert kept == every[len(every) - len(kept) :]

    common = short.timeline.times()
    rng.shuffle(common)
    for t in common:
        for sim in sims:
            sim.set_time(t)
        assert _state(short) == _state(long_), f"diverged at t={t}"
