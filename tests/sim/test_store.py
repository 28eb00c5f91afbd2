"""The value store: 64-bit lanes, wide overflow, snapshots, digests.

The ``ValueStore`` (``repro.sim.store``) is a plain list of 64-bit lanes
plus an overflow dict for wider signals; these tests cover the cases that
stress that representation:

* >64-bit signals (the wide overflow dict, including wide registers);
* negative / oversized pokes (lane masking);
* snapshot rewinds across a keyframe boundary, restored in place;
* the fast and reference paths staying bit-identical through rewinds;
* watchpoints and compiled breakpoint conditions reading wide signals;
* the state digest;
* the per-cycle state delta on adversarial change patterns.

Two engines write the store: generated code (the default) and the
reference interpreter (``fast=False``); the representation tests run on
both.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from array import array

import pytest

import repro
import repro.hgf as hgf
from repro.sim import SessionOptions, Simulator, SimulatorError, ValueStore
from repro.sim.store import resolve_store_kind
from tests.helpers import Accumulator, Counter, make_runtime

ENGINES = pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])


class WideMixer(hgf.Module):
    """>64-bit datapath: 96-bit input, a 128-bit product node, and a
    96-bit register, folded back down to a narrow output."""

    def __init__(self):
        super().__init__()
        self.a = self.input("a", 96)
        self.b = self.input("b", 64)
        self.en = self.input("en", 1)
        self.o = self.output("o", 32)
        prod = self.wire("prod", 128)
        prod <<= (self.a[63:0] * self.b)[127:0]
        acc = self.reg("acc", 96, init=0)
        with self.when(self.en == 1):
            acc <<= (acc + self.a + prod[95:0])[95:0]
        self.o <<= (acc[31:0] ^ acc[95:64] ^ prod[127:96])[31:0]


def _full_state(sim):
    sim.flush()
    return (sim.values.as_list(), [list(m) for m in sim.mems], sim.get_time())


def _rand_drive(sims, rng, cycles=60, rewind=True):
    inputs = sorted(n for n in sims[0].design.top_inputs if n != "clock")
    for _ in range(cycles):
        r = rng.random()
        if r < 0.5 and inputs:
            name = rng.choice(inputs)
            width = sims[0].design.signals[sims[0].design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            for sim in sims:
                sim.poke(name, value)
        elif r < 0.85 or not rewind:
            cyc = rng.randint(1, 3)
            for sim in sims:
                sim.step(cyc)
        else:
            times = sims[0].timeline.times()
            if times:
                t = rng.choice(times)
                for sim in sims:
                    sim.set_time(t)
        states = [_full_state(sim) for sim in sims]
        assert all(s == states[0] for s in states[1:])


# -- the one store -------------------------------------------------------------


def test_resolve_store_kind():
    assert resolve_store_kind("list") == "list"
    assert resolve_store_kind("auto") == "list"
    assert resolve_store_kind(None) == "list"
    assert resolve_store_kind(SessionOptions().store) == "list"
    for gone in ("array", "numpy", "rocksdb"):
        with pytest.raises(SimulatorError):
            resolve_store_kind(gone)


@ENGINES
def test_store_sequence_protocol(fast):
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    store = sim.values
    assert isinstance(store, ValueStore) and type(store.narrow) is list
    assert len(store) == len(sim.design.signals)
    assert list(store) == store.as_list()
    assert store[sim.design.clock_index] == 0


@ENGINES
def test_store_negative_index_and_slice_cover_wide(fast):
    """list[int] semantics hold even for wide signals: negative indices
    and slices must not fall through to the unused narrow lane."""
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    sim.reset()
    sim.poke("a", 1 << 90)
    sim.poke("b", 3)
    sim.flush()
    store = sim.values
    vals = store.as_list()
    n = len(store)
    for i in sim.design.wide_indices:
        assert store[i - n] == store[i] == vals[i]
    assert store[:] == vals
    assert store[2:5] == vals[2:5]
    # Negative writes land in the right buffer too.
    a_idx = sim.design.signal_index["WideMixer.a"]
    store[a_idx - n] = 7
    assert store[a_idx] == 7


# -- fast/reference parity ---------------------------------------------------


@pytest.mark.parametrize("mod_cls", [Counter, Accumulator, WideMixer])
@pytest.mark.parametrize("seed", [0, 1])
def test_fast_reference_parity_property(mod_cls, seed):
    """Random pokes/steps/rewinds leave the fast and reference paths in
    bit-identical state."""
    d = repro.compile(mod_cls())
    sims = [
        Simulator(d.low, options=SessionOptions(snapshots=16, fast=fast))
        for fast in (True, False)
    ]
    for sim in sims:
        sim.reset()
    _rand_drive(sims, random.Random(seed))


# -- wide (>64-bit) signals --------------------------------------------------


@ENGINES
def test_wide_signals_roundtrip(fast):
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    sim.reset()
    big = (1 << 95) | (1 << 70) | 12345
    sim.poke("a", big)
    sim.poke("b", (1 << 64) - 1)
    sim.poke("en", 1)
    assert sim.peek("a") == big
    prod_idx = sim.design.signal_index["WideMixer.prod"]
    assert prod_idx in sim.design.wide_indices
    sim.flush()
    assert sim.values[prod_idx] == (big & ((1 << 64) - 1)) * ((1 << 64) - 1)
    sim.step(3)
    # The wide register accumulated 96-bit values without truncation.
    acc = sim.peek("acc")
    assert acc >= 1 << 64


@ENGINES
def test_wide_watchpoint_and_condition(fast):
    """Watchpoints and compiled breakpoint conditions bind the wide
    overflow dict for >64-bit signals."""
    from repro.core import CONTINUE

    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    hits = []
    rt = make_runtime(
        d, sim, lambda h: (hits.append((h.time, h.watch["new"])), CONTINUE)[1]
    )
    rt.attach()
    sim.reset()
    rt.add_watchpoint("acc", condition=f"new > {1 << 70}")
    sim.poke("a", 1 << 80)
    sim.poke("b", 1)
    sim.poke("en", 1)
    sim.step(4)
    assert hits and all(new > 1 << 70 for _t, new in hits)
    assert not rt.warnings


# -- masking -----------------------------------------------------------------


@ENGINES
def test_negative_poke_masks_to_width(fast):
    d = repro.compile(Accumulator())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    sim.reset()
    sim.poke("d", -1)          # 8-bit input: stores 0xFF, not -1
    assert sim.peek("d") == 0xFF
    sim.poke("d", -2)
    assert sim.peek("d") == 0xFE
    sim.poke("d", 1 << 20)     # oversized: masked to low 8 bits
    assert sim.peek("d") == 0


@ENGINES
def test_negative_poke_wide_signal(fast):
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(fast=fast))
    sim.reset()
    sim.poke("a", -1)
    assert sim.peek("a") == (1 << 96) - 1


# -- snapshots ---------------------------------------------------------------


@pytest.mark.parametrize("mod_cls", [Counter, WideMixer])
def test_rewind_across_keyframe_boundary(mod_cls):
    """With a small ring, old keyframes are folded forward on eviction;
    rewinding to the oldest retained time must reconstruct exactly, then
    re-execution must reproduce the original run."""
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=4))
    ref = Simulator(d.low, options=SessionOptions(snapshots=0))
    rng = random.Random(3)
    inputs = sorted(n for n in sim.design.top_inputs if n != "clock")
    sim.reset()
    ref.reset()

    gold = {}
    for _ in range(20):
        for name in inputs:
            width = sim.design.signals[sim.design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            sim.poke(name, value)
            ref.poke(name, value)
        sim.flush()
        gold[sim.get_time()] = _full_state(sim)[0]
        sim.step(1)
        ref.step(1)

    # Ring holds only the last 4 times; the oldest is a folded keyframe.
    times = sim.timeline.times()
    assert len(times) == 4
    assert sim.timeline.entries[0].values is not None  # keyframe at head
    for t in (times[0], times[-1], times[0]):
        sim.set_time(t)
        assert sim.values.as_list() == gold[t]
    # Re-execute from the folded keyframe: the ring restarts and later
    # rewinds reconstruct the new run's state exactly.
    sim.set_time(times[0])
    sim.flush()
    redo = {}
    for _ in range(3):
        sim.flush()
        redo[sim.get_time()] = sim.values.as_list()
        sim.step(1)
    for t, want in redo.items():
        sim.set_time(t)
        assert sim.values.as_list() == want


def test_rewind_restores_into_the_live_store():
    """Keyframes are ``array('Q')`` copies; a rewind writes one, plus its
    deltas, back into the very ``narrow`` list and ``wide`` dict that
    generated code holds, so the store keeps its identity and type."""
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(snapshots=16))
    narrow, wide = sim.store.narrow, sim.store.wide
    sim.reset()
    sim.poke("en", 1)
    sim.poke("b", 3)
    gold = {}
    for k in range(10):
        sim.poke("a", (1 << 95) | k)
        sim.flush()
        gold[sim.get_time()] = sim.values.as_list()
        sim.step(1)
    kinds = [e.values is not None for e in sim.timeline.entries]
    assert kinds[0] and not any(kinds[1:])
    for t in sorted(gold, reverse=True):  # delta targets, then the keyframe
        sim.set_time(t)
        assert sim.store.narrow is narrow and type(narrow) is list
        assert sim.store.wide is wide
        assert sim.values.as_list() == gold[t], t


@ENGINES
def test_snapshot_skips_mem_copy_when_no_memories(fast):
    """Bugfix: designs without memories must not pay for (empty) memory
    keyframes or the journaling tick variant."""
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(snapshots=8, fast=fast))
    assert sim.timeline.snap_mems is False
    sim.reset()
    sim.poke("en", 1)
    gold = {}
    for _ in range(6):
        gold[sim.get_time()] = sim.peek("out")
        sim.step(1)
    assert all(s.mem_copy is None for s in sim.timeline.entries)
    assert all(s.delta_mem is None for s in sim.timeline.entries)
    sim.set_time(3)
    assert sim.get_time() == 3
    assert sim.peek("out") == gold[3]
    sim.step(2)
    assert sim.peek("out") == gold[5]


# -- digests -----------------------------------------------------------------


def test_state_digest_distinguishes_states():
    d = repro.compile(Accumulator())
    a, b = Simulator(d.low), Simulator(d.low)
    for sim in (a, b):
        sim.reset()
        sim.poke("en", 1)
    a.poke("d", 7)
    b.poke("d", 9)
    a.step(3)
    b.step(3)
    assert a.state_digest() != b.state_digest()


def test_state_digest_engine_and_rewind_independent():
    """One state, one digest: whichever engine reached it, and after a
    rewind back to it."""
    d = repro.compile(Accumulator())
    sims = [
        Simulator(d.low, options=SessionOptions(snapshots=8, fast=fast))
        for fast in (True, False)
    ]
    for sim in sims:
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 7)
        sim.step(5)
    t, digest = sims[0].get_time(), sims[0].state_digest()
    assert sims[1].state_digest() == digest
    for sim in sims:
        sim.step(3)
        assert sim.state_digest() != digest
        sim.set_time(t)
        assert sim.state_digest() == digest


def test_store_digest_bytes_uses_raw_buffer():
    d = repro.compile(Counter())
    store = Simulator(d.low).store
    blob = store.digest_bytes()
    assert isinstance(blob, bytes)
    assert len(blob) >= 8 * len(store)


# -- the state delta on adversarial patterns -------------------------------
#
# A timeline keeps each cycle's ``state_delta`` dict as it is.  These
# micro-tests pin it on adversarial change patterns — every signal,
# alternating (no two indices adjacent), a single change, none — against
# the changed lanes themselves, and a replay onto scribbled copies of the
# values (a list, and the ``array('Q')`` keyframe buffer that eviction and
# rewinds replay onto).

PATTERNS = [
    ("all-same", {i: 7 for i in range(64)}),
    ("alternating", {i: i + 1 for i in range(0, 64, 2)}),
    ("single-change", {17: 0xDEAD}),
    ("two-runs", {**{i: 1 for i in range(4)}, **{i: 2 for i in range(40, 44)}}),
    ("empty", {}),
]


@pytest.mark.parametrize(("label", "changed"), PATTERNS)
def test_state_delta_adversarial_patterns(label, changed):
    store = ValueStore(64, (), tuple(range(64)))
    base = store.capture_state()
    for i, v in changed.items():
        store[i] = v
    delta = store.state_delta(base)
    assert list(delta.items()) == sorted(changed.items()), label
    assert base == store.narrow  # the baseline moved to the new state
    for saved in (store.narrow.copy(), array("Q", store.narrow)):
        for i in changed:
            saved[i] = 0xBAD  # scribble over the changed lanes
        for i, v in delta.items():
            saved[i] = v
        assert list(saved) == store.narrow


def test_state_delta_random_patterns():
    """Random change sets over 256 lanes, each against the baseline the
    previous delta left: a delta names exactly the lanes whose value
    changed, so a lane rewritten with its old value is not in it."""
    rng = random.Random(2024)
    n = 256
    store = ValueStore(n, (), tuple(range(n)))
    base = store.capture_state()
    for _trial in range(25):
        before = list(store.narrow)
        for i in rng.sample(range(n), rng.randint(0, n)):
            store[i] = rng.choice((before[i], rng.getrandbits(64)))
        delta = store.state_delta(base)
        assert delta == {
            i: v
            for i, (v, old) in enumerate(zip(store.narrow, before, strict=True))
            if v != old
        }
        assert base == store.narrow


def test_default_path_loads_no_numpy():
    """Nothing in repro imports numpy: importing the simulator, the
    runtime, the shard farm, the hub server and the CLI, then stepping a
    default Simulator, leaves it unloaded."""
    code = (
        "import sys, repro\n"
        "import repro.sim, repro.core, repro.shard, repro.hub.server, repro.cli\n"
        "from repro.sim import Simulator\n"
        "from tests.helpers import Counter\n"
        "Simulator(repro.compile(Counter()).low).step(2)\n"
        "print('numpy' in sys.modules)\n"
    )
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        env=env,
    )
    assert out.stdout.strip() == "False"
