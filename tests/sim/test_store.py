"""Value-store backends: typed 64-bit lanes, wide overflow, parity.

The ``ValueStore`` layer (``repro.sim.store``) makes the value-table
representation pluggable; these tests pin every backend bit-identical to
the plain-list reference across the cases that stress the representation:

* >64-bit signals (the wide overflow dict, including wide registers);
* negative / oversized pokes (lane masking);
* snapshot rewinds across a keyframe boundary on typed buffers;
* backend selection (``store=`` argument and ``$REPRO_VALUE_STORE``);
* watchpoints and compiled breakpoint conditions reading wide signals;
* the raw-buffer state digest.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
import repro.hgf as hgf
from repro.sim import SessionOptions, Simulator, SimulatorError
from repro.sim.store import (
    ListStore,
    NumpyStore,
    make_store,
    numpy_available,
    resolve_store_kind,
)
from tests.helpers import Accumulator, Counter, make_runtime

BACKENDS = ["list", "array"] + (["numpy"] if numpy_available() else [])


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


# -- backend selection -------------------------------------------------------


def test_resolve_store_kind(monkeypatch):
    monkeypatch.delenv("REPRO_VALUE_STORE", raising=False)
    assert resolve_store_kind("list") == "list"
    assert resolve_store_kind("array") == "array"
    # The fastest scalar backend on the paper's workloads, with or
    # without numpy installed.
    assert resolve_store_kind("auto") == "list"
    assert resolve_store_kind(None) == "list"
    with pytest.raises(SimulatorError):
        resolve_store_kind("rocksdb")


def test_numpy_store_without_importable_numpy(monkeypatch):
    """NumpyStore imports numpy when built: an install that cannot be
    imported is the same SimulatorError resolve_store_kind gives."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
    with pytest.raises(SimulatorError, match="numpy is not importable"):
        NumpyStore(4, (), ())


def test_env_override_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_VALUE_STORE", "list")
    d = repro.compile(Counter())
    assert Simulator(d.low).store.kind == "list"
    monkeypatch.setenv("REPRO_VALUE_STORE", "array")
    assert Simulator(d.low).store.kind == "array"
    # An explicit argument beats the environment.
    assert Simulator(d.low, options=SessionOptions(store="list")).store.kind == "list"


@pytest.mark.parametrize("kind", BACKENDS)
def test_store_sequence_protocol(kind):
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
    store = sim.values
    assert store.kind == kind
    assert len(store) == len(sim.design.signals)
    assert list(store) == store.as_list()
    assert store[sim.design.clock_index] == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_store_negative_index_and_slice_cover_wide(kind):
    """list[int] semantics hold even for wide signals: negative indices
    and slices must not fall through to the unused narrow lane."""
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
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


# -- cross-backend parity ----------------------------------------------------


@pytest.mark.parametrize("mod_cls", [Counter, Accumulator, WideMixer])
@pytest.mark.parametrize("seed", [0, 1])
def test_backend_parity_property(mod_cls, seed):
    """Random pokes/steps/rewinds leave every backend — and both the fast
    and reference paths on the typed backends — in bit-identical state."""
    d = repro.compile(mod_cls())
    sims = [
        Simulator(d.low, options=SessionOptions(snapshots=16, store=kind, fast=fast))
        for kind in BACKENDS
        for fast in (True, False)
    ]
    for sim in sims:
        sim.reset()
    _rand_drive(sims, random.Random(seed))


# -- wide (>64-bit) signals --------------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_wide_signals_roundtrip(kind):
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
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


@pytest.mark.parametrize("kind", BACKENDS)
def test_wide_watchpoint_and_condition(kind):
    """Watchpoints and compiled breakpoint conditions bind the wide
    overflow dict for >64-bit signals."""
    from repro.core import CONTINUE

    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
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


@pytest.mark.parametrize("kind", BACKENDS)
def test_negative_poke_masks_to_width(kind):
    d = repro.compile(Accumulator())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
    sim.reset()
    sim.poke("d", -1)          # 8-bit input: stores 0xFF, not -1
    assert sim.peek("d") == 0xFF
    sim.poke("d", -2)
    assert sim.peek("d") == 0xFE
    sim.poke("d", 1 << 20)     # oversized: masked to low 8 bits
    assert sim.peek("d") == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_negative_poke_wide_signal(kind):
    d = repro.compile(WideMixer())
    sim = Simulator(d.low, options=SessionOptions(store=kind))
    sim.reset()
    sim.poke("a", -1)
    assert sim.peek("a") == (1 << 96) - 1


# -- snapshots on typed stores -----------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("mod_cls", [Counter, WideMixer])
def test_rewind_across_keyframe_boundary(kind, mod_cls):
    """With a small ring, old keyframes are folded forward on eviction;
    rewinding to the oldest retained time must reconstruct exactly, then
    re-execution must reproduce the original run."""
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=4, store=kind))
    ref = Simulator(d.low, options=SessionOptions(snapshots=0, store="list"))
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


@pytest.mark.parametrize("kind", BACKENDS)
def test_snapshot_skips_mem_copy_when_no_memories(kind):
    """Bugfix: designs without memories must not pay for (empty) memory
    keyframes or the journaling tick variant."""
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(snapshots=8, store=kind))
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


def test_state_digest_backend_independent():
    d = repro.compile(Accumulator())
    digests = set()
    for kind in BACKENDS:
        sim = Simulator(d.low, options=SessionOptions(store=kind))
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 7)
        sim.step(5)
        digests.add(sim.state_digest())
    assert len(digests) == 1


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


def test_store_digest_bytes_uses_raw_buffer():
    d = repro.compile(Counter())
    for kind in BACKENDS:
        sim = Simulator(d.low, options=SessionOptions(store=kind))
        store = make_store(kind, sim.design)
        blob = store.digest_bytes()
        assert isinstance(blob, bytes)
        assert len(blob) >= 8 * len(store)


# -- RLE codec: vectorized run detection vs the pure-python reference -------
#
# NumpyStore.encode_rle finds run breaks with one ``diff`` over the
# changed-index array; the ListStore codec walks the sorted dict.  These
# micro-tests pin the two against each other on the adversarial change
# patterns: every-signal (one maximal run), alternating (no two indices
# adjacent — worst case for run detection), and a single change.


def _rle_roundtrip(kind: str, n: int, changed: dict[int, int]):
    """Apply ``changed`` to a fresh store, capture its native delta, and
    return ``(store, delta, encoded)``."""
    cls = {"list": ListStore, "numpy": NumpyStore}[kind]
    store = cls(n, (), tuple(range(n)))
    base = store.capture_state()
    for i, v in changed.items():
        store[i] = v
    delta = store.state_delta(base)
    return store, delta, store.encode_rle(delta)


def _run_count(kind: str, encoded) -> int:
    runs, _values = encoded
    return len(runs) // 2


@pytest.mark.skipif(not numpy_available(), reason="needs the numpy codec")
@pytest.mark.parametrize(
    ("label", "changed", "runs"),
    [
        ("all-same", {i: 7 for i in range(64)}, 1),
        ("alternating", {i: i + 1 for i in range(0, 64, 2)}, 32),
        ("single-change", {17: 0xDEAD}, 1),
        ("two-runs", {**{i: 1 for i in range(4)},
                      **{i: 2 for i in range(40, 44)}}, 2),
        ("empty", {}, 0),
    ],
)
def test_encode_rle_vectorized_matches_reference(label, changed, runs):
    n = 64
    _ref_store, ref_delta, ref_enc = _rle_roundtrip("list", n, changed)
    np_store, np_delta, np_enc = _rle_roundtrip("numpy", n, changed)

    # Identical logical content, identical run structure.
    assert np_store.rle_pairs(np_enc) == ListStore.rle_pairs(ref_enc)
    assert np_store.rle_pairs(np_enc) == sorted(changed.items())
    assert _run_count("numpy", np_enc) == _run_count("list", ref_enc) == runs

    # And both replay onto a captured buffer to the same bytes.
    for store, enc in ((_ref_store, ref_enc), (np_store, np_enc)):
        saved = store.copy_narrow()
        for i in changed:
            saved[i] = 0  # scribble over the changed lanes
        store.apply_rle(saved, enc)
        assert list(saved) == list(store.narrow), label


@pytest.mark.skipif(not numpy_available(), reason="needs the numpy codec")
def test_encode_rle_random_patterns_match_reference():
    rng = random.Random(2024)
    n = 256
    for _trial in range(25):
        changed = {
            i: rng.getrandbits(64)
            for i in rng.sample(range(n), rng.randint(0, n))
        }
        _ls, _ld, ref_enc = _rle_roundtrip("list", n, changed)
        ns, _nd, np_enc = _rle_roundtrip("numpy", n, changed)
        assert ns.rle_pairs(np_enc) == ListStore.rle_pairs(ref_enc)
        assert _run_count("numpy", np_enc) == _run_count("list", ref_enc)


def test_default_path_loads_no_numpy():
    """Only a NumpyStore imports numpy: importing the simulator, the
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
    env.pop("REPRO_VALUE_STORE", None)  # a default Simulator, whatever the job pins
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        env=env,
    )
    assert out.stdout.strip() == "False"
