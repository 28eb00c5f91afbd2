"""Timeline compression: rewind-window length at fixed memory.

The ``repro.sim.timeline`` subsystem stores reverse-debug history as one
head keyframe plus per-cycle deltas; the codec decides the delta
representation.  The seed ring's ``raw`` codec keeps the
``{index: value}`` dicts — ~100+ bytes per changed signal once the dict
table and two boxed ints are counted.  The ``rle`` codec collapses the
consecutively-allocated register block of a module into ``(start,
count)`` runs over a flat typed value buffer — ~8 bytes per changed
signal plus a constant per run.

On a *register-sparse* design (many state signals, a small adjacent
block of free-running registers actually changing per cycle) that
difference is the whole ballgame for reverse debugging: at an equal byte
budget the rle timeline must retain a **>= 8x longer** ``set_time``
window than the raw ring (the acceptance bar, asserted outside smoke
mode), with rewind results bit-identical across codecs and to the
reference path.

Also reported (no hard bar — wall-clock): rewind latency to the newest
retained cycle with and without periodic keyframes (``keyframe_every``),
which bounds reconstruction to K delta replays instead of the whole
window.
"""

from __future__ import annotations

import os

import repro
import repro.hgf as hgf
from repro.sim import SessionOptions, Simulator

from conftest import best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_BUDGET = (24 if _SMOKE else 192) * 1024
_CYCLES = 200 if _SMOKE else 4000
_LAT_WINDOW = 64 if _SMOKE else 512


class _RegisterSparse(hgf.Module):
    """The register-sparse scenario: a wide state vector (inputs held
    constant) plus one adjacent block of free-running counters.  Every
    cycle changes exactly the counter block — consecutive value-table
    indices, the rle codec's best honest case and the raw dict's worst.
    """

    def __init__(self, n_regs: int = 96, n_inputs: int = 128):
        super().__init__()
        ins = [self.input(f"i{k}", 16) for k in range(n_inputs)]
        self.o = self.output("o", 16)
        # Declare the whole register block first: registers allocate
        # consecutive signal indices only if nothing interleaves.
        regs = [self.reg(f"r{j}", 16, init=j) for j in range(n_regs)]
        for j, r in enumerate(regs):
            r <<= (r + self.lit(2 * j + 1, 16))[15:0]
        # Fold through explicit wires (declared after the register block,
        # so register indices stay adjacent): one stage per term keeps
        # the generated expressions flat.
        acc = self.lit(0, 16)
        for k, p in enumerate(ins):
            stage = self.wire(f"s{k}", 16)
            stage <<= (acc ^ p)[15:0]
            acc = stage
        for j, r in enumerate(regs):
            stage = self.wire(f"t{j}", 16)
            stage <<= (acc ^ r)[15:0]
            acc = stage
        self.o <<= acc


def _windows_at_budget(design):
    """Run the same free-running workload under both codecs at one byte
    budget; returns {codec: sim}."""
    sims = {}
    for codec in ("raw", "rle"):
        sim = Simulator(
            design.low,
            options=SessionOptions(snapshot_bytes=_BUDGET, snapshot_codec=codec),
        )
        sim.reset()
        sim.step(_CYCLES)
        sims[codec] = sim
    return sims


def test_timeline_window_at_fixed_memory(capsys):
    """The tentpole bar: >= 8x longer retained window at equal bytes."""
    design = repro.compile(_RegisterSparse())
    sims = _windows_at_budget(design)
    windows = {}
    for codec, sim in sims.items():
        lo, hi = sim.timeline.window()
        windows[codec] = hi - lo + 1
        assert sim.timeline.nbytes <= _BUDGET

    # Bit-identical rewinds wherever both windows overlap.
    common = sorted(
        set(sims["raw"].timeline.times()) & set(sims["rle"].timeline.times())
    )
    assert common, "raw and rle windows must overlap"
    for t in (common[0], common[len(common) // 2], common[-1]):
        for sim in sims.values():
            sim.set_time(t)
        assert (
            sims["raw"].values.as_list() == sims["rle"].values.as_list()
        ), f"codec rewinds diverged at cycle {t}"

    ratio = windows["rle"] / windows["raw"]
    n_state = len(sims["raw"].design.state_indices)
    with capsys.disabled():
        print(
            f"\n=== timeline: rewind window at fixed memory "
            f"({_BUDGET // 1024} KiB budget, {n_state} state signals, "
            f"96-register active block, {_CYCLES} cycles) ===\n"
            f"raw ring (dict deltas):  {windows['raw']:6d} cycles retained "
            f"({sims['raw'].timeline.nbytes / 1024:7.1f} KiB)\n"
            f"rle timeline (runs):     {windows['rle']:6d} cycles retained "
            f"({sims['rle'].timeline.nbytes / 1024:7.1f} KiB)\n"
            f"window ratio: {ratio:.1f}x (bar: >= 8x)"
        )
    if not _SMOKE:
        assert ratio >= 8.0, f"rle window only {ratio:.1f}x the raw ring"


def test_timeline_rewind_bit_identical_to_reference(capsys):
    """The rle codec with periodic keyframes rewinds the bench scenario to
    the same bits as the raw ring on the reference path (the full
    schedule matrix lives in the property suite; this pins the bench
    design itself)."""
    design = repro.compile(_RegisterSparse(n_regs=16, n_inputs=16))
    lanes = (
        SessionOptions(snapshots=64, snapshot_codec="rle", keyframe_every=16),
        SessionOptions(snapshots=64, fast=False),
    )
    sims = []
    for options in lanes:
        sim = Simulator(design.low, options=options)
        sim.reset()
        sim.step(100 if not _SMOKE else 30)
        sims.append(sim)
    times = sims[0].timeline.times()
    assert sims[1].timeline.times() == times
    for t in (times[0], times[len(times) // 2], times[-1]):
        states = []
        for sim in sims:
            sim.set_time(t)
            states.append(sim.values.as_list())
        assert states[0] == states[1], f"rewinds diverged at cycle {t}"
    with capsys.disabled():
        print(
            f"\n=== timeline: rle rewinds bit-identical to the reference "
            f"===\nok ({len(times)} retained cycles)"
        )


def test_timeline_rewind_latency_report(capsys):
    """Periodic keyframes bound rewind reconstruction: reaching the
    newest retained cycle replays every delta of the window behind the
    head keyframe without them, at most ``keyframe_every`` with them.
    (The oldest cycle is always the head keyframe, which replays none
    either way.)  Reported for sizing guidance (docs/time_travel.md); no
    hard bar — wall-clock and machine dependent."""
    design = repro.compile(_RegisterSparse())
    timings = {}
    for label, kf in (("no keyframes", 0), ("keyframe every 32", 32)):
        sim = Simulator(
            design.low,
            options=SessionOptions(
                snapshots=_LAT_WINDOW,
                snapshot_codec="rle",
                keyframe_every=kf,
            ),
        )
        sim.reset()
        sim.step(_LAT_WINDOW + 50)
        oldest = sim.timeline.times()[0]
        newest = sim.timeline.times()[-1]

        def from_head(sim=sim, newest=newest, oldest=oldest):
            sim.set_time(oldest)
            return (newest,)

        timings[label] = best_of(sim.set_time, n=3, setup=from_head)
        assert sim.get_time() == newest
    with capsys.disabled():
        lines = "\n".join(
            f"{label:20s} {t * 1e6:9.0f} us/rewind"
            for label, t in timings.items()
        )
        print(
            f"\n=== timeline: rewind-to-newest latency "
            f"({_LAT_WINDOW}-cycle window) ===\n{lines}"
        )
