"""Timeline sizing: what ``snapshots=N`` costs on the paper's CPU.

The ``repro.sim.timeline`` subsystem keeps a live simulation's last N
cycles as one head keyframe plus one ``{index: value}`` state delta per
cycle (with the memory words the cycle wrote).  On qsort's debug build,
the program ``rv32-interactive`` debugs, the keyframe is mostly the
8192-word main memory, and a delta is the handful of state signals and
register-file words one cycle changes.

Reported, with no bar (wall-clock and machine dependent): for each N,
the head keyframe's bytes, the bytes per further retained cycle, and the
latency of a rewind to the newest retained cycle (N - 1 delta replays
from the head keyframe) and to the oldest (the keyframe alone), after a
``run()`` to completion.  Asserted: every retained cycle rewinds to the
same state as on the ``fast=False`` reference.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.sim import SessionOptions, Simulator, compile_design

from conftest import best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_WINDOWS = (64,) if _SMOKE else (64, 256, 1024)


@pytest.fixture(scope="module")
def qsort_debug():
    bench = benchmark_by_name("qsort")
    design = repro.compile(RV32Core(assemble(bench.source).words, 8192), debug=True)
    return design, compile_design(design.low)


def _finished(qsort_debug, snapshots: int, fast: bool = True) -> Simulator:
    design, compiled = qsort_debug
    sim = Simulator(
        design.low,
        compiled=compiled,
        options=SessionOptions(snapshots=snapshots, fast=fast),
    )
    sim.reset()
    assert sim.run() == 0
    return sim


def test_timeline_rewind_bit_identical_to_reference(qsort_debug, capsys):
    """A run to completion (native kernel, window refilled in Python)
    retains the same cycles as the reference, and each rewinds to the
    same state.  The full schedule matrix lives in the property suite;
    this pins the bench design itself."""
    sims = [_finished(qsort_debug, 64, fast) for fast in (True, False)]
    times = sims[0].timeline.times()
    assert sims[1].timeline.times() == times
    for t in times:
        digests = []
        for sim in sims:
            sim.set_time(t)
            digests.append(sim.state_digest())
        assert digests[0] == digests[1], f"rewinds diverged at cycle {t}"
    with capsys.disabled():
        print(
            f"\n=== timeline: rewinds bit-identical to the reference "
            f"===\nok ({len(times)} retained cycles)"
        )


def test_timeline_sizing_report(qsort_debug, capsys):
    """Bytes per retained cycle and rewind latency under ``snapshots=N``
    (docs/time_travel.md's sizing note)."""
    rows = []
    for n in _WINDOWS:
        sim = _finished(qsort_debug, n)
        tl = sim.timeline
        assert len(tl) == n
        head = tl._entry_nbytes(tl.entries[0])
        per_cycle = (tl.nbytes - head) / (n - 1)
        oldest, newest = tl.window()

        def from_oldest(sim=sim, oldest=oldest, newest=newest):
            sim.set_time(oldest)
            return (newest,)

        def from_newest(sim=sim, oldest=oldest, newest=newest):
            sim.set_time(newest)
            return (oldest,)

        to_newest = best_of(sim.set_time, setup=from_oldest)
        to_oldest = best_of(sim.set_time, setup=from_newest)
        rows.append((n, tl.nbytes, head, per_cycle, to_newest, to_oldest))
    with capsys.disabled():
        lines = "\n".join(
            f"{n:6d} {total / 1024:10.1f} {head / 1024:9.1f} {per:10.0f} "
            f"{new * 1e6:14.0f} {old * 1e6:14.0f}"
            for n, total, head, per, new, old in rows
        )
        print(
            "\n=== timeline: snapshots=N on qsort (debug build, run to "
            "completion) ===\n"
            f"{'N':>6} {'retained':>10} {'keyframe':>9} {'B/cycle':>10} "
            f"{'to newest':>14} {'to oldest':>14}\n"
            f"{'':>6} {'(KiB)':>10} {'(KiB)':>9} {'':>10} "
            f"{'(us/rewind)':>14} {'(us/rewind)':>14}\n"
            f"{lines}"
        )
