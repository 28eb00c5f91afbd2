"""Hits a ``HitRecorder`` keeps, recorded inside the native kernel.

A runtime whose hits only go to a ``HitRecorder`` registers its clock
callback with a record program, and the kernel records each hit and keeps
running.  Most cases here run three twins and compare what each kept:
a stimulus tape (the kernel records), the same rows poked from Python on
the fast engine, and the ``fast=False`` reference.  The cases the kernel
leaves to Python (an ignore count, a wide frame value, a second
recorder, a handler that is not a recorder) must record nothing natively
and still agree.
"""

from __future__ import annotations

import pytest

import repro
import repro.hgf as hgf
from repro.core import CONTINUE, HitRecorder, Runtime
from repro.hub import SessionOptions
from repro.shard import BreakpointSpec, ShardSpec, make_stimulus, run_shard
from repro.sim import Simulator, native
from repro.sim.interface import RecordProgram, SimulatorError
from repro.symtable import SQLiteSymbolTable, in_memory, write_symbol_table
from tests.helpers import Accumulator, TwoLeaves, line_of

needs_cc = pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)

CYCLES = 400


class WideScope(hgf.Module):
    """A breakpoint whose frame holds a 100-bit register."""

    def __init__(self):
        super().__init__()
        self.d = self.input("d", 8)
        big = self.reg("big", 100, init=0)
        big <<= (big + self.d)[99:0]


@pytest.fixture(scope="module")
def acc():
    design = repro.compile(Accumulator())
    return design, in_memory(SQLiteSymbolTable(write_symbol_table(design)))


def _twin(design, table, conditions, kind, sink=None, ignore=0, at="acc"):
    """A reset simulator with a runtime breaking at the line assigning
    ``at`` once per condition (a ``(name, condition)`` pair breaks at the
    line assigning ``name``), its hits going to ``sink`` (a fresh
    ``HitRecorder`` by default), and the stimulus for ``kind``: ``tape``,
    ``pokes`` (the same rows from a plain function) or ``reference``
    (``fast=False``).  Returns (simulator, runtime, sink, stimulus)."""
    sink = HitRecorder() if sink is None else sink
    sim = Simulator(design.low, options=SessionOptions(fast=kind != "reference"))
    rt = Runtime(sim, table, sink)
    rt.attach()
    sim.reset()
    for cond in conditions:
        name, cond = cond if isinstance(cond, tuple) else (at, cond)
        for bp in rt.add_breakpoint(*line_of(design, name), condition=cond):
            if ignore:
                rt.ignore(bp.id, ignore)
    stimulus = make_stimulus(sim, ShardSpec(0, seed=3, cycles=CYCLES))
    if kind == "pokes":
        rows = stimulus

        def stimulus(s, cycle):
            rows(s, cycle)

    return sim, rt, sink, stimulus


def _kept(recorder: HitRecorder):
    plans = {bp: plan.to_wire() for bp, plan in recorder.plans.items()}
    return recorder.hits, plans, recorder.records


def _stats(rt):
    return (
        [bp.hit_count for bp in rt.list_breakpoints()],
        rt.stats_bp_evals,
        rt.stats_callbacks,
        rt.attached,
    )


def _three(design, table, conditions, limit=None, ignore=0, at="acc"):
    """Run the three twins; assert they agree and return the tape twin's
    simulator, runtime and recorder."""
    out = []
    for kind in ("tape", "pokes", "reference"):
        sim, rt, rec, stimulus = _twin(
            design, table, conditions, kind, HitRecorder(limit=limit), ignore, at
        )
        beats = []
        ran = sim.run_cycles(
            CYCLES, stimulus, on_progress=lambda s, n, b=beats: b.append(n),
            progress_every=16,
        )
        out.append((sim, rt, rec, (ran, beats, sim.state_digest(), sim.get_time())))
    (sim, rt, rec, ends), *others = out
    for other_sim, other_rt, other_rec, other_ends in others:
        assert other_ends == ends
        assert _kept(other_rec) == _kept(rec)
        assert _stats(other_rt) == _stats(rt)
        assert other_sim.stats()["native_hits"] == 0
    return sim, rt, rec


@needs_cc
def test_the_kernel_records_what_python_records(acc):
    design, table = acc
    sim, rt, rec = _three(design, table, ["d < 40"])
    assert isinstance(rt._cb_wake, RecordProgram)
    assert len(rec) > 10
    # Reset runs no hit (en is 0), so the kernel recorded every one.
    assert sim.stats()["native_hits"] == len(rec)
    assert sim.stats()["native_wakes"] == 0
    assert sim.stats()["native_cycles"] == CYCLES


@needs_cc
def test_two_groups(acc):
    """Breakpoints at two lines are two scheduling groups: a cycle where
    both hold keeps two rows, in group order."""
    design, table = acc
    sim, _rt, rec = _three(design, table, [("acc", "d < 60"), ("total", "acc > 9")])
    times = [time for time, _frames in rec.hits]
    assert len(times) > len(set(times)), "some cycle hits in both groups"
    assert sim.stats()["native_hits"] == len(rec)


@needs_cc
def test_two_breakpoints_in_one_group():
    """One line in two instances is one scheduling group: a row carries a
    frame for each instance whose condition held."""
    design = repro.compile(TwoLeaves())
    table = in_memory(SQLiteSymbolTable(write_symbol_table(design)))
    sim, _rt, rec = _three(design, table, [("o", "i > 6")])
    sizes = {len(frames) for _time, frames in rec.hits}
    assert sizes == {1, 2}
    assert sim.stats()["native_hits"] == len(rec)


@needs_cc
@pytest.mark.parametrize("limit", [0, 1, 2, 7])
def test_a_limit_leaves_the_detaching_hit_to_python(acc, limit):
    """The kernel records the hits before the one that reaches the limit;
    Python runs that hit's cycle and detaches exactly where the Python
    path does."""
    design, table = acc
    sim, rt, rec = _three(design, table, ["d < 40"], limit=limit)
    assert len(rec) == max(limit, 1)
    assert not rt.attached
    assert sim.stats()["native_hits"] == max(limit - 1, 0)


@needs_cc
def test_an_ignore_count_keeps_the_python_path(acc):
    design, table = acc
    sim, rt, rec = _three(design, table, ["d < 40"], ignore=3)
    assert not isinstance(rt._cb_wake, RecordProgram)
    assert sim.stats()["native_hits"] == 0
    hits = [bp.hit_count for bp in rt.list_breakpoints()]
    assert len(rec) == hits[0] - 3


@needs_cc
def test_a_wide_frame_value_keeps_the_wake_path():
    design = repro.compile(WideScope())
    table = in_memory(SQLiteSymbolTable(write_symbol_table(design)))
    sim, rt, rec = _three(design, table, ["d < 40"], at="big")
    assert rt._cb_wake is not None and not isinstance(rt._cb_wake, RecordProgram)
    assert len(rec) > 10
    assert sim.stats()["native_hits"] == 0
    assert sim.stats()["native_wakes"] > 0


@needs_cc
def test_two_recording_runtimes_on_one_simulator(acc):
    """The first recorder registered records in the kernel; the second
    keeps its wake, and the cycles it wakes on run in Python for both."""
    design, table = acc
    kept = []
    for kind in ("tape", "pokes"):
        sim, first, one, stimulus = _twin(design, table, ["d < 40"], kind)
        two = HitRecorder()
        second = Runtime(sim, table, two)
        second.attach()
        second.add_breakpoint(*line_of(design, "acc"), condition="d > 200")
        sim.run_cycles(CYCLES, stimulus)
        kept.append((_kept(one), _kept(two), _stats(first), _stats(second)))
        stats = stats if kind == "pokes" else sim.stats()
    assert kept[0] == kept[1]
    assert kept[0][1][0], "the second recorder hits too"
    assert 0 < stats["native_hits"] <= len(kept[0][0][0])
    assert stats["native_wakes"] > 0


@needs_cc
def test_replacing_the_handler_rederives_the_callback(acc):
    design, table = acc
    sim, rt, rec, _stimulus = _twin(design, table, ["d < 40"], "tape")
    program = rt._cb_wake
    assert isinstance(program, RecordProgram)
    rt.add_breakpoint(*line_of(design, "acc"), condition="d > 250")
    assert isinstance(rt._cb_wake, RecordProgram) and rt._cb_wake is not program
    again = rt._cb_wake
    rt._update_armed()  # nothing changed: the same program stays registered
    assert rt._cb_wake is again
    rt.on_hit = lambda hit: CONTINUE
    assert isinstance(rt._cb_wake, tuple)
    rt.on_hit = rec
    assert isinstance(rt._cb_wake, RecordProgram)
    assert isinstance(sim._record[0], RecordProgram)


@needs_cc
def test_a_breakpoint_inserted_again_gets_its_own_program(acc):
    """Removing a breakpoint and inserting it again makes a new breakpoint
    object, equal field for field: the kernel's hits must count on it."""
    design, table = acc
    sim, rt, rec, stimulus = _twin(design, table, ["d < 40"], "tape")
    program = rt._cb_wake
    (old,) = rt.list_breakpoints()
    rt.remove_breakpoint(old.id)
    (new,) = rt.add_breakpoint(*line_of(design, "acc"), condition="d < 40")
    assert new == old and new is not old
    assert isinstance(rt._cb_wake, RecordProgram) and rt._cb_wake is not program
    sim.run_cycles(CYCLES, stimulus)
    assert new.hit_count == len(rec) == sim.stats()["native_hits"] > 0
    assert old.hit_count == 0


@needs_cc
@pytest.mark.parametrize("hits", ["record", "row"])
def test_streamed_hits_keep_their_place_among_progress_events(acc, hits):
    """A shard's event stream (hit lines, with each plan on its first hit,
    then heartbeats and progress at a pinned cadence) is the same whether
    the kernel or Python recorded the hits."""
    design, table = acc
    spec = ShardSpec(
        0, seed=9, cycles=CYCLES, progress_every=25,
        breakpoints=(BreakpointSpec(*line_of(design, "acc"), condition="d < 40"),),
    )
    streams = []
    for fast in (True, False):
        seen = []
        res = run_shard(
            design.low, table, spec, emit=seen.append, fast=fast, obs="metrics",
            hits=hits,
        )
        metrics = {m["name"]: m.get("value") for m in res.obs["metrics"]["metrics"]}
        streams.append(
            ([e for e in seen if e["event"] != "stats"], metrics["sim_native_hits_total"])
        )
    (kernel, native_hits), (python, python_hits) = streams
    assert kernel == python
    assert [e["event"] for e in kernel].count("hit") > 10
    assert native_hits > 0 and python_hits == 0


def test_malformed_record_programs_are_rejected(acc):
    design, _table = acc
    sim = Simulator(design.low)
    wake = ("==", ("sig", 0), ("num", 0))

    def program(*members):
        return RecordProgram((members,), adopt=lambda rows: None)

    for bad in (
        program(("a", None, (0,))),  # no wake
        program(("a", wake, (len(sim.design.signals),))),
        program(("a", wake, (-1,))),
    ):
        with pytest.raises(SimulatorError):
            sim.add_clock_callback(lambda s: None, bad)
    assert sim._cb_list == () and sim._record is None


def test_without_a_kernel_the_program_is_a_wake():
    """A backend that does not run the program treats it as the OR of its
    members' wakes."""
    a, b = ("sig", 1), ("==", ("sig", 2), ("num", 3))
    program = RecordProgram(((("x", a, ()), ("y", b, (1,))),), lambda rows: None)
    assert program.wake == ("||", a, b)
    assert RecordProgram((), lambda rows: None).wake is None


@needs_cc
def test_the_kernel_refuses_a_record_buffer_too_small(acc):
    """The buffer must hold every member on every cycle of the call before
    its address reaches C."""
    from array import array

    design, _table = acc
    sim = Simulator(design.low)
    wake = ("==", ("sig", 0), ("num", 0))
    buf = native.record_program(
        RecordProgram(((("a", wake, (0, 1)),),), adopt=lambda rows: None), sim.design
    )
    assert buf.prepare(10, None) == 10
    kernel = native.kernel_for(sim.design)
    brk, prog = array("q", [0]), array("q", [0, 0])
    empty = native.wake_program((), sim.design)
    with pytest.raises(SimulatorError, match="record buffer"):
        kernel.run(sim._v, sim._w, sim.mems, 11, brk, prog, empty, None, buf)
    kernel.run(sim._v, sim._w, sim.mems, 10, brk, prog, empty, None, buf)
    assert prog[0] == 10
