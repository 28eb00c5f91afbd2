"""The paper's CPU, cycle by cycle, across every engine tier: the
reference (``fast=False``) against the default fast path (alone and
recording a timeline of 2 entries, of 64, or longer than the whole run)
and the native free-run tier behind ``run()``, plus a default run with a Runtime that goes idle,
then armed, then idle again, both stepped and run, and the whole suite
with breakpoints armed, run natively against stepped, with and without a
64-entry timeline."""

import inspect

import pytest

import repro
from repro.core import CONTINUE, DETACH, STEP, Runtime
from repro.cpu import RV32Core, assemble, benchmark_by_name, build_suite
from repro.hub import SessionOptions
from repro.sim import Simulator, compile_design, native
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import line_of

CHUNK = 64

#: configuration id -> (fast, timeline options).  ``timeline-2`` folds its
#: head forward on every cycle; ``timeline-whole-run`` outlasts the longest
#: program (1,011 cycles), never evicts and rewinds back to the reset.
CONFIGS = {
    "oracle": (False, {}),
    "default": (True, {}),
    "timeline": (True, {"snapshots": 64}),
    "timeline-2": (True, {"snapshots": 2}),
    "timeline-whole-run": (True, {"snapshots": 4096}),
}


@pytest.fixture(scope="module", params=["vvadd", "median", "spmv"])
def program(request):
    bench = benchmark_by_name(request.param)
    design = repro.compile(RV32Core(assemble(bench.source).words, 8192))
    return bench, design, compile_design(design.low)


def _sim(program, fast, **timeline):
    _bench, design, compiled = program
    sim = Simulator(
        design.low, compiled=compiled, options=SessionOptions(fast=fast, **timeline)
    )
    sim.reset()
    return sim


def _lockstep(oracle, sim, between=None, advance="step"):
    """Step both to completion, comparing digests every CHUNK cycles;
    ``between(chunk_index)`` runs before each chunk, and ``sim`` advances
    by its ``advance`` method (``step`` or ``run``)."""
    chunk = 0
    while not oracle.finished:
        if between is not None:
            between(chunk)
        oracle.step(CHUNK)
        getattr(sim, advance)(CHUNK)
        chunk += 1
        assert sim.get_time() == oracle.get_time()
        assert sim.state_digest() == oracle.state_digest(), sim.get_time()
    assert sim.finished and sim.exit_code == oracle.exit_code == 0


@pytest.mark.parametrize("config", list(CONFIGS))
def test_tier_matches_reference(program, config):
    bench = program[0]
    fast, timeline = CONFIGS[config]
    oracle = _sim(program, False)
    sim = _sim(program, fast, **timeline)
    _lockstep(oracle, sim)
    assert sim.peek("tohost") == bench.expected
    if timeline:
        end = oracle.get_time()
        assert len(sim.timeline) == min(timeline["snapshots"], end)
        assert sim.stats()["timeline_evictions"] == end - len(sim.timeline)
        # Rewind to the oldest retained cycle and re-execute to the end.
        # Cycle 0 is the reset cycle, and a rewind restores the inputs as
        # they were then: re-executing from it resets again, as the
        # original run did.
        t = sim.timeline.times()[0]
        sim.set_time(t)
        if t == 0:
            sim.reset()
        sim.step(end - sim.get_time())
        assert sim.state_digest() == oracle.state_digest()


@pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)
def test_native_run_matches_reference(program):
    """The default engine advanced by ``run()``: the native kernel."""
    bench = program[0]
    oracle = _sim(program, False)
    sim = _sim(program, True)
    _lockstep(oracle, sim, advance="run")
    assert sim.peek("tohost") == bench.expected
    assert sim.stats()["native_cycles"] > 0


def test_runtime_idle_armed_idle_matches_reference(program):
    _idle_armed_idle(program, "step")


def test_runtime_idle_armed_idle_run_matches_reference(program):
    """As above, advanced by ``run()``: native while idle, Python while
    armed."""
    _idle_armed_idle(program, "run")


def _idle_armed_idle(program, advance):
    bench, design, _compiled = program
    oracle = _sim(program, False)
    sim = _sim(program, True)
    rt = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)))
    rt.attach()
    attached_at = sim.get_time()
    armed = []

    def between(chunk):
        # idle for two chunks, armed (never-true condition) for two, then
        # idle again for the rest of the program
        if chunk == 2:
            armed.extend(
                rt.add_breakpoint(
                    *line_of(design, "pc"), condition="pc == 0xFFFFFFF0"
                )
            )
        elif chunk == 4:
            for bp in armed:
                rt.remove_breakpoint(bp.rec.id)
        assert bool(sim._cb_list) == (2 <= chunk < 4)

    _lockstep(oracle, sim, between, advance)
    assert sim.peek("tohost") == bench.expected
    assert rt.stats_bp_evals > 0
    assert not any(bp.hit_count for bp in armed)
    # one per posedge while attached, armed or not
    assert rt.stats_callbacks == sim.get_time() - attached_at
    if advance == "run" and native._compiler()[1] is not None:
        assert sim.stats()["native_cycles"] > 0


# -- armed breakpoints on the whole suite: native run() against step() ------

def _writeback_line() -> tuple[str, int]:
    """(file, line) of the register-file writeback in the CPU source."""
    lines, first = inspect.getsourcelines(RV32Core)
    at = next(i for i, text in enumerate(lines) if "regs.write(rd, wb_val" in text)
    return inspect.getsourcefile(RV32Core), first + at


WRITEBACK = _writeback_line()


@pytest.fixture(scope="module")
def suite():
    out = []
    for bench in build_suite():
        design = repro.compile(RV32Core(assemble(bench.source).words, 8192))
        table = SQLiteSymbolTable(write_symbol_table(design))
        out.append((bench, design, compile_design(design.low), table))
    return out


def _arm(*conditions, ignore=0, watch=None, **runtime_opts):
    """Arm one runtime per condition on the writeback line (each ignoring
    its first ``ignore`` hits, and watching ``watch`` when given); hits
    record (runtime, hit record, native cycles so far)."""

    def arm(sim, table, hits):
        rts = []
        for k, cond in enumerate(conditions):

            def on_hit(hit, k=k):
                hits.append((k, hit.to_record(), sim.stats()["native_cycles"]))
                return CONTINUE

            rt = Runtime(sim, table, on_hit, **runtime_opts)
            rt.attach()
            for bp in rt.add_breakpoint(*WRITEBACK, condition=cond):
                bp.ignore_count = ignore
            if watch is not None:
                rt.add_watchpoint(watch)
            rts.append(rt)
        return rts

    return arm


def _step_then_detach(sim, table, hits):
    """Step through 30 stops from the first hit on, then detach."""

    def on_hit(hit):
        hits.append((0, hit.to_record(), sim.stats()["native_cycles"]))
        return STEP if len(hits) < 30 else DETACH

    rt = Runtime(sim, table, on_hit)
    rt.attach()
    rt.add_breakpoint(*WRITEBACK, condition="wb_val == 7")
    return [rt]


def _armed_suite(suite, arm, advance, options=None):
    """Every program armed by ``arm`` before reset and advanced to the end
    by ``run(200_000)`` or by ``step()``: per program, what a debugger
    observes (with a timeline, its retained cycles and the state at the
    oldest, which folds in every memory write before it), and the native
    cycles of the whole suite."""
    out, native_cycles = [], 0
    for bench, design, compiled, table in suite:
        sim = Simulator(design.low, compiled=compiled, options=options)
        hits = []
        rts = arm(sim, table, hits)
        sim.reset()
        if advance == "run":
            assert sim.run(200_000) == 0
        else:
            while not sim.finished:
                sim.step(1024)
        assert sim.peek("tohost") == bench.expected
        out.append(
            (
                [(k, rec) for k, rec, _native in hits],
                [[bp.hit_count for bp in rt.list_breakpoints()] for rt in rts],
                [rt.stats_bp_evals for rt in rts],
                [rt.stats_callbacks for rt in rts],
                [rt.warnings for rt in rts],
                sim.get_time(),
                sim.state_digest(),
                sim.timeline and sim.timeline.times(),
            )
        )
        native_cycles += sim.stats()["native_cycles"]
        if sim.timeline is not None:
            sim.set_time(sim.timeline.times()[0])
            out[-1] += (sim.state_digest(),)
        if advance == "run" and arm is _step_then_detach and hits:
            # nothing ran natively from the first stop until the detach
            assert {native for _k, _rec, native in hits} == {hits[0][2]}
    return out, native_cycles


NATIVE = {
    "never": (_arm("pc == 0xFFFFFFF0"), 0),
    "rare": (_arm("wb_val == 7"), 123),
    "frequent": (_arm("rd == 5 && pc > 0x40"), 4930),
    "ignore": (_arm("wb_val == 7", ignore=3), 101),  # 3 fewer per program
    "two runtimes": (_arm("wb_val == 7", "rd == 5 && pc > 0x40"), 123 + 4930),
}
PYTHON = {
    "untranslatable": _arm("pc + 4 == 8"),
    "watchpoint": _arm("wb_val == 7", watch="tohost"),
    "step mode": _step_then_detach,
    "compile_conditions=False": _arm("wb_val == 7", compile_conditions=False),
}


@pytest.mark.parametrize("scenario", list(NATIVE))
def test_armed_suite_run_matches_stepping(suite, scenario):
    """Hit times and frames, hit counts, evaluations and the final state
    are the same whether the kernel stood in for the idle cycles or not."""
    arm, hits = NATIVE[scenario]
    stepped, _ = _armed_suite(suite, arm, "step")
    ran, native_cycles = _armed_suite(suite, arm, "run")
    assert ran == stepped
    assert sum(len(program[0]) for program in ran) == hits
    if scenario in ("never", "rare") and native._compiler()[1] is not None:
        assert native_cycles > 0


@pytest.mark.parametrize("scenario", list(NATIVE))
def test_armed_suite_run_matches_stepping_under_a_timeline(suite, scenario):
    """The same with 64 snapshots: after each native segment ``run()``
    re-executes the window's cycles into the timeline, which must retain
    what stepping recorded."""
    arm, hits = NATIVE[scenario]
    options = SessionOptions(snapshots=64)
    stepped, _ = _armed_suite(suite, arm, "step", options)
    ran, native_cycles = _armed_suite(suite, arm, "run", options)
    assert ran == stepped
    assert sum(len(program[0]) for program in ran) == hits
    assert all(len(program[-2]) == 64 for program in ran)
    if native._compiler()[1] is not None:
        assert native_cycles > 0


@pytest.mark.parametrize("piece", [37, 1000])
def test_sliced_native_runs_refill_the_timeline(suite, monkeypatch, piece):
    """Under a timeline the kernel runs a slice at a time, checkpointed
    before each, and the window is re-executed from the last checkpoint
    before it: with slices shorter and longer than the 64-entry window,
    the result is still what stepping records."""
    monkeypatch.setattr(native, "SLICE", piece)
    arm, hits = NATIVE["rare"]
    options = SessionOptions(snapshots=64)
    stepped, _ = _armed_suite(suite, arm, "step", options)
    ran, native_cycles = _armed_suite(suite, arm, "run", options)
    assert ran == stepped
    assert sum(len(program[0]) for program in ran) == hits
    if native._compiler()[1] is not None:
        assert native_cycles > 0


@pytest.mark.parametrize("scenario", list(PYTHON))
def test_armed_suite_stays_python_without_a_wake(suite, scenario):
    stepped, _ = _armed_suite(suite, PYTHON[scenario], "step")
    ran, native_cycles = _armed_suite(suite, PYTHON[scenario], "run")
    assert ran == stepped
    if scenario != "step mode":
        assert native_cycles == 0
