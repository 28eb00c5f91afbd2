"""The paper's CPU, cycle by cycle, across every engine tier and value
store: the reference (list store, ``fast=False``) against the list-store
default, the typed-array store and the numpy store, the native free-run
tier behind ``run()``, plus a default run with a Runtime that goes idle,
then armed, then idle again, both stepped and run."""

import pytest

import repro
from repro.core import Runtime
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.hub import SessionOptions
from repro.sim import Simulator, compile_design, native, numpy_available
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import line_of

CONFIGS = [
    ("list", False),  # the oracle
    ("list", True),  # the default
    ("array", True),
    pytest.param(
        "numpy",
        True,
        marks=pytest.mark.skipif(not numpy_available(), reason="needs numpy"),
    ),
]
CHUNK = 64


@pytest.fixture(scope="module", params=["vvadd", "median", "spmv"])
def program(request):
    bench = benchmark_by_name(request.param)
    design = repro.compile(RV32Core(assemble(bench.source).words, 8192))
    return bench, design, compile_design(design.low)


def _sim(program, store, fast):
    _bench, design, compiled = program
    sim = Simulator(
        design.low,
        compiled=compiled,
        options=SessionOptions(store=store, fast=fast),
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


@pytest.mark.parametrize("store,fast", CONFIGS)
def test_tier_matches_reference(program, store, fast):
    bench = program[0]
    oracle = _sim(program, "list", False)
    sim = _sim(program, store, fast)
    _lockstep(oracle, sim)
    assert sim.peek("tohost") == bench.expected


@pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)
def test_native_run_matches_reference(program):
    """The default engine advanced by ``run()``: the native kernel."""
    bench = program[0]
    oracle = _sim(program, "list", False)
    sim = _sim(program, "list", True)
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
    oracle = _sim(program, "list", False)
    sim = _sim(program, "list", True)
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
