"""Figure 1: the two unified interfaces and their transports.

The architecture's claim: the *simulator* interface must be native (it sits
on the per-cycle hot path), while the *symbol table* may be RPC because the
simulator is paused during symbol table interactions — "the symbol table
performance is less important compared to the simulator interface"
(Sec. 3.4).

Measured: native vs RPC symbol table query latency; debugger protocol
round-trip (one debug hub request); simulator interface get_value cost.
"""

from __future__ import annotations

import pytest

import repro
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.hub import DebugHub, HubClient
from repro.sim import Simulator
from repro.symtable import (
    RPCSymbolTable,
    SQLiteSymbolTable,
    SymbolTableServer,
    write_symbol_table,
)


@pytest.fixture(scope="module")
def cpu_setup():
    bench = benchmark_by_name("median")
    words = assemble(bench.source).words
    design = repro.compile(RV32Core(words, mem_words=8192))
    st = SQLiteSymbolTable(write_symbol_table(design))
    return design, st


def test_fig1_native_symtable_query(benchmark, cpu_setup):
    design, st = cpu_setup
    f = st.filenames()[0]
    lines = st.breakpoint_lines(f)

    def query():
        for line in lines[:20]:
            st.breakpoints_at(f, line)

    benchmark(query)


def test_fig1_rpc_symtable_query(benchmark, cpu_setup, capsys):
    design, st = cpu_setup
    with SymbolTableServer(st) as server:
        cli = RPCSymbolTable(*server.address)
        f = cli.filenames()[0]
        lines = cli.breakpoint_lines(f)

        def query():
            for line in lines[:20]:
                cli.breakpoints_at(f, line)

        benchmark(query)
        cli.close()


def test_fig1_simulator_get_value(benchmark, cpu_setup):
    """The native simulator-interface primitive on the hot path."""
    design, _st = cpu_setup
    sim = Simulator(design.low)
    sim.reset()
    paths = [s.path for s in sim.design.signals[:64]]

    def read_all():
        for p in paths:
            sim.get_value(p)

    benchmark(read_all)


def test_fig1_debug_protocol_round_trip(benchmark, cpu_setup):
    """One debugger request/response over the debug protocol: a hub
    session's ``get_time`` through :class:`HubClient`."""
    design, _st = cpu_setup
    with DebugHub(design) as hub:
        host, port = hub.serve_background()
        with HubClient(host, port) as client:
            session = client.attach()
            benchmark(session.get_time)
