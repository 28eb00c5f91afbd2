"""Stops ship each frame as its breakpoint id and leaf values, and front
ends rebuild the frames from the breakpoint's plan.  Over hundreds of
stops on the qsort debug build, a hub session and an in-process one give
exactly the frames a fresh ``FrameBuilder`` builds at that stop; nothing
builds a frame that nobody reads; and a client of another protocol
version cannot attach."""

import collections
import inspect
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.core import CONTINUE, FrameBuilder, Runtime
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.hub import DebugHub, HubClient, LocalSession, SessionError, SessionOptions
from repro.sim import Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Counter, fresh_frame

CONDITION = "rd == 5"
STOPS = 300
OPTIONS = SessionOptions(snapshots=64)


@pytest.fixture(scope="module")
def qsort():
    bench = benchmark_by_name("qsort")
    design = repro.compile(RV32Core(assemble(bench.source).words, 8192), debug=True)
    path = inspect.getsourcefile(RV32Core)
    with open(path, encoding="utf-8") as fh:
        line = next(
            n for n, text in enumerate(fh, 1) if "regs.write(rd, wb_val" in text
        )
    return design, (path, line)


def _local(design) -> LocalSession:
    sim = Simulator(design.low, options=OPTIONS)
    return LocalSession(Runtime(sim, SQLiteSymbolTable(write_symbol_table(design))))


def _drive(session, runtime, line, seed: int) -> set:
    """A seeded script of cont, step and reverse_step over ``STOPS``
    stops.  At each, a fresh ``FrameBuilder`` and the fresh-query
    reference must agree; the stop's own frames, read only after the next
    command, must equal them.  Returns the breakpoint ids the stops
    carried."""
    table, sim = runtime.symtable, runtime.sim
    fresh = FrameBuilder(table, sim, runtime.instance_map)
    rng = random.Random(seed)
    session.reset(1)
    session.add_breakpoint(*line, CONDITION)
    stop = session.run(100_000)
    seen = set()
    for _ in range(STOPS):
        assert stop.reason == "breakpoint"
        bps = [table.breakpoint(bp_id) for bp_id, _values in stop.frame_values]
        assert bps
        expected = [fresh.build(bp, stop.time).to_dict() for bp in bps]
        assert expected == [
            fresh_frame(table, sim, runtime.instance_map, bp, stop.time).to_dict()
            for bp in bps
        ]
        seen.update(bp.id for bp in bps)
        then = stop
        r = rng.random()
        if r < 0.7:
            stop = session.cont()
        elif r < 0.85:
            stop = session.step()
        else:
            stop = session.reverse_step()
        assert then.frames == expected
    return seen


@pytest.mark.parametrize("seed", [1, 2])
def test_hub_stops_rebuild_the_built_frames(qsort, seed):
    design, line = qsort
    with DebugHub(design, options=OPTIONS) as hub:
        host, port = hub.serve_background()
        with HubClient(host, port) as client:
            calls = collections.Counter()
            call = client.call

            def counted(method, params=None):
                calls[method] += 1
                return call(method, params)

            client.call = counted
            session = client.attach()
            runtime = hub.get_session(session.sid).session.runtime
            seen = _drive(session, runtime, line, seed)
            assert calls["s.frame_plan"] == len(seen)
            session.detach()


@pytest.mark.parametrize("seed", [1, 2])
def test_local_stops_rebuild_the_built_frames(qsort, seed):
    design, line = qsort
    session = _local(design)
    try:
        _drive(session, session.runtime, line, seed)
    finally:
        session.detach()


def _counting_builds(monkeypatch) -> list:
    built = []
    build = FrameBuilder.build

    def counted(self, bp, time, values=None):
        built.append(bp.id)
        return build(self, bp, time, values)

    monkeypatch.setattr(FrameBuilder, "build", counted)
    return built


def test_unread_stops_build_no_frame(qsort, monkeypatch):
    design, line = qsort
    built = _counting_builds(monkeypatch)
    session = _local(design)
    with DebugHub(design, options=OPTIONS) as hub:
        host, port = hub.serve_background()
        with HubClient(host, port) as client:
            for s in (session, client.attach()):
                s.reset(1)
                s.add_breakpoint(*line, CONDITION)
                stop = s.run(100_000)
                for _ in range(20):
                    assert stop.reason == "breakpoint"
                    stop = s.cont()
                s.evaluate("wb_val")  # in the stopped frame's scope
                s.detach()
    assert built == []


def test_a_hit_builds_its_frames_when_read(qsort, monkeypatch):
    design, line = qsort
    built = _counting_builds(monkeypatch)
    hits, expected = [], []

    def on_hit(hit):
        hits.append(hit)
        expected.append(
            [
                fresh_frame(table, sim, runtime.instance_map, bp, hit.time).to_dict()
                for bp, _values in hit.reads
            ]
        )
        return CONTINUE

    sim = Simulator(design.low)
    table = SQLiteSymbolTable(write_symbol_table(design))
    runtime = Runtime(sim, table, on_hit)
    runtime.add_breakpoint(*line, condition=CONDITION)
    runtime.attach()
    sim.reset(1)
    sim.step(200)
    assert len(hits) > 10 and built == []
    # Read after the run, records and frames still hold each hit's values.
    assert [hit.to_record()["frames"] for hit in hits] == expected
    assert built == []
    assert [[f.to_dict() for f in hit.frames] for hit in hits] == expected
    assert len(built) == sum(len(hit.reads) for hit in hits)
    assert hits[0].frames is hits[0].frames


@pytest.mark.parametrize("params", [{"protocol": 1}, {}], ids=["v1", "none"])
def test_attach_from_another_protocol_fails(params):
    design = repro.compile(Counter())
    with DebugHub(design) as hub:
        host, port = hub.serve_background()
        with HubClient(host, port) as client:
            with pytest.raises(SessionError, match="protocol"):
                client.call("attach", params)
            assert hub.session_count == 0


def test_the_hub_loads_no_asyncio():
    src = os.path.dirname(os.path.dirname(inspect.getsourcefile(repro)))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.hub.server, repro.hub.client; "
            "print(sorted(m for m in sys.modules if m.startswith('asyncio')))",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
