"""Shard wire protocol 2 end to end: hits cross as values and render, on
read, exactly the records a plain ``HitGroup.to_record`` sink keeps —
inline and forked — and so does everything a report derives from them.
Also pinned through the coordinator: the heartbeat cadence, and a
``done`` line its plans do not cover (or of another protocol version)
settling its attempt as corrupt.  ``test_hit_stream.py`` pins what one
attempt sends."""

import json

import pytest

import repro
from repro.core import CONTINUE, DETACH, Runtime
from repro.fpu import FpuCmp
from repro.shard import (
    BreakpointSpec,
    ShardReport,
    ShardResult,
    ShardSession,
    ShardSpec,
    WatchSpec,
    group_worlds,
    make_stimulus,
    make_sweep,
)
from repro.shard import worker as worker_mod
from repro.shard.spec import HitRecords
from repro.shard.worker import HEARTBEAT_S
from repro.sim import Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator, TwoLeaves, line_of

SEEDS = (0, 100, 200)


@pytest.fixture(scope="module")
def fpu():
    d = repro.compile(FpuCmp(buggy=True))
    f, line = line_of(d, "exc", "FpuCmp")
    return d, SQLiteSymbolTable(write_symbol_table(d)), f, line


@pytest.fixture(scope="module")
def designs(fpu):
    """name -> (design, table, sweep keywords), one per hit shape."""
    d, st, f, line = fpu
    acc = repro.compile(Accumulator())
    acc_st = SQLiteSymbolTable(write_symbol_table(acc))
    acc_bp = BreakpointSpec(*line_of(acc, "acc"))
    two = repro.compile(TwoLeaves())
    hunt = {
        "shards": 3, "cycles": 120,
        "breakpoints": [BreakpointSpec(f, line, condition="rm == 2")],
    }
    return {
        "fpu-hunt": (d, st, hunt),
        "two-frames": (
            two, SQLiteSymbolTable(write_symbol_table(two)),
            {"shards": 3, "cycles": 20,
             "breakpoints": [BreakpointSpec(*line_of(two, "o"))]},
        ),
        "watchpoint": (
            acc, acc_st,
            {"shards": 3, "cycles": 30, "breakpoints": [acc_bp],
             "watchpoints": [WatchSpec("total")], "overrides": {"en": 1}},
        ),
        "hit-limit": (
            acc, acc_st,
            {"shards": 3, "cycles": 30, "breakpoints": [acc_bp],
             "overrides": {"en": 1}, "hit_limit": 5},
        ),
        "world-groups": (d, st, dict(hunt, shards=4, worlds_per_shard=2)),
    }


@pytest.fixture(scope="module")
def sessions(designs):
    """One forked session per design, reused across sweeps."""
    made = {}
    for d, st, _ in designs.values():
        if id(d) not in made:
            made[id(d)] = ShardSession(d, symtable=st, workers=2)
    yield made
    for session in made.values():
        session.close()


def _reference(design, table, spec: ShardSpec) -> ShardResult:
    """``spec`` run standalone under a plain ``on_hit`` that keeps each
    ``HitGroup.to_record()``."""
    sim = Simulator(design.low)
    records: list = []

    def on_hit(hit):
        records.append(hit.to_record())
        if spec.hit_limit is not None and len(records) >= spec.hit_limit:
            return DETACH
        return CONTINUE

    rt = Runtime(sim, table, on_hit=on_hit)
    rt.attach()
    for bp in spec.breakpoints:
        rt.add_breakpoint(bp.filename, bp.line, bp.column, bp.condition)
    for wp in spec.watchpoints:
        rt.add_watchpoint(wp.name, wp.instance, wp.condition)
    for name, value in spec.overrides.items():
        sim.poke(name, value)
    sim.reset(spec.reset_cycles)
    ran = sim.run_cycles(spec.cycles, stimulus=make_stimulus(sim, spec))
    return ShardResult(
        spec.shard_id, spec.seed, ran, hits=records,
        warnings=list(rt.warnings), exit_code=sim.exit_code,
        state_digest=sim.state_digest(),
    )


def _views(report: ShardReport) -> dict:
    """Everything a report derives from its hits, with wall times zeroed.
    The report JSON is taken first, while the hits are still values."""
    for r in report.results:
        r.wall_time_s = 0.0
    report.wall_time_s = 0.0
    return {
        "json": json.dumps(report.to_json()),
        "records": [list(r.hits) for r in report.results],
        "first_hits": report.first_hits(),
        "histogram": report.histogram(),
        "divergences": report.divergences(),
        "summary": report.summary(),
    }


@pytest.mark.parametrize("mode", ["inline", "forked"])
@pytest.mark.parametrize("seed_base", SEEDS)
@pytest.mark.parametrize(
    "case",
    ["fpu-hunt", "two-frames", "watchpoint", "hit-limit", "world-groups"],
)
def test_sweep_renders_the_reference_records(
    designs, sessions, case, seed_base, mode
):
    d, st, kwargs = designs[case]
    kwargs = dict(kwargs, seed_base=seed_base)
    worlds = kwargs.pop("worlds_per_shard", 0)
    specs = make_sweep(**kwargs)
    if mode == "inline":
        with ShardSession(d, symtable=st, workers=0) as session:
            got = session.run(group_worlds(specs, worlds))
    else:
        got = sessions[id(d)].run(group_worlds(specs, worlds))
    assert all(isinstance(r.hits, HitRecords) for r in got.results)
    assert got.total_hits > 0
    want = ShardReport([_reference(d, st, spec) for spec in specs])
    want.coordinator_obs = got.coordinator_obs
    assert _views(got) == _views(want)
    if case == "two-frames":
        assert max(len(h["frames"]) for _, h in got.iter_hits()) == 2
    if case == "watchpoint":
        assert any("watch" in h for _, h in got.iter_hits())
    if case == "hit-limit":
        assert [len(r.hits) for r in got.results] == [5, 5, 5]


def test_forked_sweep_cadence(fpu, sessions):
    """Through the coordinator: per shard, four progress events, and the
    heartbeats the clock allows over the shard's wall time."""
    d, st, f, line = fpu
    events: list = []
    report = sessions[id(d)].sweep(
        2, 1000, breakpoints=[BreakpointSpec(f, line, condition="rm == 2")],
        on_event=events.append,
    )
    for r in report.results:
        mine = [e["event"] for e in events if e["shard"] == r.shard_id]
        assert mine.count("progress") == 4
        assert 1 <= mine.count("heartbeat") <= 1 + r.wall_time_s / HEARTBEAT_S
        streamed = [
            e["record"] for e in events
            if e["event"] == "hit" and e["shard"] == r.shard_id
        ]
        assert streamed == r.hits


def test_uncovered_done_line_settles_the_attempt_corrupt(
    designs, monkeypatch
):
    """A done line whose hits name no plan is refused when it arrives:
    the attempt is classed corrupt, retried, then run inline, and the
    sweep still reports the reference hits."""
    d, st, kwargs = designs["watchpoint"]
    monkeypatch.setattr(
        HitRecords, "to_wire", lambda self: (self._rows, [])
    )
    with ShardSession(d, symtable=st, workers=1) as session:
        got = session.sweep(**dict(kwargs, shards=1))
    (res,) = got.results
    assert res.ok
    assert [f["class"] for f in res.failures] == ["corrupt"] * 3
    assert res.hits == _reference(d, st, make_sweep(**dict(kwargs, shards=1))[0]).hits


def test_foreign_version_done_settles_the_attempt_corrupt(designs, monkeypatch):
    """A worker of protocol 1 fails loudly: its done line is refused, its
    attempt settles as corrupt at once (it does not wait for a pipe end
    that an idle worker never closes), and the shard recovers inline."""
    d, st, kwargs = designs["hit-limit"]
    stamp = worker_mod.done_event
    monkeypatch.setattr(
        worker_mod, "done_event", lambda result: dict(stamp(result), v=1)
    )
    with ShardSession(d, symtable=st, workers=1) as session:
        got = session.sweep(**dict(kwargs, shards=1), timeout=60)
    (res,) = got.results
    assert res.ok and len(res.hits) == 5
    assert [f["class"] for f in res.failures] == ["corrupt"] * 3
