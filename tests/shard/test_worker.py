"""Worker determinism: a shard run must be bit-identical to a standalone
``Simulator`` + ``Runtime`` run of the same seed.

The standalone reference below is written from the spec contract alone
(sorted-name random pokes from ``Random(seed)``, overrides held, reset
first) — it shares no code with ``run_shard``'s driving loop, so the
property pins the contract, not the implementation.
"""

import random

import pytest

import repro
from repro.core import HitRecorder, Runtime
from repro.shard import (
    BreakpointSpec,
    ShardSession,
    ShardSpec,
    WatchSpec,
    WorldGroupSpec,
    run_shard,
    run_world_group,
)
from repro.sim import Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator, TwoLeaves, line_of


@pytest.fixture(scope="module")
def acc_design():
    d = repro.compile(Accumulator())
    return d, SQLiteSymbolTable(write_symbol_table(d))


def _standalone_reference(d, symtable, spec: ShardSpec) -> list[dict]:
    """The documented semantics, written out by hand."""
    sim = Simulator(d.low)
    recorder = HitRecorder(limit=spec.hit_limit)
    rt = Runtime(sim, symtable, on_hit=recorder)
    rt.attach()
    for bp in spec.breakpoints:
        rt.add_breakpoint(bp.filename, bp.line, bp.column, bp.condition)
    for wp in spec.watchpoints:
        rt.add_watchpoint(wp.name, wp.instance, wp.condition)
    for name, value in spec.overrides.items():
        sim.poke(name, value)
    sim.reset(spec.reset_cycles)
    rng = random.Random(spec.seed)
    clock = sim.design.signals[sim.design.clock_index].name
    reset = sim.design.signals[sim.design.reset_index].name
    driven = sorted(
        name for name in sim.design.top_inputs
        if name not in spec.overrides and name not in (clock, reset)
    )
    widths = {
        name: sim.design.signals[sim.design.top_inputs[name]].width
        for name in driven
    }
    for _ in range(spec.cycles):
        if sim.finished:
            break
        for name in driven:
            sim.poke(name, rng.getrandbits(widths[name]))
        sim.step(1)
    return recorder.records


class TestShardEqualsStandalone:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 999_999])
    def test_property_across_seeds(self, acc_design, seed):
        d, st = acc_design
        f, line = line_of(d, "acc")
        spec = ShardSpec(
            shard_id=0, seed=seed, cycles=60,
            breakpoints=(BreakpointSpec(f, line, condition="acc >= 100"),),
        )
        result = run_shard(d.low, st, spec)
        assert result.ok and result.cycles == 60
        assert result.hits == _standalone_reference(d, st, spec)

    def test_with_overrides_and_watchpoints(self, acc_design):
        d, st = acc_design
        f, line = line_of(d, "acc")
        spec = ShardSpec(
            shard_id=0, seed=42, cycles=40,
            overrides={"en": 1},
            breakpoints=(BreakpointSpec(f, line),),
            watchpoints=(WatchSpec("total"),),
        )
        result = run_shard(d.low, st, spec)
        assert result.hits == _standalone_reference(d, st, spec)
        # en held at 1: the breakpoint fires every cycle, including the
        # reset cycle (the clock callback runs there too)
        bp_hits = [h for h in result.hits if "watch" not in h]
        watch_hits = [h for h in result.hits if "watch" in h]
        assert len(bp_hits) == 40 + spec.reset_cycles
        assert watch_hits, "acc accumulates, so `total` must change"

    def test_same_seed_same_hits_repeatedly(self, acc_design):
        d, st = acc_design
        f, line = line_of(d, "acc")
        spec = ShardSpec(
            shard_id=0, seed=5, cycles=50,
            breakpoints=(BreakpointSpec(f, line),),
        )
        a = run_shard(d.low, st, spec)
        b = run_shard(d.low, st, spec)
        assert a.hits == b.hits

    def test_different_seeds_diverge(self, acc_design):
        """Sanity: the stimulus actually depends on the seed."""
        d, st = acc_design
        f, line = line_of(d, "acc")
        runs = []
        for seed in (1, 2):
            spec = ShardSpec(
                shard_id=0, seed=seed, cycles=50,
                breakpoints=(BreakpointSpec(f, line),),
            )
            runs.append(run_shard(d.low, st, spec).hits)
        assert runs[0] != runs[1]

    def test_hit_limit_detaches(self, acc_design):
        d, st = acc_design
        f, line = line_of(d, "acc")
        spec = ShardSpec(
            shard_id=0, seed=3, cycles=50, overrides={"en": 1},
            breakpoints=(BreakpointSpec(f, line),), hit_limit=5,
        )
        result = run_shard(d.low, st, spec)
        assert len(result.hits) == 5
        assert result.cycles == 50  # simulation completes; debugger detached
        assert result.hits == _standalone_reference(d, st, spec)

    def test_multi_instance_frames_serialize(self):
        """Hits with several concurrent frames produce serializable
        records (TwoLeaves: two instances share each breakpoint)."""
        d = repro.compile(TwoLeaves())
        st = SQLiteSymbolTable(write_symbol_table(d))
        f, line = line_of(d, "o")
        spec = ShardSpec(
            shard_id=0, seed=11, cycles=20,
            breakpoints=(BreakpointSpec(f, line),),
        )
        result = run_shard(d.low, st, spec)
        assert result.hits, "expected hits within 20 random cycles"
        import json

        json.dumps(result.hits)  # must be plain data
        # the SSA enable (i > 2) gates each instance separately; some
        # cycles must stop both concurrent threads in one group
        assert max(len(h["frames"]) for h in result.hits) == 2

    def test_emit_streams_hits_and_progress(self, acc_design):
        d, st = acc_design
        f, line = line_of(d, "acc")
        events = []
        spec = ShardSpec(
            shard_id=4, seed=8, cycles=40, overrides={"en": 1},
            breakpoints=(BreakpointSpec(f, line),), progress_every=10,
        )
        result = run_shard(d.low, st, spec, emit=events.append)
        kinds = [e["event"] for e in events]
        assert kinds.count("progress") == 4
        assert kinds.count("hit") == len(result.hits)
        assert all(e["shard"] == 4 for e in events)
        streamed = [e["record"] for e in events if e["event"] == "hit"]
        assert streamed == result.hits


def _standalone_digest(d, spec: ShardSpec) -> str:
    """A plain shard's final state, from the contract alone: no Runtime."""
    sim = Simulator(d.low)
    for name, value in spec.overrides.items():
        sim.poke(name, value)
    sim.reset(spec.reset_cycles)
    rng = random.Random(spec.seed)
    clock = sim.design.signals[sim.design.clock_index].name
    reset = sim.design.signals[sim.design.reset_index].name
    for _ in range(spec.cycles):
        for name in sorted(sim.design.top_inputs):
            if name not in spec.overrides and name not in (clock, reset):
                width = sim.design.signals[sim.design.top_inputs[name]].width
                sim.poke(name, rng.getrandbits(width))
        sim.step(1)
    return sim.state_digest()


class TestPlainShardsBuildNoRuntime:
    """A shard with no breakpoint and no watchpoint runs without a
    ``Runtime``: with the worker's ``Runtime`` made to raise, plain shards
    (inline, in a world group, and forked) still equal the standalone
    reference, with no hit and no warning."""

    @pytest.fixture()
    def no_runtime(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain shard built a Runtime")

        monkeypatch.setattr("repro.shard.worker.Runtime", refuse)

    def test_plain_spec(self, acc_design, no_runtime):
        d, st = acc_design
        spec = ShardSpec(shard_id=3, seed=11, cycles=120, overrides={"en": 1})
        result = run_shard(d.low, st, spec, obs="metrics")
        assert result.ok and result.cycles == 120
        assert result.hits == [] and len(result.hits) == 0
        assert result.warnings == []
        assert result.state_digest == _standalone_digest(d, spec)
        metrics = {m["name"]: m.get("value") for m in result.obs["metrics"]["metrics"]}
        assert metrics["shard_hits_total"] == 0

    def test_world_group(self, acc_design, no_runtime):
        d, st = acc_design
        specs = [ShardSpec(shard_id=k, seed=40 + k, cycles=90) for k in range(3)]
        results = run_world_group(d.low, st, WorldGroupSpec(tuple(specs)))
        assert [r.state_digest for r in results] == [
            _standalone_digest(d, s) for s in specs
        ]
        assert all(r.ok and not r.hits and not r.warnings for r in results)

    def test_forked_plain_sweep(self, acc_design, no_runtime):
        d, _st = acc_design
        with ShardSession(d, workers=2) as session:
            forked = session.sweep(4, 150, seed_base=21, timeout=60)
        with ShardSession(d, workers=0) as session:
            inline = session.sweep(4, 150, seed_base=21)
        assert forked.ok and inline.ok
        for f, i in zip(forked.results, inline.results, strict=True):
            assert f.attempts == 1 and not f.failures
            assert f.state_digest == i.state_digest == _standalone_digest(
                d, ShardSpec(shard_id=f.shard_id, seed=f.seed, cycles=150)
            )
            assert f.hits == i.hits == [] and f.warnings == i.warnings == []
