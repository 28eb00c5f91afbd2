"""Chaos acceptance: under a seeded fault plan injecting kills, hangs,
and corrupt wire at up to a 30% rate, a supervised sweep must
(a) complete within its wall-clock budget and (b) aggregate results
bit-identical — state digests, hits, first hits, streamed timelines — to
a fault-free inline run of the same specs.

Convergence is structural, not lucky: faults re-roll per (shard,
attempt), exhausted shards degrade to inline execution, and the inline
path never runs faults — so every shard eventually produces the
reference result, whatever the plan throws at the forked attempts."""

import pytest

import repro
from repro.faults import FaultPlan
from repro.shard import (
    BreakpointSpec,
    DeadlinePolicy,
    RetryPolicy,
    ShardSession,
    make_sweep,
)
from tests.helpers import Accumulator, line_of

SHARDS = 5
CYCLES = 120

RETRY = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.1)
DEADLINE = DeadlinePolicy(
    base_s=20.0,
    per_kcycle_s=20.0,
    heartbeat_timeout_s=3.0,
    kill_grace_s=1.0,
)


@pytest.fixture(scope="module")
def sweep():
    d = repro.compile(Accumulator())
    f, line = line_of(d, "acc")
    specs = make_sweep(
        SHARDS, CYCLES,
        breakpoints=[BreakpointSpec(f, line)],
        overrides={"en": 1},
        timeline_cycles=16,
    )
    return d, specs


@pytest.fixture(scope="module")
def reference(sweep):
    """The fault-free inline run every chaos sweep must reproduce."""
    d, specs = sweep
    with ShardSession(d, workers=0) as session:
        return session.run(specs)


@pytest.mark.parametrize("plan_seed", [0, 1, 2])
def test_chaos_sweep_is_bit_identical_to_fault_free(
    sweep, reference, plan_seed
):
    d, specs = sweep
    plan = FaultPlan(
        seed=plan_seed,
        rate=0.3,
        kinds=("kill", "hang", "corrupt"),
        hang_s=60.0,
    )
    with ShardSession(d, workers=3) as session:
        report = session.run(
            specs, timeout=120.0, retry=RETRY, deadline=DEADLINE,
            faults=plan,
        )
    assert report.ok, report.summary()
    assert len(report.results) == SHARDS
    for got, want in zip(report.results, reference.results, strict=False):
        assert got.shard_id == want.shard_id and got.seed == want.seed
        assert got.cycles == want.cycles
        assert got.hits == want.hits
        assert got.state_digest == want.state_digest
        assert got.timeline == want.timeline
        # supervision provenance is internally consistent
        assert got.attempts == len(got.failures) + 1
    assert {
        loc: (fh.time, fh.shard_id)
        for loc, fh in report.first_hits().items()
    } == {
        loc: (fh.time, fh.shard_id)
        for loc, fh in reference.first_hits().items()
    }
    assert report.histogram() == reference.histogram()


def test_chaos_plan_actually_bites(sweep, reference):
    """Guard against a vacuous chaos pass: pin one plan known to fault at
    least one forked attempt, and check the report says so."""
    d, specs = sweep
    plan = FaultPlan(seed=0, rate=1.0, kinds=("kill",), at_cycle=1,
                     max_faulty_attempts=1)
    with ShardSession(d, workers=3) as session:
        report = session.run(
            specs, timeout=120.0, retry=RETRY, deadline=DEADLINE,
            faults=plan,
        )
    assert report.ok
    assert len(report.retried) == SHARDS
    assert report.total_attempts == 2 * SHARDS
    for got, want in zip(report.results, reference.results, strict=False):
        assert got.state_digest == want.state_digest
