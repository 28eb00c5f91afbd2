"""Observability across the shard farm: per-shard metrics riding the
JSON-lines wire, coordinator-side supervision telemetry, merged Chrome
traces, and the report's obs rollup — inline, forked, and fault-injected."""

import json

import pytest

import repro
from repro.faults import FaultPlan
from repro.obs import NULL_OBS
from repro.shard import BreakpointSpec, RetryPolicy, ShardSession
from repro.sim import SessionOptions
from tests.helpers import Accumulator, line_of

FAST = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.05)


@pytest.fixture(scope="module")
def acc():
    d = repro.compile(Accumulator())
    f, line = line_of(d, "acc")
    return d, BreakpointSpec(f, line)


def _sweep(d, bp, *, obs, workers, shards=2, **kwargs):
    with ShardSession(d, workers=workers, options=SessionOptions(obs=obs)) as session:
        return session.sweep(
            shards=shards, cycles=30, breakpoints=[bp], overrides={"en": 1},
            **kwargs,
        )


def _series(report, name):
    return [m for m in report.merged_metrics()["metrics"] if m["name"] == name]


class TestObsOff:
    def test_off_sweep_collects_nothing(self, acc):
        d, bp = acc
        report = _sweep(d, bp, obs="off", workers=0)
        assert not report.has_obs
        assert report.merged_metrics()["metrics"] == []
        assert report.to_json()["obs"] is None
        assert "observability:" not in report.summary()

    def test_session_defaults_to_null_obs(self, acc):
        d, _ = acc
        with ShardSession(d, workers=0) as session:
            assert session.obs is NULL_OBS


class TestInlineMetrics:
    def test_per_shard_series_with_shard_labels(self, acc):
        d, bp = acc
        report = _sweep(d, bp, obs="metrics", workers=0)
        assert report.has_obs
        ticks = _series(report, "sim_ticks_total")
        assert {m["labels"]["shard"] for m in ticks} == {"0", "1"}
        assert all(m["value"] > 30 for m in ticks)  # reset + 30 cycles
        cycles = _series(report, "shard_cycles_total")
        assert all(m["value"] == 30 for m in cycles)

    def test_summary_carries_obs_rollup_and_timings(self, acc):
        d, bp = acc
        report = _sweep(d, bp, obs="metrics", workers=0)
        text = report.summary()
        assert "observability:" in text
        assert "sim: " in text and "tick(s)" in text
        assert "attempt(s)]" in text  # per-shard wall/attempt row suffix
        timings = report.to_json()["shard_timings"]
        assert set(timings) == {"0", "1"}
        assert all(t["attempts"] == 1 for t in timings.values())


class TestForkedSweep:
    def test_stats_event_rides_the_wire(self, acc):
        d, bp = acc
        events = []
        report = _sweep(
            d, bp, obs="metrics", workers=2, on_event=events.append,
        )
        stats = [e for e in events if e["event"] == "stats"]
        assert {e["shard"] for e in stats} == {0, 1}
        assert all(e["obs"]["metrics"]["metrics"] for e in stats)
        assert report.ok

    def test_trace_merges_coordinator_and_every_worker(self, acc, tmp_path):
        """Acceptance: a 4-worker sweep produces ONE Chrome trace holding
        the coordinator's spans and every worker's spans."""
        d, bp = acc
        report = _sweep(d, bp, obs="trace", workers=4, shards=4)
        assert report.ok
        spans = report.trace_spans()
        assert {s["proc"] for s in spans} >= {
            "coordinator", "shard 0", "shard 1", "shard 2", "shard 3",
        }
        # Workers are forked, so each process is a distinct track.
        assert len({s["pid"] for s in spans}) == 5
        assert any(s["name"] == "shard.sweep" for s in spans)
        assert any(s["name"] == "shard.attempt" for s in spans)
        assert any(s["name"] == "shard.run" for s in spans)

        path = tmp_path / "sweep.trace.json"
        report.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        procs = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {
            "coordinator", "shard 0", "shard 1", "shard 2", "shard 3",
        }

    def test_supervision_metrics_collected_and_no_rpc(self, acc):
        """Forked workers read the symbol table they inherited: no shard
        reports a symbol-table RPC series."""
        d, bp = acc
        report = _sweep(d, bp, obs="metrics", workers=2)
        (attempts,) = _series(report, "shard_attempts_total")
        assert attempts["value"] == 2
        hb = _series(report, "shard_heartbeat_gap_seconds")
        assert hb and hb[0]["count"] > 0
        names = {m["name"] for m in report.merged_metrics()["metrics"]}
        assert not {n for n in names if n.startswith("rpc_")}
        shards = {m["labels"]["shard"] for m in _series(report, "sim_ticks_total")}
        assert shards == {"0", "1"}
        assert "rpc:" not in report.summary()

    def test_prometheus_export_covers_both_sides(self, acc):
        d, bp = acc
        report = _sweep(d, bp, obs="metrics", workers=2)
        text = report.prometheus()
        assert '# TYPE sim_ticks_total counter' in text
        assert 'sim_ticks_total{shard="0"}' in text
        assert "shard_attempts_total 2" in text  # coordinator: no shard label


class TestFaultInjectedSweep:
    def test_retry_and_heartbeat_metrics_surface_in_summary(self, acc):
        """Acceptance: a fault-injected sweep's summary shows the retry
        count and heartbeat telemetry."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(1,),
            at_cycle=5, max_faulty_attempts=1,
        )
        report = _sweep(
            d, bp, obs="metrics", workers=2, retry=FAST, faults=plan,
        )
        assert report.ok
        (retries,) = _series(report, "shard_retries_total")
        assert retries["value"] == 1
        (attempts,) = _series(report, "shard_attempts_total")
        assert attempts["value"] == 3  # 2 shards + 1 retry
        text = report.summary()
        assert "supervision: 3 attempt(s), 1 retry(s)" in text
        assert "heartbeat gap:" in text

    def test_attempt_spans_label_outcomes(self, acc):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(0,),
            at_cycle=5, max_faulty_attempts=1,
        )
        report = _sweep(
            d, bp, obs="trace", workers=2, retry=FAST, faults=plan,
        )
        assert report.ok
        outcomes = sorted(
            s["args"]["outcome"]
            for s in report.trace_spans()
            if s["name"] == "shard.attempt"
        )
        assert outcomes == ["crash", "ok", "ok"]
