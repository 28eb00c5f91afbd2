"""Supervision layer tests: retry/deadline policies as pure units, then
the coordinator's failure paths end-to-end — crash, hang (including the
terminate→kill escalation), corrupt wire (a garbled ``done`` included),
retry exhaustion with and without inline fallback, and the whole-sweep
wall-clock budget."""

import gc
import multiprocessing
import os
import time

import pytest

import repro
import repro.shard.worker as shard_worker
from repro.faults import FaultPlan, corrupt_line
from repro.shard import (
    BreakpointSpec,
    DeadlinePolicy,
    RetryPolicy,
    ShardError,
    ShardSession,
    ShardSpec,
    as_deadline_policy,
    failure_record,
)
from repro.shard.coordinator import GARBLED_SILENCE_S, _start_frozen
from repro.shard.supervise import (
    CORRUPT,
    CRASH,
    ERROR,
    HANG,
    INFRA_FAILURES,
)
from repro.shard.wire import encode_line
from tests.helpers import Accumulator, line_of

FAST = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.05)


@pytest.fixture(scope="module")
def acc():
    d = repro.compile(Accumulator())
    f, line = line_of(d, "acc")
    return d, BreakpointSpec(f, line)


@pytest.fixture(scope="module")
def reference(acc):
    """Fault-free inline run of the same sweep: the parity baseline."""
    d, bp = acc
    with ShardSession(d, workers=0) as session:
        return session.sweep(
            shards=2, cycles=30, breakpoints=[bp], overrides={"en": 1},
        )


def _sweep(d, bp, **kwargs):
    kwargs.setdefault("retry", FAST)
    with ShardSession(d, workers=2) as session:
        return session.sweep(
            shards=2, cycles=30, breakpoints=[bp], overrides={"en": 1},
            **kwargs,
        )


class TestRetryPolicy:
    def test_defaults_retry_infra_only(self):
        p = RetryPolicy()
        for fclass in (CRASH, HANG, CORRUPT):
            assert p.should_retry(fclass, 1)
            assert p.wants_fallback(fclass)
        assert not p.should_retry(ERROR, 1)
        assert not p.wants_fallback(ERROR)

    def test_attempt_budget_is_exclusive_of_max(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(CRASH, 2)
        assert not p.should_retry(CRASH, 3)

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3)
        assert p.backoff_for(1) == pytest.approx(0.1)
        assert p.backoff_for(2) == pytest.approx(0.2)
        assert p.backoff_for(3) == pytest.approx(0.3)  # capped
        assert p.backoff_for(9) == pytest.approx(0.3)

    def test_custom_retry_classes(self):
        p = RetryPolicy(retry_on=("crash",))
        assert p.should_retry(CRASH, 1)
        assert not p.should_retry(HANG, 1)
        assert not p.wants_fallback(HANG)

    def test_no_fallback_when_disabled(self):
        p = RetryPolicy(inline_fallback=False)
        assert not p.wants_fallback(CRASH)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-1)


class TestDeadlinePolicy:
    def test_deadline_scales_with_cycles(self):
        p = DeadlinePolicy(base_s=2.0, per_kcycle_s=4.0)
        assert p.deadline_for(0) == pytest.approx(2.0)
        assert p.deadline_for(500) == pytest.approx(4.0)
        assert p.deadline_for(2000) == pytest.approx(10.0)

    def test_fixed_is_flat(self):
        p = DeadlinePolicy.fixed(7.5)
        assert p.deadline_for(10) == p.deadline_for(1_000_000) == 7.5

    def test_coercion(self):
        assert as_deadline_policy(None) is None
        p = DeadlinePolicy()
        assert as_deadline_policy(p) is p
        assert as_deadline_policy(3).deadline_for(99_999) == 3.0
        with pytest.raises(TypeError, match="deadline"):
            as_deadline_policy("soon")

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline terms"):
            DeadlinePolicy(base_s=-1)
        with pytest.raises(ValueError, match="heartbeat"):
            DeadlinePolicy(heartbeat_timeout_s=0)

    def test_failure_record_shape(self):
        rec = failure_record(2, CRASH, "boom", 0.123456789)
        assert rec == {
            "attempt": 2, "class": "crash", "message": "boom",
            "elapsed_s": 0.123457,
        }

    def test_infra_failure_set(self):
        assert INFRA_FAILURES == {"crash", "hang", "corrupt"}


class TestCrashRecovery:
    def test_killed_worker_is_retried_and_converges(self, acc, reference):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(1,),
            at_cycle=5, max_faulty_attempts=1,
        )
        report = _sweep(d, bp, faults=plan)
        assert report.ok
        clean, hurt = report.results
        assert clean.attempts == 1 and not clean.failures
        assert hurt.attempts == 2 and hurt.retried
        assert [f["class"] for f in hurt.failures] == ["crash"]
        assert "exit code" in hurt.failures[0]["message"]
        # the retried shard is bit-identical to the fault-free reference
        for got, want in zip(report.results, reference.results, strict=False):
            assert got.state_digest == want.state_digest
            assert got.hits == want.hits

    def test_crashes_do_not_stall_the_event_loop(self, acc):
        """Regression: the old coordinator blocked up to 30s in
        ``proc.join(timeout=30)`` after each pipe EOF."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), at_cycle=0,
            max_faulty_attempts=1,
        )
        t0 = time.monotonic()
        report = _sweep(d, bp, faults=plan)
        assert report.ok
        assert all(r.attempts == 2 for r in report.results)
        assert time.monotonic() - t0 < 20

    def test_events_carry_attempt_numbers(self, acc):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(0,),
            at_cycle=1, max_faulty_attempts=1,
        )
        events = []
        report = _sweep(d, bp, faults=plan, on_event=events.append)
        assert report.ok
        assert "heartbeat" in {e["event"] for e in events}
        dones = {e["shard"]: e["attempt"] for e in events
                 if e["event"] == "done"}
        assert dones == {0: 2, 1: 1}


class TestCorruptWireRecovery:
    def test_garbled_wire_is_retried(self, acc, reference):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("corrupt",), only_shards=(0,),
            at_cycle=0, max_faulty_attempts=1,
        )
        report = _sweep(d, bp, faults=plan)
        assert report.ok
        hurt = report.results[0]
        assert hurt.attempts == 2
        assert [f["class"] for f in hurt.failures] == ["corrupt"]
        assert "undecodable" in hurt.failures[0]["message"]
        assert hurt.state_digest == reference.results[0].state_digest

    def test_done_garbled_past_its_kind_settles_without_a_deadline(
        self, acc, reference, monkeypatch
    ):
        """A clean worker whose ``done`` line arrives garbled beyond its
        event kind waits idle for its next attempt, so its pipe never
        ends.  With no DeadlinePolicy, the silence after the garbled line
        settles the attempt as corrupt; it is retried, then run inline."""
        d, bp = acc

        def garble_shard0_done(event: dict) -> bytes:
            data = encode_line(event)
            if event["event"] == "done" and event["shard"] == 0:
                return corrupt_line(data)
            return data

        # Patched before the first fork: every worker inherits it.
        monkeypatch.setattr(shard_worker, "encode_line", garble_shard0_done)
        t0 = time.monotonic()
        report = _sweep(
            d, bp, timeout=60.0,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
        )
        assert time.monotonic() - t0 < 2 * GARBLED_SILENCE_S + 10
        assert report.ok
        hurt, healthy = report.results
        assert hurt.attempts == 3  # two forked attempts, then inline
        assert [f["class"] for f in hurt.failures] == ["corrupt", "corrupt"]
        assert all("undecodable" in f["message"] for f in hurt.failures)
        assert healthy.attempts == 1 and not healthy.failures
        for got, want in zip(report.results, reference.results, strict=True):
            assert got.state_digest == want.state_digest
            assert got.hits == want.hits


class TestHangRecovery:
    def test_silent_worker_is_declared_hung_and_retried(self, acc, reference):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), only_shards=(1,),
            at_cycle=5, hang_s=60.0, max_faulty_attempts=1,
        )
        deadline = DeadlinePolicy(
            base_s=30.0, heartbeat_timeout_s=0.5, kill_grace_s=0.5,
        )
        t0 = time.monotonic()
        report = _sweep(d, bp, faults=plan, deadline=deadline)
        assert time.monotonic() - t0 < 30
        assert report.ok
        hurt = report.results[1]
        assert hurt.attempts == 2
        assert [f["class"] for f in hurt.failures] == ["hang"]
        assert "no event for" in hurt.failures[0]["message"]
        assert hurt.state_digest == reference.results[1].state_digest

    def test_stubborn_hang_forces_kill_escalation(self, acc):
        """A worker that shrugs off SIGTERM must still die: the zombie
        reaper escalates to SIGKILL after ``kill_grace_s``."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), only_shards=(0,),
            at_cycle=5, hang_s=60.0, stubborn=True, max_faulty_attempts=1,
        )
        deadline = DeadlinePolicy(
            base_s=30.0, heartbeat_timeout_s=0.5, kill_grace_s=0.3,
        )
        t0 = time.monotonic()
        report = _sweep(d, bp, faults=plan, deadline=deadline)
        assert time.monotonic() - t0 < 30
        assert report.ok
        assert report.results[0].attempts == 2

    def test_attempt_deadline_without_heartbeat_monitor(self, acc):
        """A flat per-attempt deadline alone (the CLI's --deadline) also
        catches the hang — no heartbeat timeout configured."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), only_shards=(0,),
            at_cycle=5, hang_s=60.0, max_faulty_attempts=1,
        )
        report = _sweep(d, bp, faults=plan, deadline=1.0)
        assert report.ok
        hurt = report.results[0]
        assert [f["class"] for f in hurt.failures] == ["hang"]
        assert "deadline exceeded" in hurt.failures[0]["message"]


class TestExhaustionAndDegradation:
    def test_exhausted_retries_fall_back_inline(self, acc, reference):
        """Every forked attempt dies, so the shard degrades to inline
        execution — and still produces the bit-identical result."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(1,), at_cycle=1,
        )  # no max_faulty_attempts: every forked attempt is killed
        report = _sweep(d, bp, faults=plan)
        assert report.ok
        hurt = report.results[1]
        assert hurt.attempts == FAST.max_attempts + 1
        assert [f["class"] for f in hurt.failures] == ["crash"] * 3
        assert hurt.state_digest == reference.results[1].state_digest

    def test_exhausted_retries_without_fallback_yield_partial_report(
        self, acc
    ):
        """The acceptance criterion: a sweep whose shard exhausts its
        budget returns a partial report naming the failed shard and its
        attempt count — it does not raise."""
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(0,), at_cycle=1,
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_s=0.01, inline_fallback=False,
        )
        report = _sweep(d, bp, faults=plan, retry=policy)
        assert not report.ok
        failed = report.failed_shards()
        assert failed == [(0, 2, report.results[0].error)]
        assert "exited without reporting" in report.results[0].error
        assert len(report.results[0].failures) == 2
        # the healthy shard still completed
        assert report.results[1].ok and report.results[1].hits
        text = report.summary()
        assert "fault recovery:" in text
        assert "FAILED after 2 attempt(s)" in text
        payload = report.to_json()
        assert payload["failed"] == [
            {"shard": 0, "attempts": 2, "error": report.results[0].error}
        ]
        assert payload["total_attempts"] == 3

    def test_spec_errors_are_not_retried(self, acc):
        """A worker-reported error is deterministic: retrying or falling
        back would fail identically, so it settles terminally at
        attempt 1."""
        d, bp = acc
        bad = BreakpointSpec("no_such_file.py", 1)
        specs = [
            ShardSpec(shard_id=0, seed=0, cycles=20, breakpoints=(bad,)),
            ShardSpec(shard_id=1, seed=1, cycles=20, breakpoints=(bp,),
                      overrides={"en": 1}),
        ]
        with ShardSession(d, workers=2) as session:
            report = session.run(specs, retry=FAST)
        assert not report.ok
        failed = report.results[0]
        assert failed.attempts == 1
        assert [f["class"] for f in failed.failures] == ["error"]
        assert report.results[1].ok


class TestSweepTimeout:
    def test_timeout_is_wall_clock_not_per_event(self, acc):
        """Regression: the old loop passed ``timeout`` to every
        ``events.get``, so a chatty worker reset the budget forever.
        Heartbeats are now *more* frequent than ever, and the sweep must
        still abort on schedule."""
        d, bp = acc
        t0 = time.monotonic()
        with pytest.raises(ShardError, match="timed out"):
            _sweep(d, bp, faults=FaultPlan(
                seed=0, rate=1.0, kinds=("hang",), at_cycle=5, hang_s=60.0,
            ), timeout=1.0)
        assert time.monotonic() - t0 < 15

    def test_timeout_names_unresolved_shards(self, acc):
        d, bp = acc
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), only_shards=(1,),
            at_cycle=5, hang_s=60.0,
        )
        with pytest.raises(ShardError, match=r"\[1\]"):
            _sweep(d, bp, faults=plan, timeout=1.5)

    def test_no_timeout_still_completes(self, acc):
        d, bp = acc
        report = _sweep(d, bp)
        assert report.ok and not report.retried


def test_a_forked_worker_never_collects_inherited_garbage(tmp_path):
    """Workers fork with the coordinator's objects frozen out of their
    collector: a cycle the coordinator left for its collector is
    finalized there, never in a worker, where freeing it could wait on a
    lock another coordinator thread held at the fork."""
    log = tmp_path / "finalized"

    class Canary:
        def __del__(self):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")

    gc.disable()  # keep the cycle uncollected until the fork
    try:
        canary = Canary()
        canary.cycle = canary
        del canary
        proc = multiprocessing.get_context("fork").Process(target=gc.collect)
        _start_frozen(proc)
        proc.join(timeout=10)
        assert proc.exitcode == 0
    finally:
        gc.enable()
    gc.collect()
    assert log.read_text().split() == [str(os.getpid())]
