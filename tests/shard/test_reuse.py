"""Reused workers: a session forks at most ``workers`` processes, each
serving attempt after attempt, sweep after sweep, and reading the
session's in-memory symbol table, which it inherited at the fork.  Every
result still equals the inline run, and no worker outlives its session."""

import inspect
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from collections import Counter

import pytest

import repro
from repro.faults import FaultPlan
from repro.fpu import FpuCmp
from repro.hub import SessionOptions
from repro.shard import BreakpointSpec, RetryPolicy, ShardError, ShardSession
from repro.symtable import (
    SQLiteSymbolTable,
    SymbolTableInterface,
    write_symbol_table,
)

FAST = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.05)
CYCLES = 200


@pytest.fixture(scope="module")
def fpu():
    """The Sec. 4.2 hunt: the buggy FPU, broken inside ``when (wflags)``."""
    design = repro.compile(FpuCmp(buggy=True))
    path = inspect.getsourcefile(FpuCmp)
    with open(path, encoding="utf-8") as fh:
        line = next(
            n for n, text in enumerate(fh, 1)
            if "self.exc <<= dcmp.io.exceptionFlags" in text
        )
    return design, BreakpointSpec(path, line, condition="rm == 2")


def _hunt(design, bp, workers, shards=8, options=None, symtable=None, **kwargs):
    kwargs.setdefault("retry", FAST)
    with ShardSession(
        design, symtable=symtable, workers=workers, options=options
    ) as session:
        return session.sweep(shards, CYCLES, breakpoints=[bp], **kwargs)


def _outcome(report):
    return [
        (r.shard_id, r.seed, r.cycles, r.hits, r.state_digest)
        for r in report.results
    ]


def _worker_pids(report) -> set:
    return {s["pid"] for s in report.trace_spans() if s["proc"] != "coordinator"}


class TestReuse:
    @pytest.mark.parametrize("seed_base", [0, 8, 1000])
    def test_eight_shards_fork_two_workers(self, fpu, seed_base):
        design, bp = fpu
        forked = _hunt(
            design, bp, workers=2, seed_base=seed_base,
            options=SessionOptions(obs="trace"),
        )
        inline = _hunt(design, bp, workers=0, seed_base=seed_base)
        assert len(_worker_pids(forked)) == 2
        assert _outcome(forked) == _outcome(inline)
        assert sum(len(r.hits) for r in inline.results) > 0

    def test_killed_attempt_is_retried_on_a_fresh_worker(self, fpu):
        design, bp = fpu
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("kill",), only_shards=(3,),
            at_cycle=5, max_faulty_attempts=1,
        )
        hurt = _hunt(design, bp, workers=2, faults=plan)
        clean = _hunt(design, bp, workers=2)
        assert hurt.ok
        assert _outcome(hurt) == _outcome(clean)
        assert all(r.attempts == len(r.failures) + 1 for r in hurt.results)
        assert [f["class"] for f in hurt.results[3].failures] == ["crash"]

    def test_no_worker_outlives_its_session(self, fpu):
        design, bp = fpu
        with ShardSession(design, workers=2) as session:
            assert session.sweep(8, CYCLES, breakpoints=[bp], retry=FAST).ok
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_timed_out_sweep(self, fpu):
        design, bp = fpu
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), only_shards=(5,),
            at_cycle=5, hang_s=60.0,
        )
        with pytest.raises(ShardError, match="timed out"):
            _hunt(design, bp, workers=2, faults=plan, timeout=2.0)
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cores_under_fast_switching(self, fpu):
        """Thread switches every 10 µs interleave the pumps and the event
        loop as finely as they go: every event still reaches its own
        attempt, and every result equals the inline run."""
        design, bp = fpu
        events = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            forked = _hunt(
                design, bp, workers=4, shards=16, on_event=events.append,
                timeout=120.0,
            )
        finally:
            sys.setswitchinterval(interval)
        inline = _hunt(design, bp, workers=0, shards=16)
        assert _outcome(forked) == _outcome(inline)
        attempts = {r.shard_id: r.attempts for r in forked.results}
        assert events
        assert all(e["attempt"] == attempts[e["shard"]] for e in events)
        streamed = sorted(
            (e["shard"], e["record"]["time"])
            for e in events if e["event"] == "hit"
        )
        assert streamed == sorted(
            (s, rec["time"]) for s, rec in forked.iter_hits()
        )


class TestPool:
    """A session keeps its cleanly idle workers from one sweep to the
    next, until it closes."""

    def test_two_sweeps_run_on_the_same_two_pids(self, fpu):
        design, bp = fpu
        with ShardSession(
            design, workers=2, options=SessionOptions(obs="trace")
        ) as session:
            first = session.sweep(8, CYCLES, breakpoints=[bp], retry=FAST)
            second = session.sweep(
                8, CYCLES, seed_base=8, breakpoints=[bp], retry=FAST
            )
        assert len(_worker_pids(first)) == 2
        assert _worker_pids(second) == _worker_pids(first)
        assert _outcome(second) == _outcome(_hunt(design, bp, 0, seed_base=8))

    def test_a_listener_added_in_a_later_sweep_gets_hit_events(self, fpu):
        design, bp = fpu
        events = []
        with ShardSession(design, workers=2) as session:
            quiet = session.sweep(4, CYCLES, breakpoints=[bp], retry=FAST)
            loud = session.sweep(
                4, CYCLES, breakpoints=[bp], retry=FAST, on_event=events.append
            )
        assert _outcome(loud) == _outcome(quiet)
        streamed = sorted(
            (e["shard"], e["record"]["time"]) for e in events if e["event"] == "hit"
        )
        assert streamed
        assert streamed == sorted((s, rec["time"]) for s, rec in loud.iter_hits())

    def test_a_worker_killed_while_idle_costs_no_attempt(self, fpu):
        design, bp = fpu
        with ShardSession(
            design, workers=2, options=SessionOptions(obs="trace")
        ) as session:
            first = session.sweep(8, CYCLES, breakpoints=[bp], retry=FAST)
            victim = min(_worker_pids(first))
            os.kill(victim, signal.SIGKILL)
            give_up = time.monotonic() + 10.0
            while victim in {p.pid for p in multiprocessing.active_children()}:
                assert time.monotonic() < give_up, "the killed worker lives on"
                time.sleep(0.01)
            second = session.sweep(8, CYCLES, breakpoints=[bp], retry=FAST)
        assert second.ok
        assert all(r.attempts == 1 and not r.failures for r in second.results)
        assert _outcome(second) == _outcome(first)
        pids = _worker_pids(second)
        assert victim not in pids
        assert len(pids) == 2
        assert multiprocessing.active_children() == []


class _CountingTable(SymbolTableInterface):
    """A table that counts every query reaching it."""

    def __init__(self, table):
        self._table = table
        self._lock = threading.Lock()
        self.calls = Counter()

    def _ask(self, method, *args):
        with self._lock:
            self.calls[(method, args)] += 1
        return getattr(self._table, method)(*args)

    def breakpoints_at(self, filename, line, column=None):
        return self._ask("breakpoints_at", filename, line, column)

    def scope_variables(self, breakpoint_id):
        return self._ask("scope_variables", breakpoint_id)

    def resolve_scoped_var(self, breakpoint_id, name):
        return self._ask("resolve_scoped_var", breakpoint_id, name)

    def resolve_instance_var(self, instance_id, name):
        return self._ask("resolve_instance_var", instance_id, name)

    def instances(self):
        return self._ask("instances")

    def generator_variables(self, instance_id):
        return self._ask("generator_variables", instance_id)

    def all_breakpoints(self):
        return self._ask("all_breakpoints")

    def breakpoint(self, breakpoint_id):
        return self._ask("breakpoint", breakpoint_id)

    def filenames(self):
        return self._ask("filenames")

    def breakpoint_lines(self, filename):
        return self._ask("breakpoint_lines", filename)

    def attribute(self, name):
        return self._ask("attribute", name)


class TestMemo:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_query_reaches_the_source_once_per_session(self, fpu, workers):
        """The session copies its table once, at its first sweep; every
        shard of every sweep, inline or forked, reads the copy."""
        design, bp = fpu
        table = _CountingTable(SQLiteSymbolTable(write_symbol_table(design)))
        with ShardSession(design, symtable=table, workers=workers) as session:
            assert not table.calls  # building a session copies nothing
            first = session.sweep(8, CYCLES, breakpoints=[bp], retry=FAST)
            second = session.sweep(
                8, CYCLES, seed_base=8, breakpoints=[bp], retry=FAST
            )
        assert table.calls
        assert max(table.calls.values()) <= 1, table.calls
        assert _outcome(first) == _outcome(_hunt(design, bp, 0))
        assert _outcome(second) == _outcome(_hunt(design, bp, 0, seed_base=8))


class TestNoSocket:
    def test_forked_sweep_opens_no_connection(self, fpu, monkeypatch):
        """Workers forked after ``socket.create_connection`` is poisoned
        inherit the poison: the sweep still runs every shard once."""

        def poisoned(*args, **kwargs):
            raise ConnectionRefusedError("no socket in a shard sweep")

        design, bp = fpu
        monkeypatch.setattr(socket, "create_connection", poisoned)
        forked = _hunt(design, bp, workers=2, timeout=60.0)
        assert forked.ok
        assert all(r.attempts == 1 and not r.failures for r in forked.results)
        assert _outcome(forked) == _outcome(_hunt(design, bp, workers=0))
