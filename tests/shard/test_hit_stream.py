"""Hits cross the shard wire once.  A forked attempt streams ``hit`` lines
only when the sweep has an ``on_event`` listener; the ``done`` result
carries every hit either way, so the hits a sweep reports never depend on
whether anyone listened.  Both carry hits as values (protocol 2): the
records are compared after decoding, through ``ShardResult.from_wire``
and the coordinator's ``HitStream``."""

import time

import pytest

import repro
from repro.fpu import FpuCmp
from repro.shard import (
    BreakpointSpec,
    ShardResult,
    ShardSession,
    ShardSpec,
    decode_line,
    encode_line,
    run_shard,
)
from repro.shard.wire import HitStream
from repro.shard.worker import HEARTBEAT_S, worker_entry
from repro.sim import native
from repro.symtable import SQLiteSymbolTable, in_memory, write_symbol_table
from tests.helpers import Accumulator, line_of

needs_cc = pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)


@pytest.fixture(scope="module")
def acc():
    d = repro.compile(Accumulator())
    f, line = line_of(d, "acc")
    return d, SQLiteSymbolTable(write_symbol_table(d)), BreakpointSpec(f, line)


@pytest.fixture(scope="module")
def hunt():
    """The FPU bug hunt's design, table and armed 1000-cycle shard."""
    d = repro.compile(FpuCmp(buggy=True))
    f, line = line_of(d, "exc", "FpuCmp")
    spec = ShardSpec(
        shard_id=0, seed=5, cycles=1000,
        breakpoints=(BreakpointSpec(f, line, condition="rm == 2"),),
    )
    return d, SQLiteSymbolTable(write_symbol_table(d)), spec


class _Pipe:
    """The write end of a worker's pipe, kept in memory."""

    def __init__(self):
        self.lines: list[bytes] = []

    def send_bytes(self, data: bytes) -> None:
        self.lines.append(data)

    def close(self) -> None:
        pass


def _lines(d, st, spec: ShardSpec, listening: bool) -> tuple[list, float]:
    """Run ``worker_entry`` in this process — the main of a forked
    attempt, reading the in-memory copy of ``st`` a worker inherits — and
    return the lines it sent and its wall time."""
    pipe = _Pipe()
    table = in_memory(st)
    t0 = time.monotonic()
    worker_entry(d.low, None, spec.to_wire(), table, pipe, listening=listening)
    return pipe.lines, time.monotonic() - t0


def _attempt(d, st, spec: ShardSpec, listening: bool) -> list[dict]:
    """The events one attempt sent (see :func:`_lines`)."""
    return [decode_line(line) for line in _lines(d, st, spec, listening)[0]]


class TestAttemptEvents:
    def _spec(self, bp):
        return ShardSpec(
            shard_id=3, seed=5, cycles=40, overrides={"en": 1},
            breakpoints=(bp,), progress_every=10,
        )

    def test_no_listener_sends_no_hit_lines(self, acc):
        d, st, bp = acc
        spec = self._spec(bp)
        events = _attempt(d, st, spec, listening=False)
        kinds = [e["event"] for e in events]
        assert "hit" not in kinds
        assert kinds.count("heartbeat") >= 4
        assert kinds.count("progress") == 4
        assert kinds[-1] == "done"
        reference = run_shard(d.low, st, spec)
        assert reference.hits  # the breakpoint fires every cycle
        assert ShardResult.from_wire(events[-1]["result"]).hits == reference.hits

    def test_listener_stream_unchanged(self, acc):
        d, st, bp = acc
        spec = self._spec(bp)
        events = _attempt(d, st, spec, listening=True)
        stream = HitStream()
        streamed = [
            stream.render(e)["record"] for e in events if e["event"] == "hit"
        ]
        quiet = _attempt(d, st, spec, listening=False)
        heard = ShardResult.from_wire(events[-1]["result"])
        assert streamed == heard.hits
        # Apart from the hit lines, both attempts send the same events
        # (a done result differs only in its wall time).
        assert [e for e in events[:-1] if e["event"] != "hit"] == quiet[:-1]
        assert heard.hits == ShardResult.from_wire(quiet[-1]["result"]).hits
        # Each breakpoint's plan rides the attempt's first hit line only.
        assert ["plans" in e for e in events if e["event"] == "hit"] == [
            True
        ] + [False] * (len(streamed) - 1)


class TestSweepHits:
    def test_forked_hits_equal_with_and_without_listener(self, acc):
        d, _st, bp = acc
        kwargs = dict(shards=4, cycles=40, breakpoints=[bp], overrides={"en": 1})
        events: list = []
        with ShardSession(d, workers=2) as session:
            quiet = session.sweep(**kwargs)
            heard = session.sweep(**kwargs, on_event=events.append)
        with ShardSession(d, workers=0) as session:
            inline = session.sweep(**kwargs)
        hits = [[r.hits for r in rep.results] for rep in (quiet, heard, inline)]
        assert hits[0] == hits[1] == hits[2]
        assert all(hits[0])
        streamed = sorted(
            (e["shard"], e["record"]["time"]) for e in events if e["event"] == "hit"
        )
        assert streamed == sorted((s, rec["time"]) for s, rec in heard.iter_hits())


class TestHuntAttempt:
    def test_done_line_bytes_per_hit_fall_5x(self, hunt):
        """The hunt's hits cost at least 5x fewer bytes on the done line
        than the same hits as protocol 1 records (``Frame.to_dict``
        trees)."""
        d, st, spec = hunt
        done = _lines(d, st, spec, listening=False)[0][-1]
        result = ShardResult.from_wire(decode_line(done)["result"])
        assert len(result.hits) > 80
        v1 = result.to_wire()
        del v1["plans"]
        v1["hits"] = list(result.hits)
        v1_line = encode_line({"event": "done", "v": 1, "shard": 0, "result": v1})
        assert len(v1_line) >= 5 * len(done)

    def test_default_cadence_heartbeats_by_the_clock(self, hunt):
        """At the default cadence an attempt sends exactly four progress
        lines, the setup heartbeat, and at most one more heartbeat per
        HEARTBEAT_S of its wall time."""
        d, st, spec = hunt
        lines, wall = _lines(d, st, spec, listening=False)
        kinds = [decode_line(x)["event"] for x in lines]
        assert kinds.count("progress") == 4
        assert 1 <= kinds.count("heartbeat") <= 1 + wall / HEARTBEAT_S
        assert kinds[-1] == "done"

    @needs_cc
    def test_plain_shard_runs_its_tape_in_four_kernel_calls(self, hunt, monkeypatch):
        """Every progress hook ends a kernel call, so the default cadence
        runs a plain 1000-cycle shard with an ``emit`` sink (as every
        forked attempt has) in at most four calls, and still sends four
        progress events."""
        d, st, _spec = hunt
        calls = []
        run = native.Kernel.run

        def counted(kernel, *args, **kwargs):
            calls.append(args[3])  # the cycles asked for
            return run(kernel, *args, **kwargs)

        monkeypatch.setattr(native.Kernel, "run", counted)
        events: list = []
        spec = ShardSpec(shard_id=0, seed=5, cycles=1000)
        result = run_shard(d.low, st, spec, emit=events.append)
        assert result.cycles == sum(calls) == 1000
        assert len(calls) <= 4, calls
        assert [e["event"] for e in events].count("progress") == 4

    def test_explicit_cadence_beats_at_every_hook(self, hunt):
        d, st, spec = hunt
        spec = ShardSpec(shard_id=0, seed=6, cycles=100, progress_every=10)
        kinds = [e["event"] for e in _attempt(d, st, spec, listening=False)]
        assert kinds.count("heartbeat") == 1 + 10
        assert kinds.count("progress") == 10
