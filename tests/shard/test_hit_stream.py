"""Hits cross the shard wire once.  A forked attempt streams ``hit`` lines
only when the sweep has an ``on_event`` listener; the ``done`` result
carries every hit either way, so the hits a sweep reports never depend on
whether anyone listened."""

import pytest

import repro
from repro.shard import BreakpointSpec, ShardSession, ShardSpec, decode_line, run_shard
from repro.shard.worker import worker_entry
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from repro.symtable.rpc import SymbolTableServer
from tests.helpers import Accumulator, line_of


@pytest.fixture(scope="module")
def acc():
    d = repro.compile(Accumulator())
    f, line = line_of(d, "acc")
    return d, SQLiteSymbolTable(write_symbol_table(d)), BreakpointSpec(f, line)


class _Pipe:
    """The write end of a worker's pipe, kept in memory."""

    def __init__(self):
        self.lines: list[bytes] = []

    def send_bytes(self, data: bytes) -> None:
        self.lines.append(data)

    def close(self) -> None:
        pass


def _attempt(d, st, spec: ShardSpec, listening: bool) -> list[dict]:
    """Run ``worker_entry`` in this process — the main of a forked
    attempt, symbol table over RPC — and return the events it sent."""
    pipe = _Pipe()
    with SymbolTableServer(st) as server:
        host, port = server.address
        worker_entry(
            d.low, None, spec.to_wire(), host, port, pipe, listening=listening
        )
    return [decode_line(line) for line in pipe.lines]


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
        assert events[-1]["result"]["hits"] == reference.hits

    def test_listener_stream_unchanged(self, acc):
        d, st, bp = acc
        spec = self._spec(bp)
        events = _attempt(d, st, spec, listening=True)
        streamed = [e["record"] for e in events if e["event"] == "hit"]
        quiet = _attempt(d, st, spec, listening=False)
        assert streamed == events[-1]["result"]["hits"]
        # Apart from the hit lines, both attempts send the same events
        # (a done result differs only in its wall time).
        assert [e for e in events[:-1] if e["event"] != "hit"] == quiet[:-1]
        assert events[-1]["result"]["hits"] == quiet[-1]["result"]["hits"]


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
