"""Wire-format tests: shard specs, results, and events must round-trip
through the JSON-lines protocol byte-exactly."""

import json
import multiprocessing
import queue
import threading

import pytest

from repro.shard import (
    BreakpointSpec,
    ShardError,
    ShardResult,
    ShardSpec,
    WatchSpec,
    WireError,
    decode_line,
    done_event,
    encode_line,
    error_event,
    heartbeat_event,
    hit_event,
    make_sweep,
    progress_event,
    warning_event,
)
from repro.shard.coordinator import _pump_pipe
from repro.shard.wire import group_done_event, stats_event
from repro.symtable import BreakpointRec


def _full_spec() -> ShardSpec:
    return ShardSpec(
        shard_id=3,
        seed=1234,
        cycles=500,
        overrides={"en": 1, "mode": 2},
        breakpoints=(
            BreakpointSpec("a.py", 10),
            BreakpointSpec("b.py", 20, column=4, condition="acc > 3"),
        ),
        watchpoints=(WatchSpec("total", condition="new > old"),),
        reset_cycles=2,
        progress_every=100,
        hit_limit=50,
    )


class TestSpecRoundTrip:
    def test_spec_roundtrip(self):
        spec = _full_spec()
        assert ShardSpec.from_wire(spec.to_wire()) == spec

    def test_spec_roundtrip_through_line_encoding(self):
        """Spec dicts survive the actual byte-level framing."""
        import json

        spec = _full_spec()
        line = json.dumps(spec.to_wire()).encode() + b"\n"
        assert ShardSpec.from_wire(json.loads(line)) == spec

    def test_defaults_roundtrip(self):
        spec = ShardSpec(shard_id=0, seed=0, cycles=1)
        assert ShardSpec.from_wire(spec.to_wire()) == spec

    def test_result_roundtrip(self):
        res = ShardResult(
            shard_id=1, seed=7, cycles=100,
            hits=[{"time": 3, "filename": "a.py", "line": 10, "column": 0}],
            warnings=["w"], exit_code=2, wall_time_s=0.5,
            state_digest="ab12cd34ef56",
        )
        back = ShardResult.from_wire(res.to_wire())
        assert back == res
        assert back.ok
        assert back.state_digest == "ab12cd34ef56"

    def test_failed_result_roundtrip(self):
        res = ShardResult(shard_id=1, seed=7, cycles=0, error="boom")
        back = ShardResult.from_wire(res.to_wire())
        assert not back.ok and back.error == "boom"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ShardError):
            ShardSpec(shard_id=0, seed=0, cycles=-1)
        with pytest.raises(ShardError):
            ShardSpec(shard_id=0, seed=0, cycles=1, reset_cycles=-1)
        with pytest.raises(ShardError):
            make_sweep(0, 10)

    def test_make_sweep_seeds(self):
        specs = make_sweep(3, 10, seed_base=100)
        assert [s.seed for s in specs] == [100, 101, 102]
        assert [s.shard_id for s in specs] == [0, 1, 2]


class TestEventFraming:
    def test_every_event_kind_roundtrips(self):
        result = ShardResult(shard_id=2, seed=9, cycles=10)
        events = [
            hit_event(2, {"time": 1, "filename": "a.py", "line": 3, "column": 0}),
            progress_event(2, 50, 100, 4),
            warning_event(2, "condition unevaluable"),
            done_event(result),
            error_event(2, "worker blew up"),
        ]
        for ev in events:
            line = encode_line(ev)
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            assert decode_line(line) == ev

    def test_record_types_tunnel_like_the_symtable_wire(self):
        """Symbol-table record dataclasses embedded in an event survive,
        mirroring symtable/rpc.py's __type__ tagging."""
        rec = BreakpointRec(
            id=1, instance_id=2, instance_name="Top.a", filename="a.py",
            line=3, column=0, node="n", sink="s", enable="en", enable_src="en",
        )
        ev = hit_event(0, {"time": 0, "bp": rec})
        back = decode_line(encode_line(ev))
        assert back["record"]["bp"] == rec

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_line(b"not json at all\n")
        with pytest.raises(WireError):
            decode_line(b"[1,2,3]\n")
        with pytest.raises(WireError):
            decode_line(b'{"event": "nonsense"}\n')
        with pytest.raises(WireError):
            decode_line(b'{"event": ["done"]}\n')

    @pytest.mark.parametrize(
        "tagged",
        [
            {"__type__": "Nope"},
            {"__type__": "VarRec", "bogus": 1},
            {"__type__": ["VarRec"]},
        ],
        ids=["unknown", "bad-fields", "unhashable"],
    )
    def test_bad_record_tags_are_wire_errors(self, tagged):
        """A well-formed line with a bad tag is as corrupt as garbage."""
        line = json.dumps(hit_event(0, {"time": 0, "bp": tagged})).encode()
        with pytest.raises(WireError):
            decode_line(line + b"\n")


_REC = BreakpointRec(
    id=1, instance_id=2, instance_name="Top.a", filename="a.py",
    line=3, column=0, node="n", sink="s", enable="en", enable_src="en",
)
_RESULT = ShardResult(
    shard_id=2, seed=9, cycles=10, hits=[{"time": 1, "line": 3}],
    warnings=["w"], exit_code=0, wall_time_s=0.25, state_digest="abc123",
)
_RESULT_WIRE = (
    b'{"shard_id": 2, "seed": 9, "cycles": 10, "hits": [{"time": 1, '
    b'"line": 3}], "warnings": ["w"], "exit_code": 0, "wall_time_s": 0.25, '
    b'"error": null, "state_digest": "abc123", "timeline": null, '
    b'"attempts": 1, "failures": [], "obs": null}'
)

#: Each event kind next to the exact line the shard wire has always
#: written for it: the codec may get faster, never different.
PINNED = [
    (
        hit_event(2, {
            "time": 12, "filename": "a.py", "line": 3, "column": 0,
            "bp": _REC, "locals": {"x": 1, "y": [1, 2]}, "vars": [],
        }),
        b'{"event": "hit", "v": 1, "shard": 2, "record": {"time": 12, '
        b'"filename": "a.py", "line": 3, "column": 0, "bp": {"id": 1, '
        b'"instance_id": 2, "instance_name": "Top.a", "filename": "a.py", '
        b'"line": 3, "column": 0, "node": "n", "sink": "s", "enable": "en", '
        b'"enable_src": "en", "__type__": "BreakpointRec"}, "locals": '
        b'{"x": 1, "y": [1, 2]}, "vars": []}}\n',
    ),
    (
        progress_event(2, 50, 100, 4),
        b'{"event": "progress", "v": 1, "shard": 2, "done": 50, '
        b'"total": 100, "hits": 4}\n',
    ),
    (
        heartbeat_event(2, 25),
        b'{"event": "heartbeat", "v": 1, "shard": 2, "done": 25}\n',
    ),
    (
        warning_event(2, "condition unevaluable"),
        b'{"event": "warning", "v": 1, "shard": 2, '
        b'"message": "condition unevaluable"}\n',
    ),
    (
        done_event(_RESULT),
        b'{"event": "done", "v": 1, "shard": 2, "result": '
        + _RESULT_WIRE + b'}\n',
    ),
    (
        group_done_event(4, [_RESULT]),
        b'{"event": "done", "v": 1, "shard": 4, "result": {"shard_id": 4, '
        b'"group": [' + _RESULT_WIRE + b']}}\n',
    ),
    (
        error_event(2, "ConnectionError: gone", transient=True),
        b'{"event": "error", "v": 1, "shard": 2, '
        b'"message": "ConnectionError: gone", "transient": true}\n',
    ),
    (
        stats_event(2, {"metrics": {"metrics": []}, "spans": [], "pid": 1}),
        b'{"event": "stats", "v": 1, "shard": 2, "obs": {"metrics": '
        b'{"metrics": []}, "spans": [], "pid": 1}}\n',
    ),
]


class TestPinnedBytes:
    @pytest.mark.parametrize(
        "event, line", PINNED, ids=[e["event"] for e, _ in PINNED]
    )
    def test_encoding_is_unchanged(self, event, line):
        assert encode_line(event) == line
        assert decode_line(line) == event


class TestPump:
    def test_bad_tags_count_as_corrupt_then_eof(self):
        """A line that decodes to JSON but carries a bad tag must not kill
        the pump thread: the attempt still sees ``corrupt`` and ``eof``."""
        r_conn, w_conn = multiprocessing.Pipe(duplex=False)
        for tagged in ({"__type__": "Nope"}, {"__type__": "VarRec", "bogus": 1}):
            line = json.dumps(hit_event(0, {"time": 0, "bp": tagged}))
            w_conn.send_bytes(line.encode() + b"\n")
        w_conn.close()
        events: queue.Queue = queue.Queue()
        pump = threading.Thread(
            target=_pump_pipe, args=(r_conn, "w", events), daemon=True
        )
        pump.start()
        pump.join(timeout=10)
        assert not pump.is_alive()
        got = [events.get(timeout=1) for _ in range(3)]
        assert got == [("corrupt", "w", None)] * 2 + [("eof", "w", None)]
        assert events.empty()
