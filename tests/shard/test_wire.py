"""Wire-format tests: shard specs, results, and events must round-trip
through the JSON-lines protocol byte-exactly."""

import copy
import json
import multiprocessing
import pickle
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
from repro.core import HitPlan
from repro.core.frames import FramePlan
from repro.shard import PROTOCOL_VERSION
from repro.shard.coordinator import _pump_pipe
from repro.shard.spec import HitRecords
from repro.shard.wire import (
    HitStream,
    done_results,
    group_done_event,
    hit_row_event,
    stats_event,
)
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
    b'"line": 3}], "plans": [], "warnings": ["w"], "exit_code": 0, '
    b'"wall_time_s": 0.25, "error": null, "state_digest": "abc123", '
    b'"timeline": null, "attempts": 1, "failures": [], "obs": null}'
)
#: A breakpoint's plan as the wire carries it (JSON lists, no paths): one
#: value read from Top.a.x, and one constant.
_PLAN = HitPlan(
    FramePlan(
        1, "Top.a", "a.py", 3,
        local=[["x", 0, "Top.a.x", []]],
        generator=[["width", 1, None, []]],
        constants=[8],
    ),
    column=0,
    values=1,
)
_PLAN_WIRE = (
    b'{"column": 0, "values": 1, "plan": {"breakpoint_id": 1, '
    b'"instance": "Top.a", "filename": "a.py", "line": 3, "local": '
    b'[["x", 0, "Top.a.x", []]], "generator": [["width", 1, null, []]], '
    b'"constants": [8]}}'
)
_WATCH_RECORD = {
    "time": 13, "filename": "<watch>", "line": 0, "column": 0,
    "watch": {"id": 1},
}


def _rows_result() -> ShardResult:
    """A result whose hits are still rows (reading them renders them)."""
    return ShardResult(
        shard_id=2, seed=9, cycles=10,
        hits=HitRecords([[12, [[1, [5]]]], dict(_WATCH_RECORD)], {1: _PLAN}),
        state_digest="abc123",
    )


#: Each event kind next to the exact line protocol 2 writes for it: the
#: codec may get faster, never different.
PINNED = [
    (
        hit_row_event(2, [12, [[1, [5]]]], [_PLAN]),
        b'{"event": "hit", "v": 2, "shard": 2, "hit": [12, [[1, [5]]]], '
        b'"plans": [' + _PLAN_WIRE + b']}\n',
    ),
    (
        hit_row_event(2, [13, [[1, [6]]]], []),
        b'{"event": "hit", "v": 2, "shard": 2, "hit": [13, [[1, [6]]]]}\n',
    ),
    (
        hit_event(2, {
            "time": 12, "filename": "a.py", "line": 3, "column": 0,
            "bp": _REC, "locals": {"x": 1, "y": [1, 2]}, "vars": [],
        }),
        b'{"event": "hit", "v": 2, "shard": 2, "record": {"time": 12, '
        b'"filename": "a.py", "line": 3, "column": 0, "bp": {"id": 1, '
        b'"instance_id": 2, "instance_name": "Top.a", "filename": "a.py", '
        b'"line": 3, "column": 0, "node": "n", "sink": "s", "enable": "en", '
        b'"enable_src": "en", "__type__": "BreakpointRec"}, "locals": '
        b'{"x": 1, "y": [1, 2]}, "vars": []}}\n',
    ),
    (
        progress_event(2, 50, 100, 4),
        b'{"event": "progress", "v": 2, "shard": 2, "done": 50, '
        b'"total": 100, "hits": 4}\n',
    ),
    (
        heartbeat_event(2, 25),
        b'{"event": "heartbeat", "v": 2, "shard": 2, "done": 25}\n',
    ),
    (
        warning_event(2, "condition unevaluable"),
        b'{"event": "warning", "v": 2, "shard": 2, '
        b'"message": "condition unevaluable"}\n',
    ),
    (
        done_event(_RESULT),
        b'{"event": "done", "v": 2, "shard": 2, "result": '
        + _RESULT_WIRE + b'}\n',
    ),
    (
        done_event(_rows_result()),
        b'{"event": "done", "v": 2, "shard": 2, "result": {"shard_id": 2, '
        b'"seed": 9, "cycles": 10, "hits": [[12, [[1, [5]]]], {"time": 13, '
        b'"filename": "<watch>", "line": 0, "column": 0, "watch": {"id": 1}}], '
        b'"plans": [' + _PLAN_WIRE + b'], "warnings": [], "exit_code": null, '
        b'"wall_time_s": 0.0, "error": null, "state_digest": "abc123", '
        b'"timeline": null, "attempts": 1, "failures": [], "obs": null}}\n',
    ),
    (
        group_done_event(4, [_RESULT]),
        b'{"event": "done", "v": 2, "shard": 4, "result": {"shard_id": 4, '
        b'"group": [' + _RESULT_WIRE + b']}}\n',
    ),
    (
        error_event(2, "DebuggerError: no breakpoint at x.py:1"),
        b'{"event": "error", "v": 2, "shard": 2, '
        b'"message": "DebuggerError: no breakpoint at x.py:1"}\n',
    ),
    (
        stats_event(2, {"metrics": {"metrics": []}, "spans": [], "pid": 1}),
        b'{"event": "stats", "v": 2, "shard": 2, "obs": {"metrics": '
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

    def test_rows_render_the_records(self):
        """A done line's rows render, through their plan, the records the
        hits had before they crossed."""
        back = done_results(decode_line(encode_line(done_event(_rows_result()))))
        assert back.hits == [
            {
                "time": 12, "filename": "a.py", "line": 3, "column": 0,
                "frames": [{
                    "breakpoint_id": 1, "instance": "Top.a",
                    "filename": "a.py", "line": 3, "time": 12,
                    "local": [{"name": "x", "value": 5, "rtl": "Top.a.x"}],
                    "generator": [
                        {"name": "width", "value": 8, "rtl": None}
                    ],
                }],
            },
            _WATCH_RECORD,
        ]
        assert back == _rows_result()


class TestHitRecords:
    def test_len_and_truth_do_not_render(self):
        hits = _rows_result().hits
        assert len(hits) == 2 and hits
        assert not HitRecords([])
        assert list.__len__(hits) == 0  # nothing rendered yet
        rows, plans = hits.to_wire()
        assert rows[0] == [12, [[1, [5]]]]
        assert plans == [_PLAN.to_wire()]

    @pytest.mark.parametrize(
        "read",
        [
            list,
            lambda h: h[:],
            lambda h: [h[0], h[-1]],
            lambda h: json.loads(json.dumps(h)),
            lambda h: json.loads(json.dumps(h, indent=1)),
            lambda h: [] + h,
            lambda h: h + [],
            lambda h: list(reversed(h))[::-1],
            lambda h: h.copy(),
            copy.copy,
            copy.deepcopy,
            lambda h: pickle.loads(pickle.dumps(h)),
        ],
        ids=[
            "list", "slice", "index", "json", "json-indent", "radd", "add",
            "reversed", "copy", "copy.copy", "deepcopy", "pickle",
        ],
    )
    def test_every_read_sees_the_records(self, read):
        records = list(_rows_result().hits)
        assert records[0]["frames"][0]["local"][0]["value"] == 5
        assert read(_rows_result().hits) == records

    def test_comparisons_render_both_sides(self):
        records = list(_rows_result().hits)
        assert _rows_result().hits == records
        assert records == _rows_result().hits
        assert _rows_result().hits == _rows_result().hits
        assert not (_rows_result().hits != records)
        assert records[0] in _rows_result().hits
        assert repr(_rows_result().hits) == repr(records)

    def test_mutation_after_render_ships_the_records(self):
        hits = _rows_result().hits
        hits.append({"time": 99})
        assert len(hits) == 3
        rows, plans = hits.to_wire()
        assert rows[-1] == {"time": 99} and plans == []
        result = ShardResult(2, 9, 10, hits=hits)
        assert ShardResult.from_wire(result.to_wire()) == result


class TestVersion:
    def test_protocol_is_2(self):
        assert PROTOCOL_VERSION == 2

    def test_v1_done_line_refused(self):
        """A line of the previous protocol names both versions."""
        line = (
            b'{"event": "done", "v": 1, "shard": 2, "result": '
            + _RESULT_WIRE.replace(b'"plans": [], ', b"") + b'}\n'
        )
        with pytest.raises(WireError, match=r"version 1, expected 2"):
            decode_line(line)

    @pytest.mark.parametrize("v", [None, 3, "2"])
    def test_other_versions_refused(self, v):
        event = dict(heartbeat_event(2, 25), v=v)
        with pytest.raises(WireError, match="expected 2"):
            decode_line(json.dumps(event).encode() + b"\n")

    def test_v2_line_roundtrips(self):
        line = encode_line(done_event(_rows_result()))
        event = decode_line(line)
        assert event["v"] == 2
        assert done_results(event) == _rows_result()

    def test_pump_counts_a_foreign_version_as_corrupt(self):
        r_conn, w_conn = multiprocessing.Pipe(duplex=False)
        w_conn.send_bytes(
            json.dumps(dict(heartbeat_event(0, 1), v=1)).encode() + b"\n"
        )
        w_conn.send_bytes(encode_line(heartbeat_event(0, 2)))
        w_conn.close()
        events: queue.Queue = queue.Queue()
        _pump_pipe(r_conn, "w", events)
        got = [events.get(timeout=1) for _ in range(3)]
        assert got == [
            ("corrupt", "w", "heartbeat"),  # the kind the line told
            ("event", "w", heartbeat_event(0, 2)),
            ("eof", "w", None),
        ]


def _rows_wire(**changes) -> dict:
    wire = _rows_result().to_wire()
    wire.update(changes)
    return json.loads(json.dumps(wire))


class TestMalformedRows:
    """A v2 hit that its plans do not cover makes the line a wire error
    when it arrives, not at the first read of the records."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"hits": [[12, [[7, [5]]]]]},           # unknown breakpoint id
            {"hits": [[12, [[1, [5, 6]]]]]},        # too many values
            {"hits": [[12, [[1, []]]]]},            # too few values
            {"plans": []},                          # no plan at all
            {"hits": [[12, []]]},                   # a row without frames
            {"hits": [[12, [[1, [5]]], [0]]]},       # a world list
            {"hits": [[12, [[1, [5]]], []]]},        # an empty world list
            {"hits": [[12, [[1, [5]]], [0], [1]]]},  # two world lists
            {"hits": [12]},                         # not a row
            {"hits": [[12]]},                       # a row of a time only
            {"hits": [[12, [[[1], [5]]]]]},         # unhashable id
            {"plans": [{"column": 0, "values": 1}]},             # no plan
            {"plans": [{"column": 0, "values": 2, "plan": {}}]},  # bad plan
        ],
        ids=[
            "unknown-id", "extra-value", "missing-value", "no-plans",
            "no-frames", "world-list", "empty-world-list", "worlds",
            "scalar", "time-only", "unhashable", "plan-missing",
            "plan-fields",
        ],
    )
    def test_result_refused(self, changes):
        with pytest.raises(WireError):
            ShardResult.from_wire(_rows_wire(**changes))
        event = json.loads(encode_line(done_event(_rows_result())))
        event["result"] = _rows_wire(**changes)
        with pytest.raises(WireError):
            done_results(decode_line(json.dumps(event).encode()))

    def test_plan_slot_out_of_range_refused(self):
        """A plan whose tree names a slot past its values and constants
        could never render."""
        bad = _PLAN.to_wire()
        bad["plan"] = dict(bad["plan"], constants=[])
        with pytest.raises(WireError):
            ShardResult.from_wire(_rows_wire(plans=[bad]))

    def test_stream_refuses_a_row_before_its_plan(self):
        stream = HitStream()
        with pytest.raises(WireError):
            stream.render(hit_row_event(2, [13, [[1, [6]]]], []))
        first = stream.render(hit_row_event(2, [12, [[1, [5]]]], [_PLAN]))
        later = stream.render(hit_row_event(2, [13, [[1, [6]]]], []))
        assert first["record"]["frames"][0]["local"][0]["value"] == 5
        assert later["record"]["time"] == 13
        # Plans are per shard: another member of a world group attempt
        # has sent none yet.
        with pytest.raises(WireError):
            stream.render(hit_row_event(3, [13, [[1, [6]]]], []))


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
