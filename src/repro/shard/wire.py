"""The shard event wire protocol: JSON lines, one event per line.

Workers stream events to the coordinator over a pipe using the same
framing the symbol table RPC uses over TCP (``symtable/rpc.py``): every
message is one JSON object terminated by ``\\n``, and symbol-table record
types tunnel through the same ``__type__`` tagging, so a tool that can
read one wire can read the other.

Event shapes (all carry ``v`` — the protocol version — and ``shard``)::

    {"event": "hit",       "shard": N, "hit": [...], "plans": [...]}
    {"event": "progress",  "shard": N, "done": C, "total": T, "hits": H}
    {"event": "heartbeat", "shard": N, "done": C}             liveness tick
    {"event": "warning",   "shard": N, "message": "..."}
    {"event": "done",      "shard": N, "result": {...}}       ShardResult
    {"event": "error",     "shard": N, "message": "..."}      worker failed
    {"event": "stats",     "shard": N, "obs": {...}}          obs snapshot

This is protocol version 2.  :func:`decode_line` refuses an event of any
other version with a :class:`WireError`, and the coordinator counts such
a line as corrupt (a ``done`` settles its attempt as corrupt at once),
so a mixed-version peer fails loudly instead of being misread.

**Hits travel as values.**  A hit is a *row*: ``[time, [[breakpoint id,
values], ...]]``, one ``[id, values]`` pair per frame, the values in its
breakpoint's frame plan order (:meth:`~repro.core.frames.FrameBuilder.read`).
A hit without frames (a watch hit) travels as its record, with its small
``watch`` dict.  Each breakpoint's plan crosses once:
``{"column": C, "values": N, "plan": FramePlan.to_wire()}``
(:class:`~repro.core.runtime.HitPlan`), in the ``done`` result's
``plans`` beside its ``hits`` rows, and, on the streamed ``hit`` lines,
with the attempt's first hit of that breakpoint.  A hit's filename, line
and column are its first frame's plan's.  The receiving side checks every
frame against its plan when the line arrives (the plan must exist and the
value count match, :func:`~repro.shard.spec.check_hits`): a line that
fails is a :class:`WireError`, like one that does not decode.
:attr:`ShardResult.hits <repro.shard.spec.ShardResult.hits>` renders the
:meth:`~repro.core.runtime.HitGroup.to_record` dicts on first read, and
the coordinator renders each streamed hit (:class:`HitStream`), so an
``on_event`` listener sees ``{"event": "hit", "shard": N, "record":
{...}}`` — :func:`hit_event`, the shape an inline shard emits.  Workers
send ``hit`` lines only when the sweep has a listener.

``error`` reports the worker's own exception: a deterministic spec
failure (failure class ``error``, never retried).

``heartbeat`` is the supervision layer's liveness signal, and the
coordinator treats *any* event as proof of life — a worker silent past
the deadline policy's heartbeat timeout is declared hung and terminated.
A worker sends one when its setup is done, then from the run-loop
progress hook at most once per :data:`~repro.shard.worker.HEARTBEAT_S`
of wall time; an explicit ``ShardSpec.progress_every`` sends one at
every hook instead (see ``worker.py``).

When the spec asked for timeline streaming (``timeline_cycles > 0``) the
``done`` result additionally carries ``result["timeline"]`` — the
worker's compressed state history (``Timeline.to_wire``: keyframes +
run-length-encoded delta runs, plain JSON ints) — which the aggregator
feeds to :func:`repro.sim.timeline.first_timeline_divergence` for
stateful divergence localization.

A *world group* attempt (``WorldGroupSpec``: M shards packed into one
worker attempt, run one after another) settles with a single
``done`` whose result is ``{"shard_id": N, "group": [member result
wires...]}`` — see :func:`group_done_event`.

``stats`` carries a worker's final ``repro.obs`` dump (metrics snapshot
plus trace spans, ``Obs.to_wire``) just before ``done``; the same dump
also rides ``done.result["obs"]`` so the aggregated ``ShardReport`` works
for inline runs that never touch the wire.  Workers only emit it when an
obs mode is armed.
"""

from __future__ import annotations

import json

from ..core.runtime import hit_record
from ..symtable.rpc import _tag, _untag
from .spec import ShardResult, WireError, check_hits

PROTOCOL_VERSION = 2

_EVENTS = frozenset(
    {"hit", "progress", "heartbeat", "warning", "done", "error", "stats"}
)


def encode_line(obj: dict) -> bytes:
    """One message -> one JSON line (record types tagged for decode).

    The debug hub frames its requests and responses with this too, so
    hub and shard wires stay mutually readable."""
    return json.dumps(obj, default=_tag).encode() + b"\n"


def decode_message(data: bytes | str):
    """One JSON line -> the object it carries, records rebuilt.  Any
    line that does not decode, bad record tags included, raises
    :class:`WireError`."""
    try:
        return json.loads(data, object_hook=_untag)
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable line: {exc}") from exc


def decode_line(data: bytes | str) -> dict:
    """One JSON line -> one validated shard event dict, of this
    protocol version."""
    obj = decode_message(data)
    kind = obj.get("event") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _EVENTS:
        raise WireError(f"malformed shard event: {obj!r}")
    if obj.get("v") != PROTOCOL_VERSION:
        raise WireError(
            f"shard event of protocol version {obj.get('v')!r}, expected "
            f"{PROTOCOL_VERSION}: both sides must run the same repro",
            event=kind,
        )
    return obj


def _event(kind: str, shard_id: int, **fields) -> dict:
    ev = {"event": kind, "v": PROTOCOL_VERSION, "shard": shard_id}
    ev.update(fields)
    return ev


def hit_event(shard_id: int, record: dict) -> dict:
    """A hit as a listener sees it: its record."""
    return _event("hit", shard_id, record=record)


def hit_row_event(shard_id: int, row, plans) -> dict:
    """A hit as it crosses the wire: its row, and the
    :class:`~repro.core.runtime.HitPlan` of each breakpoint this is the
    attempt's first hit of."""
    ev = _event("hit", shard_id, hit=row)
    if plans:
        ev["plans"] = [plan.to_wire() for plan in plans]
    return ev


class HitStream:
    """One attempt's streamed ``hit`` lines, rendered for a listener: it
    keeps the plans the lines carry (per shard, since a world group's
    members stream through one attempt) and turns each row into its
    record."""

    def __init__(self):
        self._plans: dict[object, dict] = {}

    def render(self, event: dict) -> dict:
        """The listener's form of the decoded ``hit`` line ``event``
        (:func:`hit_event`).  Raises :class:`WireError` on a row its
        plans do not cover."""
        shard = event.get("shard")
        table = self._plans.setdefault(shard, {})
        row = event.get("hit")
        check_hits([row], event.get("plans", []), table)
        return hit_event(shard, hit_record(row, table))


def progress_event(shard_id: int, done: int, total: int, hits: int) -> dict:
    return _event("progress", shard_id, done=done, total=total, hits=hits)


def heartbeat_event(shard_id: int, done: int) -> dict:
    return _event("heartbeat", shard_id, done=done)


def warning_event(shard_id: int, message: str) -> dict:
    return _event("warning", shard_id, message=message)


def done_event(result: ShardResult) -> dict:
    return _event("done", result.shard_id, result=result.to_wire())


def done_results(event: dict) -> ShardResult | list[ShardResult]:
    """The :class:`ShardResult` of a decoded ``done`` event, or a world
    group's list of them, every hit checked against its plan.  Raises
    :class:`WireError` on a malformed result."""
    try:
        wire = event["result"]
        if "group" in wire:
            return [ShardResult.from_wire(member) for member in wire["group"]]
        return ShardResult.from_wire(wire)
    except (KeyError, TypeError, AttributeError) as exc:
        raise WireError(f"malformed shard result: {exc!r}") from exc


def group_done_event(shard_id: int, results: list[ShardResult]) -> dict:
    """A world group's single completion event.

    A group occupies one worker attempt, so (like any attempt) it settles
    with exactly one ``done`` line — its ``result`` carries a ``group``
    list of the member ``ShardResult`` wires instead of one flat result.
    """
    return _event(
        "done",
        shard_id,
        result={
            "shard_id": shard_id,
            "group": [r.to_wire() for r in results],
        },
    )


def error_event(shard_id: int, message: str) -> dict:
    return _event("error", shard_id, message=message)


def stats_event(shard_id: int, obs_wire: dict) -> dict:
    return _event("stats", shard_id, obs=obs_wire)
