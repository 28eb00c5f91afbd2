"""Shard specifications and per-shard results.

A :class:`ShardSpec` is everything one worker needs to run an independent
simulation of the coordinator's design: a stimulus seed, constant input
overrides (the "configuration" axis of a sweep), a run length, and the
breakpoint/watchpoint set to arm.  Specs and results both round-trip
through plain JSON dicts (``to_wire``/``from_wire``) so they travel the
same JSON-lines framing the symbol table RPC uses.

Stimulus is deterministic per seed: every cycle, each top-level input that
is not the clock, the reset, or an override is poked with
``Random(seed).getrandbits(width)``, inputs visited in sorted-name order.
That contract is what makes a shard run reproducible standalone — the
property tests pin shard output against a hand-written loop using nothing
but this paragraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.runtime import HitPlan, hit_record


class ShardError(Exception):
    """Raised on invalid shard specs or a failed shard session."""


class WireError(Exception):
    """Raised on an undecodable line or a malformed shard event.
    ``event`` names the line's event kind when it decoded far enough to
    tell (a line of another protocol version)."""

    def __init__(self, message: str, event: str | None = None):
        super().__init__(message)
        self.event = event


@dataclass(frozen=True, slots=True)
class BreakpointSpec:
    """One breakpoint to arm in a worker: a source location + condition."""

    filename: str
    line: int
    column: int | None = None
    condition: str | None = None

    def to_wire(self) -> dict:
        return {
            "filename": self.filename,
            "line": self.line,
            "column": self.column,
            "condition": self.condition,
        }

    @classmethod
    def from_wire(cls, d: dict) -> BreakpointSpec:
        return cls(
            filename=d["filename"],
            line=d["line"],
            column=d.get("column"),
            condition=d.get("condition"),
        )


@dataclass(frozen=True, slots=True)
class WatchSpec:
    """One watchpoint to arm in a worker."""

    name: str
    instance: str | None = None
    condition: str | None = None

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "condition": self.condition,
        }

    @classmethod
    def from_wire(cls, d: dict) -> WatchSpec:
        return cls(
            name=d["name"],
            instance=d.get("instance"),
            condition=d.get("condition"),
        )


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One shard of a sweep: what a single worker process runs."""

    shard_id: int
    seed: int
    cycles: int
    overrides: dict = field(default_factory=dict)   # input name -> held value
    breakpoints: tuple = ()                          # BreakpointSpec...
    watchpoints: tuple = ()                          # WatchSpec...
    reset_cycles: int = 1
    progress_every: int = 0                          # 0: coordinator default
    hit_limit: int | None = None                     # detach after N hits
    # Retain the last N cycles of compressed state history in the worker
    # and ship the serialized timeline home with the result: the
    # aggregator can then localize replica divergence to the first
    # divergent cycle and signal instead of a bare digest mismatch.
    # 0 disables (the default: history costs memory and wire bytes).
    timeline_cycles: int = 0

    def __post_init__(self):
        if self.cycles < 0:
            raise ShardError(f"shard {self.shard_id}: negative cycle count")
        if self.reset_cycles < 0:
            raise ShardError(f"shard {self.shard_id}: negative reset length")
        if self.timeline_cycles < 0:
            raise ShardError(f"shard {self.shard_id}: negative timeline length")

    def to_wire(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "seed": self.seed,
            "cycles": self.cycles,
            "overrides": dict(self.overrides),
            "breakpoints": [b.to_wire() for b in self.breakpoints],
            "watchpoints": [w.to_wire() for w in self.watchpoints],
            "reset_cycles": self.reset_cycles,
            "progress_every": self.progress_every,
            "hit_limit": self.hit_limit,
            "timeline_cycles": self.timeline_cycles,
        }

    @classmethod
    def from_wire(cls, d: dict) -> ShardSpec:
        return cls(
            shard_id=d["shard_id"],
            seed=d["seed"],
            cycles=d["cycles"],
            overrides=dict(d.get("overrides", {})),
            breakpoints=tuple(
                BreakpointSpec.from_wire(b) for b in d.get("breakpoints", [])
            ),
            watchpoints=tuple(
                WatchSpec.from_wire(w) for w in d.get("watchpoints", [])
            ),
            reset_cycles=d.get("reset_cycles", 1),
            progress_every=d.get("progress_every", 0),
            hit_limit=d.get("hit_limit"),
            timeline_cycles=d.get("timeline_cycles", 0),
        )


class HitRecords(list):
    """A shard's hit records (:meth:`~repro.core.runtime.HitGroup.to_record`
    dicts), kept as values until something reads them.

    The rows and plans are a :class:`~repro.core.runtime.HitRecorder`'s
    (``hits`` and ``plans``).  ``len()`` and truth answer from the rows;
    any other use renders every record once, after which this is a plain
    list of them, so iteration, indexing, ``==``, ``in``, mutation and
    ``json.dumps`` see exactly those dicts.  :meth:`to_wire` ships the
    rows and plans while nothing has rendered them, else the records.
    """

    __slots__ = ("_rows", "_plans")
    _rows: list | None  # None once rendered
    _plans: dict

    def __init__(self, rows=(), plans=None):
        super().__init__()
        self._rows = rows if type(rows) is list else list(rows)
        self._plans = plans if plans is not None else {}

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else list.__len__(self)

    def _render(self) -> HitRecords:
        rows = self._rows
        if rows is not None:
            plans = self._plans
            records = [hit_record(row, plans) for row in rows]
            self._rows = None
            self._plans = {}
            list.extend(self, records)
        return self

    def __radd__(self, other):
        # `plain + self` would read this list's storage, not its records.
        if not isinstance(other, list):
            return NotImplemented
        return list.__add__(other, self._render())

    def __reduce_ex__(self, protocol):
        if self._rows is None:
            return (HitRecords, (list(self),))
        return (HitRecords, (self._rows, self._plans))

    def to_wire(self) -> tuple[list, list]:
        """``(rows, plan wires)``: a row per hit, and each breakpoint's
        :meth:`HitPlan.to_wire` once."""
        if self._rows is None:
            return list(self), []
        return self._rows, [plan.to_wire() for plan in self._plans.values()]

    @classmethod
    def from_wire(cls, rows: list, plans: list) -> HitRecords:
        """Rows and plan wires off the wire, checked now (see
        :func:`check_hits`) so that no wire error waits for the first
        read."""
        table: dict = {}
        check_hits(rows, plans, table)
        return cls(rows, table)


def check_hits(rows: list, plans: list, table: dict) -> None:
    """Add the plan wires ``plans`` to ``table`` (breakpoint id ->
    :class:`~repro.core.runtime.HitPlan`), then check ``rows`` against
    it: every plan renders, every row is exactly ``[time, frames]`` with
    at least one frame, and every frame names a plan and carries as many
    values as its plan reads.  Raises :class:`WireError`."""
    try:
        for rec in plans:
            plan = HitPlan.from_wire(rec)
            plan.frame.record([None] * plan.values, 0)
            table[plan.frame.breakpoint_id] = plan
        for row in rows:
            if type(row) is dict:
                continue  # a frameless hit travels as its record
            _time, frames = row
            if not frames:
                raise WireError(f"malformed hit {row!r}")
            for bp, values in frames:
                plan = table.get(bp)
                if plan is None:
                    raise WireError(f"hit names unknown breakpoint {bp!r}")
                if len(values) != plan.values:
                    raise WireError(
                        f"breakpoint {bp} hit carries {len(values)} values, "
                        f"its plan reads {plan.values}"
                    )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise WireError(f"malformed hits: {exc!r}") from exc


def _rendering(name: str):
    """``list.<name>``, after rendering the records (and those of any
    other :class:`HitRecords` argument, whose storage the C method reads
    directly)."""
    method = getattr(list, name)

    def call(self, *args, **kwargs):
        self._render()
        for arg in args:
            if type(arg) is HitRecords:
                arg._render()
        return method(self, *args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = method.__doc__
    return call


for _name in (
    "__iter__", "__reversed__", "__getitem__", "__setitem__", "__delitem__",
    "__contains__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__",
    "__ge__", "__add__", "__mul__", "__rmul__", "__iadd__", "__imul__",
    "__repr__", "append", "clear", "copy", "count", "extend", "index",
    "insert", "pop", "remove", "reverse", "sort",
):
    setattr(HitRecords, _name, _rendering(_name))
del _name


@dataclass(slots=True)
class ShardResult:
    """What one worker reports back when its shard completes.

    ``attempts``/``failures`` are the supervision layer's provenance:
    how many attempts this shard consumed, and one record per failed
    attempt (``{"attempt", "class", "message", "elapsed_s"}``, see
    ``supervise.failure_record``).  A successful first try is the common
    case: ``attempts == 1``, ``failures == []``.  ``error`` is set only
    when the shard failed *terminally* — a retried-then-successful shard
    is ``ok`` with a non-empty failure history.

    ``hits`` yields the shard's :meth:`~repro.core.runtime.HitGroup.to_record`
    dicts.  A result ``run_shard`` made or the wire carried keeps them as
    values (:class:`HitRecords`) and builds the records on first read;
    ``len(result.hits)`` never builds them.
    """

    shard_id: int
    seed: int
    cycles: int                         # cycles actually run
    hits: list = field(default_factory=list)       # HitRecords, or records
    warnings: list = field(default_factory=list)
    exit_code: int | None = None        # design Stop code, when one fired
    wall_time_s: float = 0.0
    error: str | None = None            # set when the shard terminally failed
    state_digest: str | None = None     # final value-table fingerprint
    timeline: dict | None = None        # serialized Timeline.to_wire()
    attempts: int = 1                   # attempts consumed (incl. fallback)
    failures: list = field(default_factory=list)   # per-failed-attempt records
    obs: dict | None = None             # repro.obs dump (Obs.to_wire())

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retried(self) -> bool:
        """True when this shard needed more than one attempt."""
        return self.attempts > 1

    def to_wire(self) -> dict:
        hits, plans = (
            self.hits.to_wire() if isinstance(self.hits, HitRecords)
            else (self.hits, [])
        )
        return {
            "shard_id": self.shard_id,
            "seed": self.seed,
            "cycles": self.cycles,
            "hits": hits,
            "plans": plans,
            "warnings": self.warnings,
            "exit_code": self.exit_code,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
            "state_digest": self.state_digest,
            "timeline": self.timeline,
            "attempts": self.attempts,
            "failures": self.failures,
            "obs": self.obs,
        }

    @classmethod
    def from_wire(cls, d: dict) -> ShardResult:
        """A result off the wire; a malformed hit raises
        :class:`WireError` here, not at the first read."""
        return cls(
            shard_id=d["shard_id"],
            seed=d["seed"],
            cycles=d["cycles"],
            hits=HitRecords.from_wire(d.get("hits", []), d.get("plans", [])),
            warnings=list(d.get("warnings", [])),
            exit_code=d.get("exit_code"),
            wall_time_s=d.get("wall_time_s", 0.0),
            error=d.get("error"),
            state_digest=d.get("state_digest"),
            timeline=d.get("timeline"),
            attempts=d.get("attempts", 1),
            failures=list(d.get("failures", [])),
            obs=d.get("obs"),
        )


@dataclass(frozen=True, slots=True)
class WorldGroupSpec:
    """M shards packed into one worker attempt as scenario *worlds*.

    A world group rides the pool exactly like a single :class:`ShardSpec`
    (one process, one attempt token, one done event); the worker runs its
    members one after another, each as a scalar stimulus tape
    (:func:`~repro.shard.worker.run_world_group`).  Each member still
    reports its own :class:`ShardResult`, digest-identical to running it
    as a standalone shard.
    """

    members: tuple = ()                              # ShardSpec...

    def __post_init__(self):
        if not self.members:
            raise ShardError("a world group needs at least one member")
        first = self.members[0]
        for m in self.members[1:]:
            if m.cycles != first.cycles:
                raise ShardError(
                    "world group members must share a cycle count"
                )
            if m.reset_cycles != first.reset_cycles:
                raise ShardError(
                    "world group members must share reset_cycles"
                )
            if set(m.overrides) != set(first.overrides):
                raise ShardError(
                    "world group members must override the same inputs"
                )

    # A group impersonates its first member wherever the pool machinery
    # needs one id/seed/cycle-count per job (tokens, deadlines, faults).
    @property
    def shard_id(self) -> int:
        return self.members[0].shard_id

    @property
    def seed(self) -> int:
        return self.members[0].seed

    @property
    def cycles(self) -> int:
        return self.members[0].cycles

    @property
    def worlds(self) -> int:
        return len(self.members)

    def to_wire(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "worlds": [m.to_wire() for m in self.members],
        }

    @classmethod
    def from_wire(cls, d: dict) -> WorldGroupSpec:
        return cls(
            members=tuple(ShardSpec.from_wire(m) for m in d["worlds"])
        )


def group_worlds(specs: list[ShardSpec], worlds_per_shard: int) -> list:
    """Chunk a flat sweep into :class:`WorldGroupSpec` jobs of up to
    ``worlds_per_shard`` members each (the last group takes the
    remainder); ``worlds_per_shard <= 1`` returns the specs unchanged."""
    if worlds_per_shard <= 1:
        return list(specs)
    return [
        WorldGroupSpec(members=tuple(specs[i : i + worlds_per_shard]))
        for i in range(0, len(specs), worlds_per_shard)
    ]


def make_sweep(
    shards: int,
    cycles: int,
    seed_base: int = 0,
    overrides: dict | None = None,
    breakpoints=(),
    watchpoints=(),
    reset_cycles: int = 1,
    hit_limit: int | None = None,
    timeline_cycles: int = 0,
) -> list[ShardSpec]:
    """Build the canonical seed sweep: ``shards`` specs with seeds
    ``seed_base .. seed_base+shards-1`` and otherwise identical config."""
    if shards < 1:
        raise ShardError("a sweep needs at least one shard")
    return [
        ShardSpec(
            shard_id=i,
            seed=seed_base + i,
            cycles=cycles,
            overrides=dict(overrides or {}),
            breakpoints=tuple(breakpoints),
            watchpoints=tuple(watchpoints),
            reset_cycles=reset_cycles,
            hit_limit=hit_limit,
            timeline_cycles=timeline_cycles,
        )
        for i in range(shards)
    ]
