"""repro.shard — a multi-process simulation farm with one debugging view.

The first service-shaped layer on top of the hgdb runtime: a coordinator
elaborates a design once and copies its symbol table into memory once;
forked worker processes inherit both and each run an independent
seed/config shard with their own ``Simulator`` + ``Runtime``; hits stream
back as JSON-lines events and aggregate into cross-shard reports
(first-hit-per-breakpoint, per-shard histograms, divergence detection).

Quickstart::

    import repro
    from repro.shard import ShardSession, BreakpointSpec

    design = repro.compile(MyModule())
    with ShardSession(design, workers=4) as session:
        report = session.sweep(
            shards=4, cycles=10_000,
            breakpoints=[BreakpointSpec("my_module.py", 42)],
        )
    print(report.summary())

See ``docs/sharding.md`` for the architecture and wire protocol.
"""

from .aggregate import (
    Divergence,
    FirstHit,
    ShardReport,
    TimelineDivergence,
    frame_digest,
    location_of,
)
from .coordinator import ShardSession, default_workers
from .spec import (
    BreakpointSpec,
    ShardError,
    ShardResult,
    ShardSpec,
    WatchSpec,
    WorldGroupSpec,
    group_worlds,
    make_sweep,
)
from .supervise import (
    DeadlinePolicy,
    RetryPolicy,
    as_deadline_policy,
    failure_record,
)
from .wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_line,
    done_event,
    encode_line,
    error_event,
    heartbeat_event,
    hit_event,
    progress_event,
    warning_event,
)
from .worker import (
    make_stimulus,
    run_shard,
    run_world_group,
    stimulus_inputs,
)

__all__ = [
    "BreakpointSpec",
    "DeadlinePolicy",
    "Divergence",
    "FirstHit",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "ShardError",
    "ShardReport",
    "ShardResult",
    "ShardSession",
    "ShardSpec",
    "TimelineDivergence",
    "WatchSpec",
    "WireError",
    "WorldGroupSpec",
    "as_deadline_policy",
    "decode_line",
    "default_workers",
    "done_event",
    "encode_line",
    "error_event",
    "failure_record",
    "frame_digest",
    "group_worlds",
    "heartbeat_event",
    "hit_event",
    "location_of",
    "make_stimulus",
    "make_sweep",
    "progress_event",
    "run_shard",
    "run_world_group",
    "stimulus_inputs",
    "warning_event",
]
