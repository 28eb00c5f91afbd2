"""repro.sim.timeline — the unified time-travel subsystem.

One :class:`Timeline` object owns the live simulator's last N cycles of
keyframe+delta state history; :class:`FullTraceTimeline` is the replay
engine's zero-cost view of the same API; and
:func:`first_timeline_divergence` compares two serialized timelines for
the shard aggregator's stateful divergence localization.

See ``docs/time_travel.md`` for the architecture and sizing.
"""

from .timeline import (
    MEM_HISTORY_WORD_CAP,
    FullTraceTimeline,
    Timeline,
    TimelineEntry,
    TimelineError,
    TimelineView,
    decode_timeline_states,
    first_state_divergence,
    first_timeline_divergence,
    iter_wire_states,
)

__all__ = [
    "FullTraceTimeline",
    "MEM_HISTORY_WORD_CAP",
    "Timeline",
    "TimelineEntry",
    "TimelineError",
    "TimelineView",
    "decode_timeline_states",
    "first_state_divergence",
    "first_timeline_divergence",
    "iter_wire_states",
]
