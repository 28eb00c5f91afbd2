"""repro.sim.timeline — the unified time-travel subsystem.

One :class:`Timeline` object owns compressed keyframe+delta state
history (pluggable ``raw``/``rle`` codecs, periodic keyframes, entry- or
byte-bounded retention) for the live simulator; :class:`FullTraceTimeline`
is the replay engine's zero-cost view of the same API; and
:func:`first_timeline_divergence` compares two serialized timelines for
the shard aggregator's stateful divergence localization.

See ``docs/time_travel.md`` for the architecture and codec trade-offs.
"""

from .codec import (
    CODEC_KINDS,
    DeltaCodec,
    RawCodec,
    RleCodec,
    make_codec,
    resolve_codec_kind,
)
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
    "CODEC_KINDS",
    "DeltaCodec",
    "FullTraceTimeline",
    "MEM_HISTORY_WORD_CAP",
    "RawCodec",
    "RleCodec",
    "Timeline",
    "TimelineEntry",
    "TimelineError",
    "TimelineView",
    "decode_timeline_states",
    "first_state_divergence",
    "first_timeline_divergence",
    "iter_wire_states",
    "make_codec",
    "resolve_codec_kind",
]
