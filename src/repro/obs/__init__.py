"""repro.obs: zero-dependency observability for the whole stack.

The debugging framework's own runtime — compiled simulation, the shard
farm, the RPC symbol table — was the last opaque layer of the repo.  This
package makes it inspectable without adding a dependency or taxing the
per-cycle hot path:

``MetricsRegistry``
    counters, gauges, and fixed-bucket histograms with label sets, plus
    *collectors* — callbacks that lazily fold always-on plain-int counters
    (kept on hot objects like the simulator and the compiled design) into
    the registry only when a snapshot is taken.

``Tracer``
    span-based tracing.  Every span carries a wall-clock timestamp (for
    cross-process merging), a monotonic duration, and a process/shard
    identity, so coordinator and forked-worker spans land on one Perfetto
    timeline.

``Obs``
    the facade the instrumented layers hold.  Depth is selected by
    ``$REPRO_OBS=off|metrics|trace``, ``configure(mode)``, or an explicit
    ``SessionOptions(obs=...)`` / ``DebugHub(obs=...)`` argument.  The
    disabled mode is a true no-op fast path: hot loops increment plain
    Python ints unconditionally (cheaper than any guard) and everything
    else is an attribute check against the ``NULL_OBS`` singleton.

Exporters (``repro.obs.export``) emit Chrome trace-event JSON (loadable
in Perfetto / chrome://tracing) and Prometheus text exposition.  See
``docs/observability.md`` for the metric catalog and span naming scheme.
"""

from __future__ import annotations

from .core import (
    MODES,
    NULL_OBS,
    OBS_ENV,
    Obs,
    configure,
    configured_mode,
    make_obs,
    resolve_mode,
)
from .export import (
    format_metrics,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, merge_snapshots
from .tracer import SpanRecord, Tracer

__all__ = [
    "MODES",
    "NULL_OBS",
    "OBS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "SpanRecord",
    "Tracer",
    "configure",
    "configured_mode",
    "format_metrics",
    "make_obs",
    "merge_snapshots",
    "resolve_mode",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_prometheus",
]
