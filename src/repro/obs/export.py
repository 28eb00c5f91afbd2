"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

Chrome trace-event format (the JSON Array / Object format consumed by
Perfetto and chrome://tracing): each span becomes a complete event
(``"ph": "X"``) with microsecond timestamps.  Wall-clock times are
normalized to the earliest span across *all* processes, so coordinator
and worker spans line up on one timeline; ``pid`` keys the per-process
tracks and ``"M"`` metadata events give them human names ("coordinator",
"shard 3"; a worker that served several shards is named after each,
"shard 0, shard 2").

Prometheus text exposition: ``# HELP``/``# TYPE`` headers, cumulative
``_bucket{le="..."}`` series plus ``_sum``/``_count`` for histograms.
"""

from __future__ import annotations

import json
from collections.abc import Iterable


def _span_dicts(spans: Iterable) -> list[dict]:
    out = []
    for s in spans:
        out.append(s if isinstance(s, dict) else s.to_wire())
    return out


def to_chrome_trace(spans: Iterable) -> dict:
    """Build a Chrome trace-event document from spans (records or dicts)."""
    spans = _span_dicts(spans)
    events: list[dict] = []
    t0 = min((s["wall"] for s in spans), default=0.0)
    seen_procs: dict[int, list[str]] = {}
    for s in spans:
        pid = int(s["pid"])
        names = seen_procs.setdefault(pid, [])
        proc = s.get("proc") or f"pid {pid}"
        if proc not in names:
            names.append(proc)
        events.append(
            {
                "name": s["name"],
                "ph": "X",
                "ts": (s["wall"] - t0) * 1e6,
                "dur": s["dur"] * 1e6,
                "pid": pid,
                "tid": 1,
                "args": s.get("args", {}),
            }
        )
    for pid, names in sorted(seen_procs.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": ", ".join(names)},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(spans), fh)
        fh.write("\n")


def _esc(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, str(v)) for k, v in sorted(labels.items())] + list(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_esc(v)}"' for k, v in pairs) + "}"


def _fmt_num(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def to_prometheus(snapshot: dict) -> str:
    """Render a metrics snapshot as Prometheus text exposition format."""
    lines: list[str] = []
    headered: set[str] = set()
    for m in snapshot.get("metrics", ()):
        name, kind, labels = m["name"], m["type"], m.get("labels", {})
        if name not in headered:
            headered.add(name)
            if m.get("help"):
                lines.append(f"# HELP {name} {_esc(m['help'])}")
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_label_str(labels)} {_fmt_num(m['value'])}")
        elif kind == "histogram":
            cum = 0
            for bound, cnt in zip(m["bounds"], m["counts"]):
                cum += cnt
                le = _fmt_num(float(bound))
                lines.append(f"{name}_bucket{_label_str(labels, (('le', le),))} {cum}")
            cum += m["counts"][len(m["bounds"])]
            lines.append(f"{name}_bucket{_label_str(labels, (('le', '+Inf'),))} {cum}")
            lines.append(f"{name}_sum{_label_str(labels)} {_fmt_num(m['sum'])}")
            lines.append(f"{name}_count{_label_str(labels)} {m['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, snapshot: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus(snapshot))


def format_metrics(snapshot: dict) -> str:
    """Human-readable one-line-per-series table for consoles and CLIs."""
    lines: list[str] = []
    for m in snapshot.get("metrics", ()):
        label = _label_str(m.get("labels", {}))
        if m["type"] == "histogram":
            count = m["count"]
            mean = (m["sum"] / count) if count else 0.0
            lines.append(f"  {m['name']}{label}  count={count} sum={m['sum']:.6g} mean={mean:.6g}")
        else:
            lines.append(f"  {m['name']}{label}  {_fmt_num(m['value'])}")
    return "\n".join(lines)
