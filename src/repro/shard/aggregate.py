"""Cross-shard aggregation: merge per-shard hit records into one view.

The coordinator hands every :class:`~repro.shard.spec.ShardResult` to a
:class:`ShardReport`, which answers the questions a sweep is run for:

* **first hits** — the earliest (cycle, shard) at which each breakpoint
  location fired anywhere in the sweep (bug triage: "which seed reaches
  the assertion fastest?");
* **histograms** — per-location hit counts broken down by shard
  (coverage: "which configs exercise this branch at all?");
* **divergence** — shards that hit the same source location at the same
  cycle with *different* frame values.  For replicated shards (same seed,
  same config) any divergence is a determinism bug; for seed sweeps it
  marks where behaviors split.
* **timeline divergence** — when shards streamed their compressed state
  history (``ShardSpec.timeline_cycles``), replicated seeds whose final
  digests disagree are *localized*: the report names the first retained
  cycle and the first signal (or memory word) where the replicas split,
  via :func:`repro.sim.timeline.first_timeline_divergence`.

Hit records are the plain dicts of ``HitGroup.to_record``; frame values
are digested into a stable fingerprint so comparison never depends on
dict ordering.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..obs import merge_snapshots, to_prometheus
from ..obs import write_chrome_trace as _write_chrome_trace
from ..sim.timeline import decode_timeline_states, first_state_divergence
from .spec import ShardResult


def location_of(record: dict) -> str:
    """Stable location key for one hit record."""
    if "watch" in record:
        return f"<watch:{record['watch'].get('path')}>"
    return f"{record['filename']}:{record['line']}"


def frame_digest(record: dict) -> str:
    """A stable fingerprint of the values observed at one hit.

    Breakpoint hits digest every frame's flattened local/generator
    variables; watch hits digest the old/new pair.  Equal digests mean
    two shards observed identical state at that stop.
    """
    if "watch" in record:
        w = record["watch"]
        basis = ["watch", w.get("path"), w.get("old"), w.get("new")]
    else:
        basis = [
            [
                f.get("instance"),
                _flatten_vars(f.get("local", [])),
                _flatten_vars(f.get("generator", [])),
            ]
            for f in record.get("frames", [])
        ]
    blob = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _flatten_vars(views: list, prefix: str = "") -> list:
    out = []
    for v in views:
        label = f"{prefix}.{v['name']}" if prefix else v["name"]
        if v.get("children"):
            out.extend(_flatten_vars(v["children"], label))
        else:
            out.append([label, v.get("value")])
    return sorted(out)


@dataclass(slots=True)
class FirstHit:
    """The earliest sighting of one breakpoint location in the sweep."""

    location: str
    time: int
    shard_id: int
    record: dict


@dataclass(slots=True)
class Divergence:
    """Shards disagreeing at one (location, cycle) stop."""

    location: str
    time: int
    groups: dict = field(default_factory=dict)   # digest -> sorted shard ids


@dataclass(slots=True)
class TimelineDivergence:
    """The first localized split between two replicated shards' streamed
    state histories: which cycle, and which signal or memory word."""

    seed: int
    shard_a: int
    shard_b: int
    time: int
    what: str            # signal path / "mem[path][addr]" / raw index
    value_a: object
    value_b: object

    def describe(self) -> str:
        return (
            f"seed {self.seed}: shards {self.shard_a} vs {self.shard_b} "
            f"first diverge @ cycle {self.time}: {self.what} = "
            f"{self.value_a} vs {self.value_b}"
        )


class ShardReport:
    """The aggregated outcome of one sweep.

    ``signal_names`` / ``mem_names`` (index -> hierarchical path, as laid
    out by the coordinator's compiled design) let timeline divergences
    print signal paths instead of raw value-table indices; the session
    passes them automatically.
    """

    def __init__(
        self,
        results: list[ShardResult],
        signal_names: list[str] | None = None,
        mem_names: list[str] | None = None,
    ):
        self.results = sorted(results, key=lambda r: r.shard_id)
        self.signal_names = signal_names
        self.mem_names = mem_names
        self._timeline_divs: list[TimelineDivergence] | None = None
        #: Coordinator-side ``Obs.to_wire()`` dump (attempt/retry counts,
        #: heartbeat gap histogram, sweep + per-attempt spans), attached
        #: by the session after a run.  None for obs-off sweeps.
        self.coordinator_obs: dict | None = None

    # -- basic rollups -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def errors(self) -> list[ShardResult]:
        return [r for r in self.results if not r.ok]

    @property
    def retried(self) -> list[ShardResult]:
        """Shards that needed more than one attempt (supervision layer)."""
        return [r for r in self.results if r.attempts > 1]

    @property
    def total_attempts(self) -> int:
        """Attempts consumed across the sweep (== shards when healthy)."""
        return sum(r.attempts for r in self.results)

    def failed_shards(self) -> list[tuple[int, int, str]]:
        """``(shard_id, attempts, error)`` for every terminally failed
        shard — the partial-sweep accounting a degraded report carries
        instead of raising."""
        return [(r.shard_id, r.attempts, r.error) for r in self.errors]

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.results)

    @property
    def total_hits(self) -> int:
        return sum(len(r.hits) for r in self.results)

    @property
    def wall_time_s(self) -> float:
        """Coordinator wall time when set by the session; else the max
        per-shard wall time (the critical path)."""
        if getattr(self, "_wall_time_s", None) is not None:
            return self._wall_time_s
        return max((r.wall_time_s for r in self.results), default=0.0)

    @wall_time_s.setter
    def wall_time_s(self, value: float) -> None:
        self._wall_time_s = value

    def iter_hits(self):
        """Yield ``(shard_id, record)`` across every shard, shard order."""
        for r in self.results:
            for rec in r.hits:
                yield r.shard_id, rec

    # -- cross-shard views -------------------------------------------------

    def first_hits(self) -> dict[str, FirstHit]:
        """Per location: the minimal (time, shard_id) hit in the sweep."""
        best: dict[str, FirstHit] = {}
        for shard_id, rec in self.iter_hits():
            loc = location_of(rec)
            cur = best.get(loc)
            if cur is None or (rec["time"], shard_id) < (cur.time, cur.shard_id):
                best[loc] = FirstHit(loc, rec["time"], shard_id, rec)
        return best

    def histogram(self) -> dict[str, dict[int, int]]:
        """Per location: hit count per shard."""
        out: dict[str, dict[int, int]] = {}
        for shard_id, rec in self.iter_hits():
            per_shard = out.setdefault(location_of(rec), {})
            per_shard[shard_id] = per_shard.get(shard_id, 0) + 1
        return out

    def state_groups(self) -> dict[int, dict[str, list[int]]]:
        """Per seed: final value-table digest -> shard ids.

        Shard workers fingerprint their final state by hashing the value
        table as 64-bit lanes plus memories.  Shards replicating one seed
        must land in one digest group; more than one group for a seed is a
        determinism bug caught without shipping any state across the wire.
        """
        out: dict[int, dict[str, list[int]]] = {}
        for r in self.results:
            if not r.ok or r.state_digest is None:
                continue
            out.setdefault(r.seed, {}).setdefault(r.state_digest, []).append(
                r.shard_id
            )
        return out

    def state_divergences(self) -> list[Divergence]:
        """Replicated seeds whose shards finished in different states."""
        return [
            Divergence(f"<state:seed {seed}>", -1,
                       {d: sorted(s) for d, s in sorted(groups.items())})
            for seed, groups in sorted(self.state_groups().items())
            if len(groups) > 1
        ]

    def _describe_divergence_site(self, div: dict) -> str:
        """Map a raw :func:`first_timeline_divergence` site to a name."""
        if div["kind"] == "mem":
            mi, addr = div["index"]
            name = (
                self.mem_names[mi]
                if self.mem_names is not None and mi < len(self.mem_names)
                else f"mem[{mi}]"
            )
            return f"{name}[{addr}]"
        idx = div["index"]
        if self.signal_names is not None and idx < len(self.signal_names):
            return self.signal_names[idx]
        return f"signal[{idx}]"

    def timeline_divergences(self) -> list[TimelineDivergence]:
        """Localize replica divergence from streamed state history.

        For every seed run by at least two shards that shipped a
        timeline (``ShardSpec.timeline_cycles > 0``), compare each
        replica's retained window against the seed's first shard, cycle
        by cycle, and report the first cycle + signal/memory word where
        they split.  Empty when replicas agree (the healthy case) — and
        the *stateful* upgrade of :meth:`state_divergences`, which can
        only say that final digests differ.

        Decoding streamed windows is the expensive aggregation step, so
        the outcome is computed once and cached (``summary`` and
        ``to_json`` both need it); results are treated as immutable once
        this has been called.
        """
        if self._timeline_divs is not None:
            return self._timeline_divs
        by_seed: dict[int, list[ShardResult]] = {}
        for r in self.results:
            if r.ok and r.timeline is not None:
                by_seed.setdefault(r.seed, []).append(r)
        # Decoding a wire replays every retained delta; do it once per
        # shard, not once per comparison pair.
        decoded: dict[int, dict] = {}

        def states(r: ShardResult) -> dict:
            if r.shard_id not in decoded:
                decoded[r.shard_id] = decode_timeline_states(r.timeline)
            return decoded[r.shard_id]

        out: list[TimelineDivergence] = []
        for seed, rs in sorted(by_seed.items()):
            if len(rs) < 2:
                continue
            base = rs[0]
            for other in rs[1:]:
                div = first_state_divergence(states(base), states(other))
                if div is None:
                    continue
                out.append(
                    TimelineDivergence(
                        seed=seed,
                        shard_a=base.shard_id,
                        shard_b=other.shard_id,
                        time=div["time"],
                        what=self._describe_divergence_site(div),
                        value_a=div["a"],
                        value_b=div["b"],
                    )
                )
        self._timeline_divs = out
        return out

    def divergences(self) -> list[Divergence]:
        """Stops where shards saw different state at the same cycle.

        Only (location, time) pairs reached by at least two shards are
        comparable; a pair whose frame digests differ across shards is a
        divergence.  Expected in a seed sweep (different stimulus);
        incriminating when shards replicate one seed.
        """
        seen: dict[tuple[str, int], dict[str, set[int]]] = {}
        for shard_id, rec in self.iter_hits():
            key = (location_of(rec), rec["time"])
            seen.setdefault(key, {}).setdefault(
                frame_digest(rec), set()
            ).add(shard_id)
        out = []
        for (loc, t), groups in sorted(seen.items()):
            shards = set().union(*groups.values())
            if len(groups) > 1 and len(shards) > 1:
                out.append(
                    Divergence(
                        loc, t,
                        {d: sorted(s) for d, s in sorted(groups.items())},
                    )
                )
        return out

    # -- observability rollup (repro.obs) ----------------------------------

    @property
    def has_obs(self) -> bool:
        """True when any side of the sweep collected telemetry."""
        return self.coordinator_obs is not None or any(
            r.obs is not None for r in self.results
        )

    def merged_metrics(self) -> dict:
        """One metrics snapshot for the whole sweep.

        Per-shard snapshots keep their ``shard=<id>`` label so series
        stay distinct; coordinator-side supervision metrics carry no
        shard label.  Empty (no series) for obs-off sweeps.
        """
        snaps = [
            r.obs["metrics"]
            for r in self.results
            if r.obs is not None and r.obs.get("metrics")
        ]
        if self.coordinator_obs is not None and self.coordinator_obs.get("metrics"):
            snaps.append(self.coordinator_obs["metrics"])
        return merge_snapshots(snaps)

    def prometheus(self) -> str:
        """The merged snapshot in Prometheus text exposition format."""
        return to_prometheus(self.merged_metrics())

    def trace_spans(self) -> list[dict]:
        """Every span from the sweep: coordinator first, then shards.

        Worker spans were recorded in the forked processes (distinct
        pids, ``shard <id>`` process names) and shipped home inside the
        results, so one Chrome trace shows every process on its own
        track of a shared wall-clock timeline.
        """
        spans: list[dict] = []
        if self.coordinator_obs is not None:
            spans.extend(self.coordinator_obs.get("spans", ()))
        for r in self.results:
            if r.obs is not None:
                spans.extend(r.obs.get("spans", ()))
        return spans

    def write_chrome_trace(self, path) -> None:
        """Write the merged sweep trace as Chrome trace-event JSON
        (loadable in Perfetto / chrome://tracing)."""
        _write_chrome_trace(path, self.trace_spans())

    def _sum_metric(self, merged: dict, name: str) -> float | None:
        """Sum one counter/gauge across every label set; None if absent."""
        total, found = 0.0, False
        for m in merged["metrics"]:
            if m["name"] == name and m["type"] in ("counter", "gauge"):
                total += m["value"]
                found = True
        return total if found else None

    def _sum_histogram(self, merged: dict, name: str) -> tuple[int, float] | None:
        """(count, sum) of one histogram across every label set."""
        count, total, found = 0, 0.0, False
        for m in merged["metrics"]:
            if m["name"] == name and m["type"] == "histogram":
                count += m["count"]
                total += m["sum"]
                found = True
        return (count, total) if found else None

    def _obs_summary_lines(self) -> list[str]:
        merged = self.merged_metrics()
        if not merged["metrics"]:
            return []
        lines = ["observability:"]
        attempts = self._sum_metric(merged, "shard_attempts_total")
        if attempts is not None:
            retries = self._sum_metric(merged, "shard_retries_total") or 0
            terms = self._sum_metric(merged, "shard_terminations_total") or 0
            lines.append(
                f"  supervision: {attempts:.0f} attempt(s), "
                f"{retries:.0f} retry(s), {terms:.0f} termination(s)"
            )
        hb = self._sum_histogram(merged, "shard_heartbeat_gap_seconds")
        if hb is not None and hb[0]:
            lines.append(
                f"  heartbeat gap: {hb[0]} sample(s), "
                f"mean {hb[1] / hb[0] * 1000:.1f}ms"
            )
        ticks = self._sum_metric(merged, "sim_ticks_total")
        if ticks is not None:
            hits = self._sum_metric(merged, "sim_cone_cache_hits_total") or 0
            misses = self._sum_metric(merged, "sim_cone_cache_misses_total") or 0
            fb = self._sum_metric(merged, "sim_cone_fallback_total") or 0
            lines.append(
                f"  sim: {ticks:.0f} tick(s), cone cache "
                f"{hits:.0f} hit(s) / {misses:.0f} compile(s) / "
                f"{fb:.0f} fallback(s)"
            )
        return lines

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "shards": [_shard_record(r) for r in self.results],
            "total_cycles": self.total_cycles,
            "total_hits": self.total_hits,
            "wall_time_s": round(self.wall_time_s, 6),
            "first_hits": {
                loc: {"time": fh.time, "shard": fh.shard_id}
                for loc, fh in sorted(self.first_hits().items())
            },
            "histogram": {
                loc: {str(s): n for s, n in sorted(counts.items())}
                for loc, counts in sorted(self.histogram().items())
            },
            "divergences": [
                {"location": d.location, "time": d.time, "groups": d.groups}
                for d in self.divergences()
            ],
            "state_digests": {
                str(r.shard_id): r.state_digest
                for r in self.results
                if r.state_digest is not None
            },
            "state_divergences": [
                {"location": d.location, "groups": d.groups}
                for d in self.state_divergences()
            ],
            "timeline_divergences": [
                {
                    "seed": d.seed,
                    "shards": [d.shard_a, d.shard_b],
                    "time": d.time,
                    "what": d.what,
                    "values": [d.value_a, d.value_b],
                }
                for d in self.timeline_divergences()
            ],
            "shard_timings": {
                str(r.shard_id): {
                    "wall_time_s": round(r.wall_time_s, 6),
                    "attempts": r.attempts,
                }
                for r in self.results
            },
            "obs": self.merged_metrics() if self.has_obs else None,
            "total_attempts": self.total_attempts,
            "retried": [r.shard_id for r in self.retried],
            "failures": {
                str(r.shard_id): r.failures
                for r in self.results
                if r.failures
            },
            "failed": [
                {"shard": sid, "attempts": n, "error": err}
                for sid, n, err in self.failed_shards()
            ],
            "ok": self.ok,
        }

    def summary(self) -> str:
        """Human-readable sweep report (the CLI/console output)."""
        lines = []
        wall = self.wall_time_s
        rate = self.total_cycles / wall if wall > 0 else 0.0
        lines.append(
            f"sweep: {len(self.results)} shard(s), "
            f"{self.total_cycles} cycles, {self.total_hits} hit(s), "
            f"{wall:.2f}s ({rate:,.0f} cycles/s aggregate)"
        )
        for r in self.results:
            status = f"error: {r.error}" if not r.ok else (
                f"{len(r.hits)} hit(s)"
                + (f", exit {r.exit_code}" if r.exit_code is not None else "")
            )
            status += f" [{r.wall_time_s:.2f}s, {r.attempts} attempt(s)]"
            lines.append(
                f"  shard {r.shard_id} (seed {r.seed}): "
                f"{r.cycles} cycles, {status}"
            )
        lines.extend(self._obs_summary_lines())
        recoveries = [r for r in self.results if r.failures]
        if recoveries:
            lines.append("fault recovery:")
            for r in recoveries:
                for f in r.failures:
                    lines.append(
                        f"  shard {r.shard_id} attempt {f['attempt']} "
                        f"{f['class']}: {f['message']}"
                    )
                if r.ok:
                    lines.append(
                        f"  shard {r.shard_id} recovered on attempt "
                        f"{r.attempts}"
                    )
                else:
                    lines.append(
                        f"  shard {r.shard_id} FAILED after "
                        f"{r.attempts} attempt(s)"
                    )
        first = self.first_hits()
        if first:
            lines.append("first hits:")
            for loc, fh in sorted(first.items(), key=lambda kv: (kv[1].time, kv[0])):
                short = loc.rsplit("/", 1)[-1]
                lines.append(
                    f"  {short} @ cycle {fh.time} (shard {fh.shard_id})"
                )
        hist = self.histogram()
        if hist:
            lines.append("hit histogram (per shard):")
            for loc, counts in sorted(hist.items()):
                short = loc.rsplit("/", 1)[-1]
                cells = " ".join(
                    f"s{s}:{n}" for s, n in sorted(counts.items())
                )
                lines.append(f"  {short}: {cells}")
        div = self.divergences()
        if div:
            lines.append(f"divergence at {len(div)} stop(s):")
            for d in div[:10]:
                short = d.location.rsplit("/", 1)[-1]
                groups = "; ".join(
                    f"shards {','.join(map(str, s))}" for s in d.groups.values()
                )
                lines.append(f"  {short} @ cycle {d.time}: {groups}")
            if len(div) > 10:
                lines.append(f"  ... {len(div) - 10} more")
        state_div = self.state_divergences()
        if state_div:
            lines.append(
                f"REPLICA STATE MISMATCH at {len(state_div)} seed(s):"
            )
            for d in state_div:
                groups = "; ".join(
                    f"shards {','.join(map(str, s))}" for s in d.groups.values()
                )
                lines.append(f"  {d.location}: {groups}")
        tl_div = self.timeline_divergences()
        if tl_div:
            lines.append(
                f"timeline divergence localized at {len(tl_div)} pair(s):"
            )
            for d in tl_div:
                lines.append(f"  {d.describe()}")
        if not div and not state_div and not tl_div:
            lines.append("no divergence between shards")
        return "\n".join(lines)


def _shard_record(result: ShardResult) -> dict:
    """A result as the report prints it: its wire form, with the hits as
    their records instead of rows and plans."""
    rec = result.to_wire()
    del rec["plans"]
    rec["hits"] = list(result.hits)
    return rec
