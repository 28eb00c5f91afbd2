#!/usr/bin/env python3
"""The hgdb-py benchmark: one command, three workloads, two modes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rv32-fig5 --seed 1 --seconds 10 --trace 0

Workloads (see each ``wl_*.py`` docstring and ``BENCHMARK.json``):
``rv32-fig5`` (clock edges, batch), ``rv32-interactive`` (hub closed loop)
and ``fpu-sweep`` (pokes, shard sweep, many-worlds).

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), measures it for ``--seconds`` through the public API with the
library defaults, checks every output, and prints the end-to-end metrics.
``--trace 1`` measures the same untraced, then runs the comparison
configurations, then repeats set-up and measurement with every layer's
entry points wrapped in spans (``pb_trace.py``); it prints the per-layer
metrics, writes a Chrome trace and a per-layer table under
``perfbench/out/``, and reports the tracing overhead.

Every end-to-end metric is measured on every workload; what it measures
there (with the workload's own name for it printed alongside):

``idle_cycles_per_s``
    rv32-fig5: the suite with the Runtime idle (``fig5_cycles_per_s``);
    rv32-interactive: qsort run over the hub with nothing armed;
    fpu-sweep: the worlds phase (``worlds_cycles_per_s``).
``armed_cycles_per_s``
    rv32-fig5: the suite with the breakpoint armed; rv32-interactive: the
    closed debugging loop, per window of stops; fpu-sweep: the hunt phase
    (``hunt_cycles_per_s``).
``op_p50_ms``
    rv32-fig5: one idle suite pass; rv32-interactive: one ``cont``
    (``cont_p50_ms``); fpu-sweep: one hunt sweep.

Host speed on a shared machine swings by a third over minutes, so the
timed end-to-end metrics are scaled to a reference host by the host's
speed sampled during the run (``pb_util.slowdown``, ``_scaled``); the
per-layer metrics are raw host time.  "host slowdown" in the header is
that sample's median.

The last line of standard output is the JSON result; everything before
it is for people.  Exit code 0 means the run completed (check
``correct``); 2 means the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import sys
import tempfile
import time
import traceback

import pb_trace
import pb_util

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "rv32-fig5": "wl_fig5",
    "rv32-interactive": "wl_interactive",
    "fpu-sweep": "wl_fpu",
}

#: (name, unit): reported by every --trace 0 run
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("idle_cycles_per_s", "cycles/s"),
    ("armed_cycles_per_s", "cycles/s"),
    ("op_p50_ms", "ms"),
]
#: end-to-end metrics whose traced-vs-untraced difference is reported
#: (peak RSS only grows within a process, so it has no untraced twin)
OVERHEAD_OF = ["setup_s", "idle_cycles_per_s", "armed_cycles_per_s", "op_p50_ms"]

#: per-layer metrics taken straight from span totals: name -> (span, kind)
SPAN_METRICS = {
    "hgf.elaborate_ms": ("hgf.elaborate", "total_ms"),
    "ir.compile_ms": ("ir.compile", "total_ms"),
    **{
        f"ir.pass.{p}_ms": (f"ir.pass.{p}", "total_ms")
        for p in (
            "check_high_form",
            "lower_types",
            "expand_whens",
            "const_prop",
            "cse",
            "dce",
            "check_low_form",
        )
    },
    "symtable.write_ms": ("symtable.write", "total_ms"),
    "symtable.query_us": ("symtable.query", "mean_us"),
    "sim.compile_design_ms": ("sim.compile_design", "total_ms"),
    "frames.build_us": ("frames.build", "mean_us"),
    "runtime.evaluate_us": ("runtime.evaluate", "mean_us"),
}
LAYER_KEYS = [
    "hgf",
    "ir",
    "symtable",
    "sim",
    "timeline",
    "manyworlds",
    "core",
    "hub",
    "shard",
]

#: (name, unit): reported by every --trace 1 run; 0 where the layer does
#: no work on the workload
PER_LAYER = [
    *((name, "ms" if name.endswith("_ms") else "us") for name in SPAN_METRICS),
    ("symtable.rpc_per_hit", "count"),
    ("symtable.rpc_us", "us"),
    ("sim.detached_cycles_per_s", "cycles/s"),
    ("sim.poke_cycles_per_s", "cycles/s"),
    ("sim.settle_tick_per_cycle", "count"),
    ("sim.settle_seeds_per_cycle", "count"),
    ("sim.settle_full_per_cycle", "count"),
    ("sim.cone_hit_ratio", "ratio"),
    ("timeline.record_overhead_pct", "%"),
    ("timeline.restore_us", "us"),
    ("timeline.bytes", "bytes"),
    ("manyworlds.cycles_per_s", "cycles/s"),
    ("manyworlds.vector_statements", "count"),
    ("manyworlds.scalar_statements", "count"),
    ("runtime.idle_overhead_pct", "%"),
    ("runtime.idle_ns_per_cycle", "ns"),
    ("runtime.armed_ns_per_cycle", "ns"),
    ("runtime.bp_evals_per_cycle", "count"),
    ("runtime.hit_ratio", "ratio"),
    ("frames.vars_per_stop", "count"),
    ("hub.local_cont_p50_ms", "ms"),
    ("hub.wire_ms", "ms"),
    ("hub.rtt_ms", "ms"),
    ("hub.attach_ms", "ms"),
    ("shard.inline_cycles_per_s", "cycles/s"),
    ("shard.attempts", "count"),
    ("shard.failed", "count"),
    *((f"self_ms.{layer}", "ms") for layer in LAYER_KEYS),
    *((f"trace_overhead.{name}_pct", "%") for name in OVERHEAD_OF),
]

#: set-ups per run: at least SETUPS, and until SETUP_SECONDS have passed
#: (at most MAX_SETUPS); setup_s is their median
SETUPS = 5
SETUP_SECONDS = 1.5
MAX_SETUPS = 40
#: --trace 1 budget shares: untraced measure, comparisons, traced measure
TRACE_SHARES = (0.3, 0.35, 0.3)


def _timed_setups(run, wl):
    """Set up repeatedly; keep the last state, tear down the rest.
    Returns the state and setup_s (scaled, see :func:`_scaled`)."""
    times, speed = [], []
    state = None
    spent = pb_util.Deadline(SETUP_SECONDS)
    while len(times) < SETUPS or not (spent.expired() or len(times) >= MAX_SETUPS):
        if state is not None:
            wl.teardown(state)
        gc.collect()
        speed.append(pb_util.slowdown())
        t0 = time.perf_counter()
        state = wl.setup(run)
        times.append(time.perf_counter() - t0)
    gc.collect()
    setup = {"setup_s": (pb_util.median(times), "s", len(times))}
    return state, _scaled(setup, speed, 1.0)


def _scaled(values: dict, speed: list, sensitivity: float) -> dict:
    """Scale timed metrics to the reference host.

    A shared machine's speed swings by a third over minutes, which no run
    length averages away, so the workloads sample :func:`pb_util.slowdown`
    between their timed samples.  The median sample, raised to the
    workload's ``sensitivity`` (set-up is plain Python work: 1), scales
    the run's results: rates are multiplied by it and times divided by
    it."""
    factor = (pb_util.median(speed) or 1.0) ** sensitivity
    out = {}
    for name, (value, unit, samples) in values.items():
        if unit == "cycles/s":
            value *= factor
        elif unit in ("ms", "s"):
            value /= factor
        out[name] = (value, unit, samples)
    return out


def _measure(run, wl, state, seconds: float, tracer=None) -> tuple[dict, dict]:
    """One measurement: (raw values, values scaled to the reference host)."""
    run.speed = []
    raw = wl.measure(run, state, seconds, tracer)
    run.info["host slowdown"] = round(pb_util.median(run.speed), 4)
    return raw, _scaled(raw, run.speed, wl.HOST_SENSITIVITY)


def _record(run, values: dict) -> None:
    for name, (value, unit, samples) in values.items():
        run.metric(name, value, unit, samples)


def _gated(run, wl) -> None:
    state, setup = _timed_setups(run, wl)
    _record(run, setup)
    try:
        _record(run, _measure(run, wl, state, run.seconds)[1])
        wl.finish(run, state)
    finally:
        wl.teardown(state)


def _traced(run, wl) -> None:
    untraced_s, compare_s, traced_s = (run.seconds * s for s in TRACE_SHARES)
    state, base = _timed_setups(run, wl)
    try:
        raw, scaled = _measure(run, wl, state, untraced_s)
        base.update(scaled)
        layers = wl.compare(run, state, compare_s, raw)
        wl.finish(run, state)
    finally:
        wl.teardown(state)
    _record(run, base)

    tracer = pb_trace.SpanTracer()
    with tracer:
        slow = pb_util.slowdown()
        t0 = time.perf_counter()
        state = wl.setup(run)
        setup = {"setup_s": (time.perf_counter() - t0, "s", 1)}
        traced = _scaled(setup, [slow], 1.0)
        try:
            traced.update(_measure(run, wl, state, traced_s, tracer)[1])
            layers.update(wl.traced_layers(run, state, tracer))
        finally:
            wl.teardown(state)
    wl.finish(run, state)

    for name, (span, kind) in SPAN_METRICS.items():
        row = tracer.totals.get(span, (0, 0.0, 0.0))
        layers[name] = row[1] * 1e3 if kind == "total_ms" else tracer.mean_us(span)
    builds = tracer.calls("frames.build")
    layers["frames.vars_per_stop"] = tracer.frame_vars / builds if builds else 0.0
    for layer, ms in tracer.self_ms_by_layer().items():
        layers[f"self_ms.{layer}"] = ms
    for name in OVERHEAD_OF:
        was, now = base[name][0], traced[name][0]
        layers[f"trace_overhead.{name}_pct"] = (now - was) / was * 100 if was else 0.0
    for name, unit in PER_LAYER:
        run.metric(name, layers.get(name, 0.0), unit, 1)

    stem = os.path.join(OUT, f"{run.workload}-seed{run.seed}")
    tracer.write_chrome_trace(stem + ".trace.json")
    spans = {row["span"]: row for row in tracer.table()}
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "per_layer": {name: layers.get(name, 0.0) for name, _ in PER_LAYER},
                "self_time_by_metric": {
                    name: spans[span]
                    for name, (span, _kind) in SPAN_METRICS.items()
                    if span in spans
                },
                "spans": list(spans.values()),
                "self_ms": tracer.self_ms_by_layer(),
                "trace_overhead_pct": {
                    name: layers[f"trace_overhead.{name}_pct"] for name in OVERHEAD_OF
                },
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.dropped,
            },
            fh,
            indent=1,
        )
    run.info["trace file"] = os.path.relpath(stem + ".trace.json", ROOT)


def _what_ran(run, wl_name: str) -> None:
    import numpy

    from repro.hub import SessionOptions
    from repro.sim import resolve_store_kind

    run.info.update(
        {
            "workload": wl_name,
            "seed": run.seed,
            "seconds": run.seconds,
            "trace": int(run.trace),
            "value store": resolve_store_kind(SessionOptions().store),
            "fast": SessionOptions().fast,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": pb_util.nproc(),
            "cpus used": sorted(os.sched_getaffinity(0)),
            "shard workers": "none (no shard layer)",
            "world groups vectorized": "n/a (no world groups)",
        }
    )


def _report(run, names) -> None:
    print(f"== hgdb-py benchmark: {run.workload} ==")
    for key, value in run.info.items():
        print(f"  {key}: {value}")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':9s} samples")
    for name, (value, unit, samples) in run.metrics.items():
        print(f"  {name:34s} {value:14.4f}  {unit:9s} {samples}")
    print(
        f"  {'error_rate':34s} {run.error_rate:14.6f}  {'failed/op':9s} "
        f"{run.attempted}"
    )
    for what in run.failures[:20]:
        print(f"  FAILED: {what}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": run.metrics.get(name, (0.0,))[0], "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    pb_util.clear_overrides()
    # The hub writes its symbol table to a temporary file: keep it inside
    # the checkout.
    os.makedirs(OUT, exist_ok=True)
    tempfile.tempdir = OUT

    wl = importlib.import_module(WORKLOADS[args.workload])
    if getattr(wl, "ONE_CPU", False):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = pb_util.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    _what_ran(run, args.workload)
    try:
        if args.trace:
            _traced(run, wl)
        else:
            _gated(run, wl)
    except Exception as exc:  # noqa: BLE001 - reported, never silent
        traceback.print_exc()
        run.fail("workload aborted", exc)
    run.metric("peak_rss_mb", pb_util.peak_rss_mb(), "MB", 1)
    _report(run, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
