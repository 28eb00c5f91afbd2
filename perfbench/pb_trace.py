"""In-memory spans around the public entry points of each layer.

The traced run (``--trace 1``) wraps the calls listed in
:func:`instrument` with a timing wrapper before the workload runs and
restores the originals afterwards, so nothing inside ``src/`` changes and
the untraced run pays nothing.  A span records its name, start, end,
parent span, thread, and the id of the client operation in flight.  A
layer's self time is the duration of its spans minus the time their child
spans cover; both are accumulated as spans close, so only the first
:attr:`SpanTracer.cap` spans are kept for the Chrome trace while the
totals cover every call.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

#: span-name prefix -> layer.  Layers are named after the package that
#: owns the wrapped call: ``repro.hgf``, ``repro.ir``, ``repro.symtable``,
#: ``repro.sim`` with its ``timeline`` and ``manyworlds`` parts,
#: ``repro.core``, ``repro.hub`` and ``repro.shard``.  ``wait`` is time a
#: session spends parked at a stop until the client's next command.
LAYERS = {
    "hgf.": "hgf",
    "ir.": "ir",
    "symtable.": "symtable",
    "sim.": "sim",
    "timeline.": "timeline",
    "manyworlds.": "manyworlds",
    "runtime.": "core",
    "frames.": "core",
    "session.": "hub",
    "hub.": "hub",
    "shard.": "shard",
    "wait.": "wait",
}

#: spans that hand work to another thread: a thread's outermost span is
#: parented to the innermost open one of these in the same client operation
DISPATCH = ("hub.", "session.", "shard.sweep")

_IR_PASSES = (
    "check_high_form",
    "lower_types",
    "expand_whens",
    "const_prop",
    "cse",
    "dce",
    "check_low_form",
)
_SESSION_METHODS = (
    "run",
    "cont",
    "step",
    "reverse_step",
    "evaluate",
    "add_breakpoint",
    "reset",
    "get_time",
    "state_digest",
)


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYERS.items():
        if span_name.startswith(prefix):
            return layer
    return "other"


class SpanTracer:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self, cap: int = 50_000):
        self.cap = cap
        self.op_id = 0  # the client operation in flight (closed loop)
        self.runtimes: list = []  # every Runtime attached while tracing
        self.frame_vars = 0  # variables shown by every frame built
        self.spans: list[dict] = []
        self.dropped = 0
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self._open: dict[int, list] = {}  # op id -> open frames, any thread
        self._patches: list[tuple] = []
        self._base_perf = time.perf_counter()
        self._base_wall = time.time()
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        """A forked shard worker keeps the wrapped calls but records
        nothing: its spans would never reach this process, and the lock
        may have been held by another thread at the fork."""
        self._lock = threading.Lock()
        self._open = {}
        self.cap = 0

    # -- spans ------------------------------------------------------------

    def _open_span(self, name: str):
        """Start a span: returns (frame, op id).  A frame is ``[id, child
        seconds, thread, parent frame, start, name]``.  The parent is the
        innermost open span on this thread or, for a thread's outermost
        span, the innermost open request span (:data:`DISPATCH`) of the
        same client operation on another thread: the hub serves a request
        on a worker thread, the session runs the simulator on its pump
        thread, and the shard coordinator answers symbol-table RPCs on
        server threads."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        op = self.op_id
        me = threading.get_ident()
        t0 = time.perf_counter()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                peers = self._open.get(op, ())
                parent = next(
                    (
                        f
                        for f in reversed(peers)
                        if f[2] != me and f[5].startswith(DISPATCH)
                    ),
                    None,
                )
            frame = [next(self._ids), 0.0, me, parent, t0, name]
            self._open.setdefault(op, []).append(frame)
        stack.append(frame)
        return frame, op

    def _close(self, name, frame, op, dur) -> None:
        self._tls.stack.pop()
        now = frame[4] + dur
        with self._lock:
            peers = self._open[op]
            peers.remove(frame)
            # A child on another thread may outlive this span (the pump
            # thread keeps stepping after the stop it produced is handed
            # back): only the part inside this span is its child time.
            for peer in peers:
                if peer[3] is frame:
                    frame[1] += now - peer[4]
            if not peers:
                del self._open[op]
            parent = frame[3]
            if parent is not None:
                parent[1] += dur
            row = self.totals.get(name)
            if row is None:
                row = self.totals[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - frame[1]
            if len(self.spans) >= self.cap:
                self.dropped += 1
                return
            tid = self._threads.setdefault(frame[2], len(self._threads) + 1)
            self.spans.append(
                {
                    "name": name,
                    "wall": self._base_wall + (frame[4] - self._base_perf),
                    "dur": dur,
                    "pid": self._pid,
                    "proc": "benchmark",
                    "args": {
                        "id": frame[0],
                        "parent": parent[0] if parent is not None else 0,
                        "op": op,
                        "tid": tid,
                        "layer": layer_of(name),
                    },
                }
            )

    def _wrapper(self, name: str, fn, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            frame, op = tracer._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, op, time.perf_counter() - frame[4])
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def wrap_method(self, cls, attr: str, name: str, on_call=None) -> None:
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self._wrapper(name, original, on_call))
        self._patches.append((cls, attr, original, own))

    def wrap_function(self, fn, name: str) -> None:
        """Replace every module-level binding of ``fn`` in loaded
        ``repro`` and workload modules (``from x import f`` copies the
        binding)."""
        wrapped = self._wrapper(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "wl_")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, fn, True))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> SpanTracer:
        instrument(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def count_frame_vars(self, _args, frame) -> None:
        for tree in (frame.local_vars, frame.generator_vars):
            self.frame_vars += sum(len(view.flatten()) for view in tree)

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        row = self.totals.get(name)
        return row[0] if row else 0

    def mean_us(self, name: str) -> float:
        row = self.totals.get(name)
        return row[1] / row[0] * 1e6 if row and row[0] else 0.0

    def self_ms_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(sorted(set(LAYERS.values())), 0.0)
        for name, (_calls, _total, own) in self.totals.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own * 1e3
        return out

    def table(self) -> list[dict]:
        return [
            {
                "span": name,
                "layer": layer_of(name),
                "calls": calls,
                "total_ms": total * 1e3,
                "self_ms": own * 1e3,
            }
            for name, (calls, total, own) in sorted(self.totals.items())
        ]

    def write_chrome_trace(self, path: str) -> None:
        from repro.obs.export import to_chrome_trace

        doc = to_chrome_trace(self.spans)
        # to_chrome_trace puts every span on thread 1; hub requests run on
        # server threads, so give each span its own thread's track.
        for event, span in zip(doc["traceEvents"], self.spans, strict=False):
            event["tid"] = span["args"]["tid"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def instrument(tracer: SpanTracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    import repro
    import repro.hgf
    from repro.core import FrameBuilder, Runtime
    from repro.hub import LocalSession
    from repro.hub.client import HubClient, HubSession
    from repro.hub.server import DebugHub
    from repro.ir import passes
    from repro.shard import ShardSession, run_shard, run_world_group
    from repro.sim import ManyWorldsSimulator, Simulator, Timeline, compile_design
    from repro.symtable import SQLiteSymbolTable, write_symbol_table

    tracer.wrap_function(repro.hgf.elaborate, "hgf.elaborate")
    tracer.wrap_function(repro.compile_circuit, "ir.compile")
    for pass_name in _IR_PASSES:
        tracer.wrap_function(getattr(passes, pass_name), f"ir.pass.{pass_name}")
    tracer.wrap_function(write_symbol_table, "symtable.write")
    for method in ("breakpoints_at", "resolve_scoped_var", "breakpoint"):
        tracer.wrap_method(SQLiteSymbolTable, method, "symtable.query")
    for method in ("scope_variables", "generator_variables", "resolve_instance_var"):
        tracer.wrap_method(SQLiteSymbolTable, method, "symtable.scope")
    tracer.wrap_function(compile_design, "sim.compile_design")
    tracer.wrap_method(Simulator, "step", "sim.step")
    tracer.wrap_method(Simulator, "set_time", "timeline.set_time")
    tracer.wrap_method(Timeline, "record", "timeline.record")
    tracer.wrap_method(Timeline, "restore", "timeline.restore")
    tracer.wrap_method(ManyWorldsSimulator, "step", "manyworlds.step")
    tracer.wrap_method(
        Runtime,
        "attach",
        "runtime.attach",
        on_call=lambda args, _r: tracer.runtimes.append(args[0]),
    )
    tracer.wrap_method(Runtime, "add_breakpoint", "runtime.add_breakpoint")
    tracer.wrap_method(Runtime, "evaluate", "runtime.evaluate")
    tracer.wrap_method(
        FrameBuilder, "build", "frames.build", on_call=tracer.count_frame_vars
    )
    # LocalSession installs this as the runtime's on_hit handler: it parks
    # the simulator's thread at a stop until the client's next command.
    tracer.wrap_method(LocalSession, "_on_hit", "wait.client")
    for method in _SESSION_METHODS:
        tracer.wrap_method(LocalSession, method, f"session.{method}")
        tracer.wrap_method(HubSession, method, f"hub.client.{method}")
    tracer.wrap_method(HubClient, "attach", "hub.client.attach")
    tracer.wrap_method(DebugHub, "attach", "hub.server.attach")
    tracer.wrap_method(ShardSession, "sweep", "shard.sweep")
    tracer.wrap_function(run_shard, "shard.run_shard")
    tracer.wrap_function(run_world_group, "shard.run_world_group")
