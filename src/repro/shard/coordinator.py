"""The shard coordinator: elaborate once, fan out, aggregate.

:class:`ShardSession` is the service shape of the ROADMAP's "millions of
users" north star in miniature: the design is elaborated and compiled
**once**, its symbol table is served over the existing RPC protocol
(``symtable/rpc.py``), and N worker processes — forked so they inherit
the compiled design for free — each run one :class:`ShardSpec` with their
own ``Simulator`` + ``Runtime``, streaming hit/progress events back over
per-worker pipes as JSON lines.  The coordinator multiplexes those pipes
onto one event queue, refills the worker pool as shards finish, and hands
the merged results to :class:`~repro.shard.aggregate.ShardReport`.

``workers=0`` runs every shard inline in this process (no fork, native
symbol table) — the reference semantics the multi-process path is tested
against, and the fallback on platforms without ``fork``.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..obs import make_obs
from ..sim.compiler import compile_design
from ..symtable.rpc import SymbolTableServer
from ..symtable.writer import write_symbol_table
from ..symtable.query import SQLiteSymbolTable
from .aggregate import ShardReport
from .spec import (
    ShardError,
    ShardResult,
    ShardSpec,
    WorldGroupSpec,
    group_worlds,
    make_sweep,
)
from .supervise import (
    CORRUPT,
    CRASH,
    ERROR,
    HANG,
    RPC,
    DeadlinePolicy,
    RetryPolicy,
    as_deadline_policy,
    failure_record,
)
from .wire import WireError, decode_line
from .worker import run_shard, run_world_group, worker_entry


#: distinguishes "kwarg not passed" from an explicit value (None included)
_UNSET = object()


def default_workers(n_shards: int) -> int:
    """Worker-pool size when the caller does not pin one: one process per
    available CPU, never more than there are shards."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(n_shards, cpus))


@dataclass(slots=True)
class _Job:
    """One shard's journey through the supervisor: its spec, which
    attempt is next (1-based), the failure records accumulated so far,
    and — while waiting out a retry backoff — when it may relaunch."""

    spec: ShardSpec
    attempt: int = 1
    failures: list = field(default_factory=list)
    ready_at: float = 0.0


@dataclass(slots=True)
class _WorkerState:
    """One in-flight worker attempt: process, pipe pump, and the
    liveness bookkeeping the supervisor tracks against it."""

    job: _Job
    token: int                 # unique per attempt: event attribution key
    proc: object
    conn: object
    pump: threading.Thread
    started: float
    deadline: float | None     # absolute monotonic attempt deadline
    last_beat: float           # monotonic time of the last event seen
    started_wall: float = 0.0  # wall-clock launch time (trace span anchor)
    corrupt_seen: int = 0      # undecodable wire lines this attempt
    settled: bool = False      # outcome decided (done/error/hang)


@dataclass(slots=True)
class _Zombie:
    """A terminated worker awaiting death: past ``kill_at`` the
    supervisor escalates from SIGTERM to SIGKILL."""

    proc: object
    kill_at: float
    killed: bool = False


class ShardSession:
    """Run shard sweeps of one design and aggregate the hits.

    Args:
        design: a compiled :class:`repro.Design` (symbol table generated
            automatically) or a bare Low-form ``Circuit`` (then
            ``symtable`` is required).
        symtable: the symbol table to serve to workers; defaults to
            ``write_symbol_table(design)`` for a ``Design``.
        workers: pool size for :meth:`run`.  ``None`` sizes to the machine
            (:func:`default_workers`); ``0`` forces inline execution.
        fast: forwarded to each worker's ``Simulator`` (deprecated; pass
            ``options=SessionOptions(fast=...)``).
        compiled: reuse an existing ``CompiledDesign`` (e.g. the one a
            live console session is already running) instead of compiling
            the circuit again; this also preserves its ``top_path``.
        obs: observability depth (``repro.obs``): an ``Obs``, a mode
            string, or None (``configure``/``$REPRO_OBS``).  Deprecated;
            pass ``options=SessionOptions(obs=...)``.  The session
            holds the **coordinator-side** telemetry — attempt/retry/
            termination counts, the heartbeat gap histogram, sweep and
            per-attempt spans — while each worker (forked or inline)
            builds its own per-shard ``Obs`` from the same mode; the
            aggregated :class:`ShardReport` merges both sides, and
            ``report.write_chrome_trace`` puts them on one timeline.
        options: a :class:`repro.hub.SessionOptions` — the shared session
            configuration record (``fast``/``obs`` here; other fields are
            per-shard and come from the :class:`ShardSpec`).
    """

    def __init__(self, design, symtable=None, workers: int | None = None,
                 fast=_UNSET, compiled=None, obs=_UNSET, options=None):
        # Imported here (not at module top) to keep this package importable
        # in any order relative to repro.hub (which lazily imports us for
        # SessionHandle.shard_sweep).
        from ..hub.api import resolve_session_options

        legacy = {}
        if fast is not _UNSET:
            legacy["fast"] = fast
        if obs is not _UNSET:
            legacy["obs"] = obs
        opt = resolve_session_options(options, legacy, "ShardSession")
        self.options = opt
        self.obs = make_obs(opt.obs, proc="coordinator")
        low = getattr(design, "low", None)
        self.circuit = low if low is not None else design
        if symtable is None:
            if low is None:
                raise ShardError(
                    "a bare circuit needs an explicit symbol table"
                )
            symtable = SQLiteSymbolTable(write_symbol_table(design))
        self.symtable = symtable
        self.workers = workers
        self.fast = opt.fast
        # Elaborate/compile once; forked workers inherit this copy.
        self.compiled = (
            compiled if compiled is not None
            else compile_design(self.circuit, None)
        )
        self._server: SymbolTableServer | None = None

    # -- lifecycle ---------------------------------------------------------

    def _serve(self) -> tuple[str, int]:
        if self._server is None:
            self._server = SymbolTableServer(self.symtable)
            self._server.start()
        return self._server.address

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def __enter__(self) -> ShardSession:
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- running -----------------------------------------------------------

    def sweep(
        self,
        shards: int,
        cycles: int,
        seed_base: int = 0,
        breakpoints=(),
        watchpoints=(),
        overrides: dict | None = None,
        reset_cycles: int = 1,
        hit_limit: int | None = None,
        on_event=None,
        timeout: float | None = None,
        timeline_cycles: int = 0,
        retry: RetryPolicy | None = None,
        deadline: DeadlinePolicy | float | None = None,
        faults=None,
        worlds_per_shard: int = 0,
    ) -> ShardReport:
        """Run the canonical seed sweep (see :func:`make_sweep`).

        ``timeline_cycles > 0`` makes every shard retain (and ship) its
        last N cycles of rle-compressed state history, enabling the
        report's localized :meth:`~ShardReport.timeline_divergences`.
        ``retry``/``deadline``/``faults`` are forwarded to :meth:`run`.

        ``worlds_per_shard > 1`` packs that many consecutive shards into
        each worker as scenario *worlds* of one vectorized many-worlds
        simulator (:class:`~repro.shard.spec.WorldGroupSpec`), so
        processes × SIMD compose: the report is flattened back to one
        result per shard, digest-identical to the unpacked sweep.
        Groups that arm breakpoints/watchpoints/hit limits/timeline
        streaming — or run where numpy is unavailable — transparently
        fall back to sequential member execution inside the worker.
        """
        specs = make_sweep(
            shards, cycles, seed_base=seed_base, overrides=overrides,
            breakpoints=breakpoints, watchpoints=watchpoints,
            reset_cycles=reset_cycles, hit_limit=hit_limit,
            timeline_cycles=timeline_cycles,
        )
        return self.run(
            group_worlds(specs, worlds_per_shard),
            on_event=on_event, timeout=timeout,
            retry=retry, deadline=deadline, faults=faults,
        )

    def run(
        self,
        specs: list[ShardSpec],
        on_event=None,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        deadline: DeadlinePolicy | float | None = None,
        faults=None,
    ) -> ShardReport:
        """Run every spec and return the aggregated report.

        ``on_event`` receives every decoded worker event (hits, progress,
        heartbeats, warnings, completion) as it arrives, augmented with
        the attempt number (``event["attempt"]``) so listeners can tell
        a retried shard's replayed hits from its first try.

        ``timeout`` is a **wall-clock deadline for the whole sweep**: on
        expiry live workers are terminated (then killed) and the sweep
        raises :class:`ShardError`, no matter how chatty the event stream
        is.  ``retry`` (default: :class:`RetryPolicy` ()) governs how
        failed worker attempts — crashes, hangs, corrupt wire — are
        retried and degraded to inline execution; ``deadline`` (a
        :class:`DeadlinePolicy`, or a flat per-attempt seconds value)
        arms per-shard wall-clock deadlines and heartbeat monitoring;
        ``faults`` (a :class:`repro.faults.FaultPlan`) deterministically
        injects failures into forked attempts — chaos testing only, the
        inline path never runs faults.
        """
        if not specs:
            raise ShardError("nothing to run: empty spec list")
        ids = [
            m.shard_id
            for s in specs
            for m in (s.members if isinstance(s, WorldGroupSpec) else (s,))
        ]
        if len(set(ids)) != len(ids):
            raise ShardError(f"duplicate shard ids in sweep: {sorted(ids)}")
        t0 = time.perf_counter()
        workers = self.workers
        if workers is None:
            workers = default_workers(len(specs))
        with self.obs.span("shard.sweep", shards=len(specs), workers=workers):
            report = (
                self._run_inline(specs, on_event)
                if workers <= 0 or not _fork_available()
                else self._run_pool(
                    specs, workers, on_event, timeout,
                    retry if retry is not None else RetryPolicy(),
                    as_deadline_policy(deadline), faults,
                )
            )
        report.wall_time_s = time.perf_counter() - t0
        report.coordinator_obs = self.obs.to_wire()
        return report

    def _report(self, results: list[ShardResult]) -> ShardReport:
        """Aggregate with the compiled design's signal/memory names, so
        timeline divergences localize to hierarchical paths."""
        return ShardReport(
            results,
            signal_names=[s.path for s in self.compiled.signals],
            mem_names=[m.path for m in self.compiled.mems],
        )

    def _run_inline(self, specs: list[ShardSpec], on_event) -> ShardReport:
        # Each shard still gets its own per-shard Obs (fresh registry,
        # shard label) built from the session's mode, exactly like a
        # forked worker would — aggregation is path-independent.
        results = []
        for spec in specs:
            if isinstance(spec, WorldGroupSpec):
                results.extend(
                    run_world_group(
                        self.circuit, self.symtable, spec,
                        emit=on_event, compiled=self.compiled,
                        fast=self.fast, obs=self.obs.mode,
                    )
                )
            else:
                results.append(
                    run_shard(
                        self.circuit, self.symtable, spec,
                        emit=on_event, compiled=self.compiled,
                        fast=self.fast, obs=self.obs.mode,
                    )
                )
        return self._report(results)

    def _run_fallback(self, job: _Job, on_event):
        """Graceful degradation: run one retry-exhausted shard inline.

        The inline path shares nothing with the failed attempts' fork +
        pipe + RPC machinery, so infrastructure faults cannot reach it;
        results carry the full attempt/failure history.  Returns one
        :class:`ShardResult` — or a list of them for a world group job.
        """
        job.attempt += 1
        spec = job.spec
        emit = None
        if on_event is not None:
            def emit(event: dict) -> None:
                event = dict(event)
                event["attempt"] = job.attempt
                on_event(event)
        grouped = isinstance(spec, WorldGroupSpec)
        try:
            if grouped:
                results = run_world_group(
                    self.circuit, self.symtable, spec,
                    emit=emit, compiled=self.compiled, fast=self.fast,
                    obs=self.obs.mode,
                )
            else:
                results = [run_shard(
                    self.circuit, self.symtable, spec,
                    emit=emit, compiled=self.compiled, fast=self.fast,
                    obs=self.obs.mode,
                )]
        except Exception as exc:  # noqa: BLE001 - degradation boundary
            message = (
                f"inline fallback failed: {type(exc).__name__}: {exc}"
            )
            members = spec.members if grouped else (spec,)
            results = [
                ShardResult(m.shard_id, m.seed, 0, error=message)
                for m in members
            ]
        for res in results:
            res.attempts = job.attempt
            res.failures = list(job.failures)
        return results if grouped else results[0]

    def _run_pool(
        self,
        specs: list[ShardSpec],
        workers: int,
        on_event,
        timeout: float | None,
        retry: RetryPolicy,
        deadline: DeadlinePolicy | None,
        faults,
    ) -> ShardReport:
        host, port = self._serve()
        if self._server is not None:
            # RPC response faults (delay/drop) are injected server-side;
            # reset on every run so a later fault-free sweep is clean.
            self._server.faults = (
                faults.rpc_injector() if faults is not None else None
            )
        ctx = multiprocessing.get_context("fork")
        events: queue.Queue = queue.Queue()
        now = time.monotonic
        # Coordinator-side supervision metrics, resolved once; every
        # per-event touch below is guarded by a single `is not None`.
        m = self.obs.metrics
        c_attempts = c_retries = c_terms = hb_hist = None
        if m is not None:
            c_attempts = m.counter(
                "shard_attempts_total", "Worker attempts launched"
            )
            c_retries = m.counter(
                "shard_retries_total", "Failed attempts that were retried"
            )
            c_terms = m.counter(
                "shard_terminations_total",
                "Workers terminated by the supervisor (hang/cleanup)",
            )
            hb_hist = m.histogram(
                "shard_heartbeat_gap_seconds",
                "Gap between consecutive events from a live worker",
                bounds=(0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0),
            )
        # `timeout` is a wall-clock budget for the WHOLE sweep: a fixed
        # deadline computed once, not a per-event wait that a chatty
        # worker could reset indefinitely.
        sweep_deadline = now() + timeout if timeout is not None else None
        hb = deadline.heartbeat_timeout_s if deadline is not None else None

        pending: deque[_Job] = deque(_Job(spec) for spec in specs)
        waiting: list[_Job] = []            # retries sitting out a backoff
        active: dict[int, _WorkerState] = {}
        zombies: list[_Zombie] = []
        results: dict[int, ShardResult] = {}
        fallback: list[_Job] = []
        tokens = itertools.count(1)

        def launch(job: _Job) -> None:
            # Events are attributed by a per-attempt token, not by shard
            # id: a terminated attempt's pump may still drain buffered
            # lines after its shard has been relaunched, and those must
            # never be credited to the new attempt.
            token = next(tokens)
            r_conn, w_conn = ctx.Pipe(duplex=False)
            fault = (
                faults.fault_for(job.spec.shard_id, job.attempt, job.spec.cycles)
                if faults is not None else None
            )
            proc = ctx.Process(
                target=worker_entry,
                args=(
                    self.circuit, self.compiled, job.spec.to_wire(),
                    host, port, w_conn,
                ),
                kwargs={
                    "fault": fault,
                    "obs_mode": self.obs.mode,
                    "listening": on_event is not None,
                },
                daemon=True,
            )
            if c_attempts is not None:
                c_attempts.inc()
            proc.start()
            # Close the parent's copy of the write end *before* the next
            # launch: later children must not inherit it, or this pipe
            # would never report EOF if its worker crashes.
            w_conn.close()
            pump = threading.Thread(
                target=_pump_pipe, args=(r_conn, token, events),
                daemon=True,
            )
            pump.start()
            t = now()
            active[token] = _WorkerState(
                job=job, token=token, proc=proc, conn=r_conn, pump=pump,
                started=t, last_beat=t, started_wall=time.time(),
                deadline=(
                    t + deadline.deadline_for(job.spec.cycles)
                    if deadline is not None else None
                ),
            )

        def attempt_span(st: _WorkerState, outcome: str) -> None:
            """Record the settled attempt as a coordinator-side span."""
            tracer = self.obs.tracer
            if tracer is None:
                return
            tracer.record_span(
                "shard.attempt",
                wall=st.started_wall,
                dur=now() - st.started,
                args={
                    "shard": st.job.spec.shard_id,
                    "attempt": st.job.attempt,
                    "outcome": outcome,
                },
            )

        def retire(proc) -> None:
            """Terminate a worker and queue the SIGKILL escalation."""
            if proc.is_alive():
                proc.terminate()
                if c_terms is not None:
                    c_terms.inc()
            grace = deadline.kill_grace_s if deadline is not None else 2.0
            zombies.append(_Zombie(proc, now() + grace))

        def settle_failure(st: _WorkerState, fclass: str, message: str) -> None:
            """One attempt failed: retry, degrade inline, or go terminal."""
            st.settled = True
            attempt_span(st, fclass)
            job = st.job
            job.failures.append(
                failure_record(job.attempt, fclass, message, now() - st.started)
            )
            if retry.should_retry(fclass, job.attempt):
                if c_retries is not None:
                    c_retries.inc()
                job.attempt += 1
                job.ready_at = now() + retry.backoff_for(job.attempt - 1)
                waiting.append(job)
            elif retry.wants_fallback(fclass):
                fallback.append(job)
            else:
                # Terminal: every member of a world group job shares the
                # attempt's fate (one process ran them all).
                spec = job.spec
                grouped = isinstance(spec, WorldGroupSpec)
                settled = [
                    ShardResult(
                        m.shard_id, m.seed, 0,
                        error=message, attempts=job.attempt,
                        failures=list(job.failures),
                    )
                    for m in (spec.members if grouped else (spec,))
                ]
                results[spec.shard_id] = settled if grouped else settled[0]

        def sweep_expired() -> ShardError:
            outstanding = sorted(
                {st.job.spec.shard_id for st in active.values()}
                | {j.spec.shard_id for j in pending}
                | {j.spec.shard_id for j in waiting}
                | {j.spec.shard_id for j in fallback}
            )
            return ShardError(
                f"sweep timed out after {timeout}s with shard(s) "
                f"{outstanding} unresolved"
            )

        try:
            while active or pending or waiting:
                t = now()
                if sweep_deadline is not None and t >= sweep_deadline:
                    raise sweep_expired()
                # Promote retries whose backoff elapsed, refill the pool.
                for job in [j for j in waiting if j.ready_at <= t]:
                    waiting.remove(job)
                    pending.append(job)
                while pending and len(active) < workers:
                    launch(pending.popleft())
                # Reap terminated workers; past the grace period, escalate
                # terminate() to kill().
                for z in zombies[:]:
                    if not z.proc.is_alive():
                        z.proc.join(timeout=0)
                        zombies.remove(z)
                    elif not z.killed and t >= z.kill_at:
                        z.proc.kill()
                        z.killed = True
                # Hung-worker detection: per-attempt deadline, or event
                # silence past the heartbeat timeout.
                for token, st in list(active.items()):
                    if st.settled:
                        continue
                    over_deadline = st.deadline is not None and t >= st.deadline
                    silent = hb is not None and t - st.last_beat >= hb
                    if over_deadline or silent:
                        active.pop(token)
                        retire(st.proc)
                        why = (
                            "attempt deadline exceeded" if over_deadline
                            else f"no event for {hb}s"
                        )
                        settle_failure(
                            st, HANG,
                            f"worker hung ({why}, {t - st.started:.2f}s "
                            f"into the attempt)",
                        )
                wait = _next_wait(
                    t, sweep_deadline, active, waiting, zombies, hb
                )
                try:
                    kind, token, payload = events.get(timeout=wait)
                except queue.Empty:
                    continue
                st = active.get(token)
                if kind == "corrupt":
                    # Undecodable line: dropped, never fatal mid-run — but
                    # counted, so an attempt that ends without a decodable
                    # `done` is classified as wire corruption.  Garbage is
                    # still proof of life.
                    if st is not None:
                        st.corrupt_seen += 1
                        st.last_beat = now()
                elif kind == "event":
                    if st is None:
                        continue  # stale: a settled/terminated attempt
                    name = payload["event"]
                    if hb_hist is not None and name == "heartbeat":
                        # Gap since the previous proof of life: the
                        # distribution the deadline policy's heartbeat
                        # timeout should sit safely above.
                        hb_hist.observe(now() - st.last_beat)
                    st.last_beat = now()
                    if on_event is not None:
                        shown = dict(payload)
                        shown["attempt"] = st.job.attempt
                        on_event(shown)
                    if name == "done":
                        st.settled = True
                        attempt_span(st, "ok")
                        wire = payload["result"]
                        if "group" in wire:
                            # One done line settles every member of a
                            # world group attempt.
                            res = [
                                ShardResult.from_wire(w)
                                for w in wire["group"]
                            ]
                            for r in res:
                                r.attempts = st.job.attempt
                                r.failures = list(st.job.failures)
                        else:
                            res = ShardResult.from_wire(wire)
                            res.attempts = st.job.attempt
                            res.failures = list(st.job.failures)
                        results[st.job.spec.shard_id] = res
                    elif name == "error":
                        # The worker reported its own exception.  A
                        # transient one (its RPC transport gave out) is
                        # infrastructure and retries; anything else is a
                        # clean, deterministic failure (class "error").
                        fclass = RPC if payload.get("transient") else ERROR
                        settle_failure(st, fclass, payload["message"])
                else:  # pipe EOF: the worker attempt is over
                    if st is None:
                        continue  # already settled (e.g. hung + retired)
                    active.pop(token)
                    # Never stall the event loop waiting on a dead-ish
                    # process (the old code blocked up to 30s here): give
                    # it a moment, then terminate and let the zombie
                    # escalation finish the job.
                    st.proc.join(timeout=0.2)
                    if st.proc.is_alive():
                        retire(st.proc)
                    if not st.settled:
                        if st.corrupt_seen:
                            settle_failure(
                                st, CORRUPT,
                                f"worker wire corrupted ({st.corrupt_seen} "
                                f"undecodable line(s), no result)",
                            )
                        else:
                            settle_failure(
                                st, CRASH,
                                "worker exited without reporting "
                                f"(exit code {st.proc.exitcode})",
                            )
            # Graceful degradation: retry-exhausted shards run inline.
            for job in fallback:
                if sweep_deadline is not None and now() >= sweep_deadline:
                    raise sweep_expired()
                results[job.spec.shard_id] = self._run_fallback(job, on_event)
        finally:
            procs = [st.proc for st in active.values()]
            procs += [z.proc for z in zombies]
            for p in procs:
                if p.is_alive():
                    p.terminate()
            stop_at = time.monotonic() + 5.0
            for p in procs:
                p.join(timeout=max(0.0, stop_at - time.monotonic()))
                if p.is_alive():
                    # terminate() was not enough (SIGTERM masked or the
                    # worker is wedged in uninterruptible state): escalate.
                    p.kill()
            for p in procs:
                if p.is_alive():
                    p.join(timeout=5)
            if self._server is not None:
                self._server.faults = None

        flat: list[ShardResult] = []
        for s in specs:
            res = results[s.shard_id]
            flat.extend(res) if isinstance(res, list) else flat.append(res)
        return self._report(flat)


def _next_wait(
    t: float,
    sweep_deadline: float | None,
    active: dict,
    waiting: list,
    zombies: list,
    hb: float | None,
) -> float | None:
    """How long the event loop may block: until the nearest deadline —
    sweep budget, per-attempt deadline, heartbeat silence bound, retry
    backoff expiry, or zombie kill escalation.  None blocks until the
    next event (nothing is time-driven)."""
    cands = []
    if sweep_deadline is not None:
        cands.append(sweep_deadline - t)
    for st in active.values():
        if st.settled:
            continue
        if st.deadline is not None:
            cands.append(st.deadline - t)
        if hb is not None:
            cands.append(st.last_beat + hb - t)
    for job in waiting:
        cands.append(job.ready_at - t)
    for z in zombies:
        # Killed zombies die imminently; poll briefly to reap them.
        cands.append(z.kill_at - t if not z.killed else 0.05)
    if not cands:
        return None
    return max(0.01, min(cands) + 0.001)


def _pump_pipe(conn, token: int, events: queue.Queue) -> None:
    """Reader thread: drain one worker's pipe into the shared queue.

    Keyed by the attempt token (not the shard id) so stale lines from a
    terminated attempt can never be credited to its replacement."""
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            events.put(("event", token, decode_line(data)))
        except WireError:
            events.put(("corrupt", token, None))
    with contextlib.suppress(OSError):
        conn.close()
    events.put(("eof", token, None))


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()
