"""The shard coordinator: elaborate once, fan out, aggregate.

:class:`ShardSession` is the service shape of the ROADMAP's "millions of
users" north star in miniature: the design is elaborated and compiled
**once**, its symbol table is built in memory once
(:class:`~repro.symtable.memory.MemorySymbolTable`), and N worker
processes — forked so they inherit the compiled design and the table for
free — run :class:`ShardSpec` attempts with their own ``Simulator`` +
``Runtime``, streaming hit/progress events back over per-worker pipes as
JSON lines.  A worker serves attempt after attempt for the life of its
session: one that ends a sweep cleanly waits idle for the next sweep, so
a session forks at most ``workers`` processes unless an attempt fails or
a worker dies.  The coordinator multiplexes those pipes onto one event
queue, hands each idle worker the next shard, and passes the merged
results to :class:`~repro.shard.aggregate.ShardReport`.

``workers=0`` runs every shard inline in this process (no fork, the same
table) — the reference semantics the multi-process path is tested
against, and the fallback on platforms without ``fork``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import multiprocessing
import os
import queue
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field

from ..obs import make_obs
from ..sim import native
from ..sim.compiler import compile_design
from ..sim.engine import SessionOptions
from ..symtable.memory import MemorySymbolTable, in_memory
from ..symtable.writer import symbol_table
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
    DeadlinePolicy,
    RetryPolicy,
    as_deadline_policy,
    failure_record,
)
from .wire import HitStream, WireError, decode_line, done_results
from .worker import run_shard, run_world_group, worker_main

#: An attempt that sent a line no one could decode and then nothing for
#: this many seconds settles as corrupt.  The line may have been its
#: ``done``, after which its worker waits idle for the next attempt and
#: its pipe never ends.
GARBLED_SILENCE_S = 1.0


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
class _Attempt:
    """One in-flight attempt and the liveness bookkeeping the supervisor
    tracks against it."""

    job: _Job
    started: float
    deadline: float | None     # absolute monotonic attempt deadline
    last_beat: float           # monotonic time of the last event seen
    faulted: bool = False      # a fault was armed: its worker exits after
    started_wall: float = 0.0  # wall-clock launch time (trace span anchor)
    corrupt_seen: int = 0      # undecodable wire lines this attempt
    hits: HitStream | None = None  # renders streamed hits for a listener


@dataclass(slots=True, eq=False)
class _Worker:
    """One forked worker process, serving its session's attempts back to
    back: the pipe attempts are sent over, the thread pumping its event
    pipe, and the attempt it is running (None while idle or exiting)."""

    proc: object
    inbox: object
    pump: threading.Thread | None = None
    attempt: _Attempt | None = None


@dataclass(slots=True, eq=False)
class _Pool:
    """A session's forked workers and the one queue their pumps feed.
    Between sweeps it holds only workers that ended their last attempt
    cleanly, idle; any other worker is gone or retired before a sweep
    returns."""

    events: queue.Queue = field(default_factory=queue.Queue)
    live: list = field(default_factory=list)    # forked, not gone or retired
    idle: list = field(default_factory=list)    # live, waiting for an attempt
    pumps: list = field(default_factory=list)   # pump threads not yet joined

    def shut(self, grace: float = 5.0) -> None:
        """End every worker: an idle one is asked to stop, a busy one is
        terminated (killed past ``grace`` seconds), and every pump is
        joined."""
        for w in self.live:
            if w.attempt is None:
                # Idle, or about to exit on its own: tell it to stop.
                with contextlib.suppress(OSError):
                    w.inbox.send(None)
            elif w.proc.is_alive():
                w.proc.terminate()  # cut off mid-attempt
        _reap([w.proc for w in self.live], grace)
        for w in self.live:
            w.inbox.close()
        self.live.clear()
        self.idle.clear()
        self.join_pumps()

    def join_pumps(self) -> None:
        """Join the pumps of workers that are gone: each has read (or is
        about to read) its pipe's EOF."""
        live = {id(w.pump) for w in self.live}
        for pump in [p for p in self.pumps if id(p) not in live]:
            pump.join(timeout=1.0)
            self.pumps.remove(pump)


def _reap(procs: list, grace: float) -> None:
    """Wait up to ``grace`` seconds for ``procs`` to exit, then kill the
    ones still running and wait for those too."""
    stop_at = time.monotonic() + grace
    for p in procs:
        p.join(timeout=max(0.0, stop_at - time.monotonic()))
        if p.is_alive():
            # terminate() was not enough (SIGTERM masked or the worker is
            # wedged in uninterruptible state): escalate.
            p.kill()
    for p in procs:
        if p.is_alive():
            p.join(timeout=5)


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
        symtable: the symbol table the shards read; defaults to
            ``symbol_table(design)``, built in memory, for a ``Design``.
            The first sweep copies any other table into memory
            (:attr:`table`).
        workers: pool size for :meth:`run`.  ``None`` sizes to the machine
            (:func:`default_workers`); ``0`` forces inline execution.
        compiled: reuse an existing ``CompiledDesign`` (e.g. the one a
            live console session is already running) instead of compiling
            the circuit again; this also preserves its ``top_path``.
        options: a :class:`repro.sim.SessionOptions` — the shared session
            configuration record.  ``fast`` is forwarded to each worker's
            ``Simulator``; other fields are per-shard and come from the
            :class:`ShardSpec`.  ``obs`` sets the observability depth: the
            session holds the **coordinator-side** telemetry —
            attempt/retry/termination counts, the heartbeat gap histogram,
            sweep and per-attempt spans — while each worker (forked or
            inline) builds its own per-shard ``Obs`` from the same mode;
            the aggregated :class:`ShardReport` merges both sides, and
            ``report.write_chrome_trace`` puts them on one timeline.

    Forked workers live for the session: :meth:`close` (or leaving the
    ``with`` block) ends them, as does a sweep that raises.  Sweeps on one
    session run one at a time.
    """

    def __init__(self, design, symtable=None, workers: int | None = None,
                 compiled=None, options: SessionOptions | None = None):
        opt = options if options is not None else SessionOptions()
        self.options = opt
        self.obs = make_obs(opt.obs, proc="coordinator")
        low = getattr(design, "low", None)
        self.circuit = low if low is not None else design
        if symtable is None:
            if low is None:
                raise ShardError(
                    "a bare circuit needs an explicit symbol table"
                )
            symtable = symbol_table(design)
        self.symtable = symtable
        self.workers = workers
        self.fast = opt.fast
        # Elaborate/compile once; forked workers inherit this copy.
        self.compiled = (
            compiled if compiled is not None
            else compile_design(self.circuit, None)
        )
        self._pool = _Pool()
        self._sweep_lock = threading.Lock()
        # A session dropped without close() still ends its workers.
        self._finalizer = weakref.finalize(self, self._pool.shut)

    @functools.cached_property
    def table(self) -> MemorySymbolTable:
        """:attr:`symtable` in memory, which every shard of this session
        reads, inline, forked or in fallback; forked workers inherit it.
        A design's own table already is; any other table is copied at the
        first sweep, so building a session stays cheap."""
        return in_memory(self.symtable)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """End the forked workers."""
        with self._sweep_lock:
            self._finalizer()

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
        last N cycles of state history, enabling the report's localized
        :meth:`~ShardReport.timeline_divergences`.
        ``retry``/``deadline``/``faults`` are forwarded to :meth:`run`.

        ``worlds_per_shard > 1`` packs that many consecutive shards into
        each worker attempt (:class:`~repro.shard.spec.WorldGroupSpec`),
        run one after another: the report is flattened back to one result
        per shard, digest-identical to the unpacked sweep.
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
        with self._sweep_lock, self.obs.span(
            "shard.sweep", shards=len(specs), workers=workers
        ):
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
                        self.circuit, self.table, spec,
                        emit=on_event, compiled=self.compiled,
                        fast=self.fast, obs=self.obs.mode,
                    )
                )
            else:
                results.append(
                    run_shard(
                        self.circuit, self.table, spec,
                        emit=on_event, compiled=self.compiled,
                        fast=self.fast, obs=self.obs.mode,
                    )
                )
        return self._report(results)

    def _run_fallback(self, job: _Job, on_event):
        """Graceful degradation: run one retry-exhausted shard inline.

        The inline path shares nothing with the failed attempts' fork +
        pipe machinery, so infrastructure faults cannot reach it;
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
                    self.circuit, self.table, spec,
                    emit=emit, compiled=self.compiled, fast=self.fast,
                    obs=self.obs.mode,
                )
            else:
                results = [run_shard(
                    self.circuit, self.table, spec,
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
        table = self.table  # copied before the first fork
        ctx = multiprocessing.get_context("fork")
        pool = self._pool
        events, live, idle = pool.events, pool.live, pool.idle
        if not live:
            # Load the kernel once, here: every worker forked from now on
            # inherits it instead of building and loading its own.
            native.kernel_for(self.compiled)
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
        zombies: list[_Zombie] = []
        results: dict[int, ShardResult] = {}
        fallback: list[_Job] = []

        def fork_worker() -> _Worker:
            r_conn, w_conn = ctx.Pipe(duplex=False)    # events, to us
            r_inbox, w_inbox = ctx.Pipe(duplex=False)  # attempts, to it
            proc = ctx.Process(
                target=worker_main,
                args=(self.circuit, self.compiled, table, w_conn, r_inbox),
                kwargs={"obs_mode": self.obs.mode},
                daemon=True,
            )
            _start_frozen(proc)
            # Close the parent's copies of the worker's ends *before* the
            # next fork: later children must not inherit the event write
            # end, or this pipe would never report EOF if its worker
            # crashes.
            w_conn.close()
            r_inbox.close()
            w = _Worker(proc=proc, inbox=w_inbox)
            w.pump = threading.Thread(
                target=_pump_pipe, args=(r_conn, w, events), daemon=True,
            )
            w.pump.start()
            pool.pumps.append(w.pump)
            live.append(w)
            return w

        def launch(job: _Job) -> None:
            # Events are credited to their worker's current attempt.  A
            # worker gets its next attempt only after the coordinator has
            # read the clean `done` that ends its last one, and that is
            # the last line an attempt writes; a worker whose attempt
            # ended any other way is never reused.  So a line can never
            # be credited to an attempt that did not write it.
            w = None
            while idle and w is None:
                w = idle.pop()
                if not w.proc.is_alive():
                    # Died while idle (between sweeps, say): its attempt
                    # goes to another worker, and its EOF is stale.
                    drop(w)
                    w = None
            if w is None:
                w = fork_worker()
            fault = (
                faults.fault_for(job.spec.shard_id, job.attempt, job.spec.cycles)
                if faults is not None else None
            )
            if c_attempts is not None:
                c_attempts.inc()
            t = now()
            w.attempt = _Attempt(
                job=job, started=t, last_beat=t, started_wall=time.time(),
                faulted=fault is not None,
                hits=HitStream() if on_event is not None else None,
                deadline=(
                    t + deadline.deadline_for(job.spec.cycles)
                    if deadline is not None else None
                ),
            )
            with contextlib.suppress(OSError):
                # A worker that died since cannot take it; its pipe EOF
                # settles this attempt as a crash.
                w.inbox.send((job.spec.to_wire(), fault, on_event is not None))

        def drop(w: _Worker) -> None:
            """Forget a worker that has exited or is being retired."""
            live.remove(w)
            if w in idle:
                idle.remove(w)
            w.attempt = None
            w.inbox.close()

        def attempt_span(st: _Attempt, outcome: str) -> None:
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

        def settle_failure(st: _Attempt, fclass: str, message: str) -> None:
            """One attempt failed: retry, degrade inline, or go terminal."""
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

        def settle_bad_done(w: _Worker, st: _Attempt, why: str) -> None:
            """A `done` line that is unusable (or may have been) is still
            its attempt's last line, and its worker waits for the next
            attempt: settle the attempt as corrupt now, and end the
            worker."""
            drop(w)
            retire(w.proc)
            settle_failure(st, CORRUPT, f"worker wire corrupted ({why})")

        def in_flight() -> list[_Attempt]:
            return [w.attempt for w in live if w.attempt is not None]

        def sweep_expired() -> ShardError:
            outstanding = sorted(
                {st.job.spec.shard_id for st in in_flight()}
                | {j.spec.shard_id for j in pending}
                | {j.spec.shard_id for j in waiting}
                | {j.spec.shard_id for j in fallback}
            )
            return ShardError(
                f"sweep timed out after {timeout}s with shard(s) "
                f"{outstanding} unresolved"
            )

        try:
            while pending or waiting or in_flight():
                t = now()
                if sweep_deadline is not None and t >= sweep_deadline:
                    raise sweep_expired()
                # Promote retries whose backoff elapsed, refill the pool:
                # an idle worker first, a fork only below `workers` live.
                for job in [j for j in waiting if j.ready_at <= t]:
                    waiting.remove(job)
                    pending.append(job)
                while pending and (idle or len(live) < workers):
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
                for w in live[:]:
                    st = w.attempt
                    if st is None:
                        continue
                    over_deadline = st.deadline is not None and t >= st.deadline
                    silent = hb is not None and t - st.last_beat >= hb
                    if over_deadline or silent:
                        drop(w)
                        retire(w.proc)
                        why = (
                            "attempt deadline exceeded" if over_deadline
                            else f"no event for {hb}s"
                        )
                        settle_failure(
                            st, HANG,
                            f"worker hung ({why}, {t - st.started:.2f}s "
                            f"into the attempt)",
                        )
                    elif st.corrupt_seen and t - st.last_beat >= GARBLED_SILENCE_S:
                        settle_bad_done(
                            w, st,
                            f"{st.corrupt_seen} undecodable line(s), then "
                            f"{GARBLED_SILENCE_S}s of silence",
                        )
                wait = _next_wait(
                    t, sweep_deadline, in_flight(), waiting, zombies, hb
                )
                try:
                    kind, w, payload = events.get(timeout=wait)
                except queue.Empty:
                    continue
                st = w.attempt
                if kind == "corrupt":
                    # Undecodable line: dropped, never fatal mid-run — but
                    # counted, so an attempt that ends without a decodable
                    # `done` is classified as wire corruption.  Garbage is
                    # still proof of life.
                    if st is not None:
                        st.corrupt_seen += 1
                        st.last_beat = now()
                        if payload == "done":
                            # A `done` of another protocol version.
                            settle_bad_done(w, st, "undecodable done line")
                elif kind == "event":
                    if st is None:
                        continue  # stale: a settled attempt's worker
                    name = payload["event"]
                    if hb_hist is not None and name == "heartbeat":
                        # Gap since the previous proof of life: the
                        # distribution the deadline policy's heartbeat
                        # timeout should sit safely above.
                        hb_hist.observe(now() - st.last_beat)
                    st.last_beat = now()
                    try:
                        # A hit line's row and a done line's results are
                        # checked against their plans now, so a bad one is
                        # as corrupt as a line that does not decode.
                        if name == "hit" and st.hits is not None:
                            payload = st.hits.render(payload)
                        res = done_results(payload) if name == "done" else None
                    except WireError as exc:
                        st.corrupt_seen += 1
                        if name == "done":
                            settle_bad_done(w, st, str(exc))
                        continue
                    if on_event is not None:
                        shown = dict(payload)
                        shown["attempt"] = st.job.attempt
                        on_event(shown)
                    if name == "done":
                        w.attempt = None
                        if not st.faulted:
                            idle.append(w)  # clean: serves the next one
                        attempt_span(st, "ok")
                        # One done line settles every member of a world
                        # group attempt.
                        for r in res if isinstance(res, list) else (res,):
                            r.attempts = st.job.attempt
                            r.failures = list(st.job.failures)
                        results[st.job.spec.shard_id] = res
                    elif name == "error":
                        # The worker reported its own exception, and exits:
                        # a clean, deterministic failure (class "error").
                        w.attempt = None
                        settle_failure(st, ERROR, payload["message"])
                else:  # pipe EOF: the worker process is over
                    if w not in live:
                        continue  # already retired (hung); a zombie now
                    drop(w)
                    # Never stall the event loop waiting on a dead-ish
                    # process (the old code blocked up to 30s here): give
                    # it a moment, then terminate and let the zombie
                    # escalation finish the job.
                    w.proc.join(timeout=0.2)
                    if w.proc.is_alive():
                        retire(w.proc)
                    if st is not None:
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
                                f"(exit code {w.proc.exitcode})",
                            )
            # Graceful degradation: retry-exhausted shards run inline.
            for job in fallback:
                if sweep_deadline is not None and now() >= sweep_deadline:
                    raise sweep_expired()
                results[job.spec.shard_id] = self._run_fallback(job, on_event)
            # Only the idle workers stay for the next sweep; one whose
            # attempt had a fault armed or reported an error exits on its
            # own.
            for w in [w for w in live if w not in idle]:
                drop(w)
                zombies.append(_Zombie(w.proc, now()))
        except BaseException:
            pool.shut()  # a sweep that raises ends the pool
            raise
        finally:
            _reap([z.proc for z in zombies], 5.0)
            pool.join_pumps()

        flat: list[ShardResult] = []
        for s in specs:
            res = results[s.shard_id]
            flat.extend(res) if isinstance(res, list) else flat.append(res)
        return self._report(flat)


def _next_wait(
    t: float,
    sweep_deadline: float | None,
    attempts: list,
    waiting: list,
    zombies: list,
    hb: float | None,
) -> float | None:
    """How long the event loop may block: until the nearest deadline —
    sweep budget, per-attempt deadline, heartbeat silence bound, silence
    after a garbled line, retry backoff expiry, or zombie kill
    escalation.  None blocks until the next event (nothing is
    time-driven)."""
    cands = []
    if sweep_deadline is not None:
        cands.append(sweep_deadline - t)
    for st in attempts:
        if st.deadline is not None:
            cands.append(st.deadline - t)
        if hb is not None:
            cands.append(st.last_beat + hb - t)
        if st.corrupt_seen:
            cands.append(st.last_beat + GARBLED_SILENCE_S - t)
    for job in waiting:
        cands.append(job.ready_at - t)
    for z in zombies:
        # Killed zombies die imminently; poll briefly to reap them.
        cands.append(z.kill_at - t if not z.killed else 0.05)
    if not cands:
        return None
    return max(0.01, min(cands) + 0.001)


def _pump_pipe(conn, worker, events: queue.Queue) -> None:
    """Reader thread: drain one worker's pipe into the shared queue,
    tagged with the worker (the coordinator credits each line to that
    worker's current attempt).  Every line that does not decode becomes
    a ``corrupt`` entry (with its event kind, when the line told it),
    and the pipe's end an ``eof`` entry."""
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            events.put(("event", worker, decode_line(data)))
        except WireError as exc:
            events.put(("corrupt", worker, exc.event))
    with contextlib.suppress(OSError):
        conn.close()
    events.put(("eof", worker, None))


def _start_frozen(proc) -> None:
    """Fork ``proc`` with every object of this process frozen out of the
    child's garbage collector (``gc.freeze``).  Freeing an inherited cycle
    can take a lock that another thread of this process held at the fork:
    any thread may be inside SQLite, holding its allocator mutex (a debug
    hub's session, say, or the caller's own table), and the worker would
    then hang for good.  The objects return to this process's collector
    at once."""
    gc.freeze()
    try:
        proc.start()
    finally:
        gc.unfreeze()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()
