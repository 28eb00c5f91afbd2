"""Deterministic fault injection for the shard farm (``repro.faults``).

The supervision layer in ``repro.shard`` (retries, deadlines, heartbeat
monitoring, kill escalation, inline fallback) only earns trust if its
failure paths are exercised on every CI run — so faults are injected
*deterministically*: a :class:`FaultPlan` is seeded, and the decision
"does shard S fail on attempt A, how, and when" is a pure function of
``(plan seed, shard_id, attempt)``.  Re-running a chaos sweep with the
same plan replays the same kills, hangs, and corrupted wire lines.

Fault kinds, and where they bite:

* ``"kill"`` — the worker process exits abruptly (``os._exit``) at a
  chosen cycle: the coordinator sees pipe EOF without a ``done`` event
  (failure class ``crash``).
* ``"hang"`` — the worker stops making progress at a chosen cycle (it
  sleeps): heartbeats stop, the coordinator's deadline/heartbeat monitor
  terminates it (failure class ``hang``).  A ``stubborn`` hang also
  ignores ``SIGTERM``, forcing the coordinator's terminate→kill
  escalation.
* ``"corrupt"`` — from a chosen cycle on, every line the worker writes
  to its event pipe is garbled, including the final ``done`` line: the
  coordinator sees undecodable events and then EOF without a result
  (failure class ``corrupt``).

Shard faults are schedule-independent: the plan is consulted per
``(shard_id, attempt)``, so retried attempts re-roll and a bounded fault
rate converges to a fault-free attempt.

The symbol-table RPC backend (``repro.symtable.rpc``) has its own
response faults (``"delay"``/``"drop"``, :class:`RPCFaultInjector`, armed
on its server): a response is delayed past the client's per-request
timeout, or the connection is dropped before answering.  They are
decided per request *index*; request arrival order depends on thread
scheduling, so RPC injection is rate-deterministic rather than
trace-deterministic.

Everything round-trips through plain JSON dicts (``to_wire`` /
``from_wire``) so plans can travel to remote workers over the same
JSON-lines framing the rest of the farm speaks.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import threading
import time
from dataclasses import dataclass

#: Fault kinds a worker attempt can be assigned.
WORKER_FAULT_KINDS = ("kill", "hang", "corrupt")

#: Fault kinds an RPC response can be assigned.
RPC_FAULT_KINDS = ("delay", "drop")


class FaultError(Exception):
    """Raised on an invalid fault plan or fault spec."""


@dataclass(frozen=True, slots=True)
class ShardFault:
    """One concrete fault assigned to one worker attempt."""

    kind: str                 # "kill" | "hang" | "corrupt"
    at_cycle: int             # stimulus cycle at which the fault fires
    exit_code: int = 57       # "kill": the abrupt exit status
    hang_s: float = 600.0     # "hang": how long the worker stalls
    stubborn: bool = False    # "hang": also ignore SIGTERM (forces SIGKILL)

    def __post_init__(self):
        if self.kind not in WORKER_FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.at_cycle < 0:
            raise FaultError("fault cycle must be >= 0")

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "at_cycle": self.at_cycle,
            "exit_code": self.exit_code,
            "hang_s": self.hang_s,
            "stubborn": self.stubborn,
        }

    @classmethod
    def from_wire(cls, d: dict) -> ShardFault:
        return cls(
            kind=d["kind"],
            at_cycle=d["at_cycle"],
            exit_code=d.get("exit_code", 57),
            hang_s=d.get("hang_s", 600.0),
            stubborn=d.get("stubborn", False),
        )


class FaultPlan:
    """A seeded, replayable assignment of faults to worker attempts.

    Args:
        seed: the plan seed; same seed, same faults, every run.
        rate: probability that a given ``(shard, attempt)`` is faulted.
        kinds: worker fault kinds to draw from (``WORKER_FAULT_KINDS``).
        only_shards: restrict injection to these shard ids (None: all).
        at_cycle: pin every fault to this cycle (None: drawn per fault
            from ``[0, cycles)``).
        max_faulty_attempts: attempts numbered above this are never
            faulted — a convergence guarantee for tests that must finish
            within a fixed retry budget (None: every attempt re-rolls).
        hang_s / stubborn / exit_code: forwarded into each
            :class:`ShardFault` drawn.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.2,
        kinds: tuple = WORKER_FAULT_KINDS,
        only_shards: tuple | None = None,
        at_cycle: int | None = None,
        max_faulty_attempts: int | None = None,
        hang_s: float = 600.0,
        stubborn: bool = False,
        exit_code: int = 57,
    ):
        if not 0.0 <= rate <= 1.0:
            raise FaultError("fault rate must be within [0, 1]")
        for kind in kinds:
            if kind not in WORKER_FAULT_KINDS:
                raise FaultError(f"unknown fault kind {kind!r}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.only_shards = tuple(only_shards) if only_shards is not None else None
        self.at_cycle = at_cycle
        self.max_faulty_attempts = max_faulty_attempts
        self.hang_s = hang_s
        self.stubborn = stubborn
        self.exit_code = exit_code

    def fault_for(
        self, shard_id: int, attempt: int, cycles: int
    ) -> ShardFault | None:
        """The fault (or None) for one worker attempt — a pure function
        of ``(plan seed, shard_id, attempt)``; attempts are 1-based."""
        if self.only_shards is not None and shard_id not in self.only_shards:
            return None
        if (
            self.max_faulty_attempts is not None
            and attempt > self.max_faulty_attempts
        ):
            return None
        # String seeding hashes via SHA-512, so the draw is stable across
        # processes and interpreter runs (never hash-randomized).
        rng = random.Random(f"{self.seed}:{shard_id}:{attempt}")
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        at = (
            self.at_cycle
            if self.at_cycle is not None
            else rng.randrange(max(1, cycles))
        )
        return ShardFault(
            kind=kind,
            at_cycle=at,
            exit_code=self.exit_code,
            hang_s=self.hang_s,
            stubborn=self.stubborn,
        )

    def to_wire(self) -> dict:
        return {
            "seed": self.seed,
            "rate": self.rate,
            "kinds": list(self.kinds),
            "only_shards": (
                list(self.only_shards) if self.only_shards is not None else None
            ),
            "at_cycle": self.at_cycle,
            "max_faulty_attempts": self.max_faulty_attempts,
            "hang_s": self.hang_s,
            "stubborn": self.stubborn,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_wire(cls, d: dict) -> FaultPlan:
        return cls(
            seed=d["seed"],
            rate=d["rate"],
            kinds=tuple(d.get("kinds", WORKER_FAULT_KINDS)),
            only_shards=(
                tuple(d["only_shards"]) if d.get("only_shards") is not None
                else None
            ),
            at_cycle=d.get("at_cycle"),
            max_faulty_attempts=d.get("max_faulty_attempts"),
            hang_s=d.get("hang_s", 600.0),
            stubborn=d.get("stubborn", False),
            exit_code=d.get("exit_code", 57),
        )


def corrupt_line(data: bytes) -> bytes:
    """Garble one wire line so it cannot decode, deterministically.

    The leading ``0xFF`` byte is invalid UTF-8, so ``json.loads`` always
    fails; the payload is XOR-scrambled so no recognizable JSON survives;
    newlines are stripped so the result stays a single framing unit.
    """
    body = bytes(b ^ 0x5A for b in data.rstrip(b"\n"))
    return b"\xff" + body.replace(b"\n", b"\x00") + b"\n"


class FaultInjector:
    """Worker-side executor of one :class:`ShardFault`.

    ``on_cycle`` is hooked into the worker's stimulus loop (cycle
    accurate); ``corrupting`` tells the worker's emit path to garble
    outgoing lines (:func:`corrupt_line`).  With ``fault=None`` the
    injector is inert and costs nothing — the worker only installs the
    per-cycle hook when a fault is actually armed.
    """

    def __init__(self, fault: ShardFault | None):
        self.fault = fault
        self.corrupting = False
        self._fired = False

    def on_cycle(self, cycle: int) -> None:
        f = self.fault
        if f is None or self._fired or cycle < f.at_cycle:
            return
        self._fired = True
        if f.kind == "kill":
            # Abrupt death: no cleanup, no `done` event, immediate EOF.
            os._exit(f.exit_code)
        elif f.kind == "hang":
            if f.stubborn:
                # Shrug off SIGTERM so only the coordinator's SIGKILL
                # escalation can reap this worker.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(f.hang_s)
            # A hang that nobody killed resolves into "very slow": the
            # worker continues and may still finish legitimately.
        elif f.kind == "corrupt":
            self.corrupting = True


class RPCFaultInjector:
    """Server-side RPC response faults: delay or drop, per request.

    Decisions are drawn per request *index* from the plan seed; the
    index is a shared counter, so the injected fraction is deterministic
    while the exact victim requests depend on arrival order (see module
    docstring).  Thread-safe: the symbol table server handles
    connections concurrently.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.1,
        kinds: tuple = RPC_FAULT_KINDS,
        delay_s: float = 0.05,
    ):
        if not 0.0 <= rate <= 1.0:
            raise FaultError("RPC fault rate must be within [0, 1]")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.delay_s = delay_s
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def decide(self) -> tuple[str, float] | None:
        """``("delay", seconds)``, ``("drop", 0.0)``, or None."""
        with self._lock:
            n = next(self._counter)
        rng = random.Random(f"rpc:{self.seed}:{n}")
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        return (kind, self.delay_s if kind == "delay" else 0.0)
