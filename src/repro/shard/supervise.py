"""Supervision policies for the shard farm: retries and deadlines.

The coordinator's event loop (``coordinator.py``) consults these
policies whenever a worker attempt fails.  Failures are classified:

* ``"crash"``   — pipe EOF without a ``done`` event (the process died);
* ``"hang"``    — the per-shard deadline expired or heartbeats went
  silent, and the coordinator terminated the worker;
* ``"corrupt"`` — undecodable wire lines were seen and the attempt
  ended without a usable ``done`` result (its pipe ended, its ``done``
  failed to decode, or it fell silent after a line that did not);
* ``"error"``   — the worker itself reported an exception (an ``error``
  event).  This is a *clean, deterministic* failure — a bad spec fails
  identically on every attempt — so it is not retried by default.

A :class:`RetryPolicy` decides which classes are retried, how many
attempts a shard gets, and how long to back off between them; when the
fork-path budget is exhausted, ``inline_fallback`` degrades the shard to
inline execution in the coordinator process (no fork, no pipe — the
reference path, immune to the infrastructure faults being retried).

A :class:`DeadlinePolicy` derives each attempt's wall-clock deadline
from its cycle budget (``base_s + per_kcycle_s * cycles/1000``) and
bounds heartbeat silence; expiry triggers terminate→kill escalation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Failure classes, as recorded in ShardResult.failures[..]["class"].
CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"
ERROR = "error"

#: Classes caused by infrastructure (process/pipe/scheduling), not by the
#: spec itself — the sensible default retry set.
INFRA_FAILURES = frozenset({CRASH, HANG, CORRUPT})


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How shard attempt failures are retried and degraded.

    ``max_attempts`` counts *forked* attempts per shard; once exhausted,
    ``inline_fallback`` (on by default) runs the shard inline in the
    coordinator process instead of giving up — the sweep degrades
    gracefully instead of raising.  Backoff between attempts is
    exponential, capped at ``max_backoff_s``.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    retry_on: frozenset = field(default_factory=lambda: INFRA_FAILURES)
    inline_fallback: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be >= 0")
        # Accept any iterable of class names for retry_on.
        object.__setattr__(self, "retry_on", frozenset(self.retry_on))

    def should_retry(self, failure_class: str, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) failed with
        ``failure_class`` and another forked attempt is allowed."""
        return failure_class in self.retry_on and attempt < self.max_attempts

    def wants_fallback(self, failure_class: str) -> bool:
        """True when an exhausted shard should degrade to inline
        execution: only infrastructure failures qualify — a worker-
        reported spec error fails identically inline."""
        return self.inline_fallback and failure_class in self.retry_on

    def backoff_for(self, attempt: int) -> float:
        """Delay before relaunching after ``attempt`` (1-based) failed."""
        return min(
            self.max_backoff_s,
            self.backoff_s * self.backoff_factor ** max(0, attempt - 1),
        )


@dataclass(frozen=True, slots=True)
class DeadlinePolicy:
    """Per-attempt wall-clock deadlines derived from cycle budgets.

    ``deadline_for(cycles)`` is ``base_s + per_kcycle_s * cycles/1000``:
    the base absorbs fork/attach/reset setup, the per-kilocycle term
    scales with the run length.  ``heartbeat_timeout_s`` bounds event
    *silence* independently of total progress — a worker that stops
    emitting for that long is declared hung even before its deadline.
    ``kill_grace_s`` is how long a terminated worker gets to die before
    the coordinator escalates to SIGKILL.
    """

    base_s: float = 10.0
    per_kcycle_s: float = 5.0
    heartbeat_timeout_s: float | None = None
    kill_grace_s: float = 2.0

    def __post_init__(self):
        if self.base_s < 0 or self.per_kcycle_s < 0:
            raise ValueError("deadline terms must be >= 0")
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")

    def deadline_for(self, cycles: int) -> float:
        return self.base_s + self.per_kcycle_s * cycles / 1000.0

    @classmethod
    def fixed(cls, seconds: float, **kwargs) -> DeadlinePolicy:
        """A flat per-attempt deadline (the CLI's ``--deadline S``)."""
        return cls(base_s=seconds, per_kcycle_s=0.0, **kwargs)


def as_deadline_policy(value) -> DeadlinePolicy | None:
    """Coerce a user-facing deadline argument: None passes through, a
    number becomes a fixed per-attempt deadline, a policy is itself."""
    if value is None or isinstance(value, DeadlinePolicy):
        return value
    if isinstance(value, (int, float)):
        return DeadlinePolicy.fixed(float(value))
    raise TypeError(
        f"deadline must be None, seconds, or DeadlinePolicy, got {value!r}"
    )


def failure_record(
    attempt: int, failure_class: str, message: str, elapsed_s: float
) -> dict:
    """One entry of ``ShardResult.failures`` — a plain JSON-safe dict so
    it travels the wire and serializes in reports unchanged."""
    return {
        "attempt": attempt,
        "class": failure_class,
        "message": message,
        "elapsed_s": round(elapsed_s, 6),
    }
