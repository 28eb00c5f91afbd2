"""The simulator's value table (the ``ValueStore``).

Every layer of the stack — generated ``comb``/``tick`` statements, the
engine's pokes, the timeline's snapshots, compiled breakpoint/watchpoint
closures, shard state digests — reaches into one data structure: the
flattened signal value table.  It is a plain ``list[int]``: generated
statements do all the per-cycle work on the paper's RV32 suite, and list
element access (cached int objects, no boxing per read) made it faster
there than the typed-lane stores it outlived (``docs/performance.md``
§4).

**Lane layout.**  Signals up to 64 bits wide occupy one slot of the
``narrow`` list (all stored values are already masked to their signal
width by the code generator, so they always fit one 64-bit lane).  Wider
signals — e.g. the 128-bit product of two 64-bit operands — live in the
``wide`` overflow dict (signal index -> unmasked Python int); the code
generator emits ``w[i]`` instead of ``v[i]`` for them, so the hot path
pays nothing for the possibility.  Designs without wide signals (the
common case) carry an empty dict.
"""

from __future__ import annotations

from array import array

from .interface import SimulatorError

#: Bits per lane of the ``narrow`` list; wider signals overflow into the
#: ``wide`` dict.
LANE_BITS = 64


def resolve_store_kind(kind: str | None) -> str:
    """The value store's name: ``"list"`` for None, ``"auto"`` or
    ``"list"``, a :class:`SimulatorError` for anything else.

    There is one store; this and :attr:`SessionOptions.store` remain only
    for the value-store line of ``perfbench/run.py``'s run header, and can
    go with that line.
    """
    if kind not in (None, "auto", "list"):
        raise SimulatorError(f"unknown value store {kind!r}; the only one is 'list'")
    return "list"


class ValueStore:
    """One simulator's signal values: the ``narrow`` list of 64-bit lanes
    plus the ``wide`` overflow dict for >64-bit signals.

    The hot paths never call methods on this object: generated code and
    the engine index ``narrow``/``wide`` directly, and compiled condition
    closures bind them at compile time.  Neither is ever rebound, so a
    snapshot is restored into them in place.  The sequence protocol below
    serves the cold paths (``sim.values[i]``, trace writers, tests) with
    wide signals transparently dispatched.

    For the timeline, ``copy_wide``/``restore_wide`` snapshot the wide
    values (full copies: wide signals are too rare to delta), and
    ``capture_state``/``state_delta`` drive the per-cycle delta scan over
    the design's narrow state signals; a timeline keeps each delta dict as
    it is.
    """

    def __init__(self, n_signals, wide_indices, state_indices):
        self.n = n_signals
        self.wide: dict[int, int] = {i: 0 for i in wide_indices}
        self.narrow: list[int] = [0] * n_signals
        #: The narrow state-signal indices (registers and inputs),
        #: ascending, that the per-cycle delta scan covers; wide state
        #: signals ride the full per-snapshot wide copy.
        self.state_indices = tuple(i for i in state_indices if i not in self.wide)

    # -- sequence protocol (cold paths) ------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        # Match list semantics the wide dict would otherwise miss: slices
        # answer from the merged plain-list view, negative indices are
        # normalized before the wide lookup.
        if isinstance(i, slice):
            return self.as_list()[i]
        wide = self.wide
        if wide:
            if i < 0:
                i += self.n
            if i in wide:
                return wide[i]
        return self.narrow[i]

    def __setitem__(self, i: int, value: int) -> None:
        if i < 0:
            i += self.n
        if i in self.wide:
            self.wide[i] = value
        else:
            self.narrow[i] = value

    def __iter__(self):
        wide = self.wide
        if not wide:
            return iter(self.narrow)
        return (wide[i] if i in wide else v for i, v in enumerate(self.narrow))

    def __eq__(self, other) -> bool:
        if isinstance(other, ValueStore):
            return self.as_list() == other.as_list()
        if isinstance(other, (list, tuple)):
            return self.as_list() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} wide={len(self.wide)}>"

    def as_list(self) -> list[int]:
        """The value table as a plain list, wide signals included."""
        return list(self)

    # -- snapshots -----------------------------------------------------------

    def copy_wide(self) -> dict | None:
        """Full copy of the wide overflow values (None when there are none)."""
        return dict(self.wide) if self.wide else None

    def restore_wide(self, saved: dict | None) -> None:
        if saved is not None:
            self.wide.clear()
            self.wide.update(saved)

    # -- per-cycle state deltas ---------------------------------------------

    def capture_state(self) -> list[int]:
        """Baseline for :meth:`state_delta`, taken from the live values."""
        narrow = self.narrow
        return [narrow[i] for i in self.state_indices]

    def state_delta(self, base) -> dict[int, int]:
        """``{index: value}`` of the state signals that changed since
        ``base``, in ascending index order; updates ``base`` in place to
        the current values."""
        narrow = self.narrow
        delta: dict[int, int] = {}
        for k, i in enumerate(self.state_indices):
            val = narrow[i]
            if val != base[k]:
                delta[i] = val
                base[k] = val
        return delta

    # -- digests -------------------------------------------------------------

    def digest_bytes(self) -> bytes:
        """The value table as bytes: the narrow lanes as little-endian
        unsigned 64-bit words plus the sorted wide entries.  Equal bytes
        mean bit-identical state."""
        out = array("Q", self.narrow).tobytes()
        if self.wide:
            out += repr(sorted(self.wide.items())).encode()
        return out
