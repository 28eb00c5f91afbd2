"""Typed value-table storage backends (the ``ValueStore`` layer).

Every layer of the stack — generated ``comb``/``tick`` statements, the
engine's pokes and snapshots, compiled breakpoint/watchpoint closures,
shard state digests — reaches into one data structure: the flattened
signal value table.  The seed implementation was a ``list[int]``; this
module makes the representation pluggable:

* :class:`ListStore` — the reference backend and the default, a plain
  ``list[int]``.  Fastest per-element access (reads return cached int
  objects instead of boxing a fresh one per lane read), no bulk
  operations — on the paper's RV32 suite, where generated statements do
  all the per-cycle work, that makes it the fastest scalar backend.
* :class:`ArrayStore` — ``array('Q')`` lanes, one 64-bit lane per signal.
  Snapshot keyframes become C-level ``memcpy`` copies and the raw buffer
  is directly hashable/serializable via ``memoryview``.
* :class:`NumpyStore` — the vectorized backend: the *same* ``array('Q')``
  buffer with a zero-copy ``numpy`` view on top.  Generated statements
  keep indexing the ``array`` (plain Python ints in, plain Python ints
  out — numpy scalar arithmetic would be both slower and wrong for
  >64-bit intermediates), while the bulk operations the engine performs
  every cycle — the snapshot state-delta scan, keyframe copy/restore —
  run vectorized over the view.  It wins only where those bulk scans
  dominate (a wide, register-sparse design under snapshots).

**Lane layout.**  Signals up to 64 bits wide occupy one unsigned 64-bit
lane in the ``narrow`` buffer (all stored values are already masked to
their signal width by the code generator, so they always fit).  Wider
signals — e.g. the 128-bit product of two 64-bit operands — live in the
``wide`` overflow dict (signal index -> unmasked Python int); the code
generator emits ``w[i]`` instead of ``v[i]`` for them, so the hot path
pays nothing for the possibility.  Designs without wide signals (the
common case) carry an empty dict.

Backend selection: ``SessionOptions(store=...)`` takes a backend name, the
``REPRO_VALUE_STORE`` environment variable overrides the default, and
``"auto"`` (the default) picks ``list``, with or without numpy installed.
numpy is imported only when a :class:`NumpyStore` is built, so the other
backends never load it.  Property tests pin all backends bit-identical to
the list reference.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from array import array

from .interface import SimulatorError

#: Bits per lane of the typed ``narrow`` buffer; wider signals overflow
#: into the ``wide`` dict.
LANE_BITS = 64

#: Environment override for the default backend.
STORE_ENV = "REPRO_VALUE_STORE"

STORE_KINDS = ("list", "array", "numpy", "auto")


def numpy_available() -> bool:
    """Whether numpy is installed, answered without importing it."""
    return importlib.util.find_spec("numpy") is not None


def resolve_store_kind(kind: str | None) -> str:
    """Resolve a requested backend name to a concrete one.

    ``None`` defers to ``$REPRO_VALUE_STORE``, then to ``"auto"``.
    ``"auto"`` resolves to ``"list"``, the fastest scalar backend on the
    paper's workloads (``docs/performance.md`` §4).  An explicit
    ``"numpy"`` without numpy installed is an error (silently degrading
    an explicit request would mask a broken environment).
    """
    if kind is None:
        kind = os.environ.get(STORE_ENV) or "auto"
    if kind not in STORE_KINDS:
        raise SimulatorError(
            f"unknown value store {kind!r}; expected one of {STORE_KINDS}"
        )
    if kind == "auto":
        return "list"
    if kind == "numpy" and not numpy_available():
        raise SimulatorError(
            "value store 'numpy' requested but numpy is not importable"
        )
    return kind


def make_store(kind: str | None, design) -> ValueStore:
    """Build a value store for a compiled design (see :func:`resolve_store_kind`)."""
    resolved = resolve_store_kind(kind)
    cls = {"list": ListStore, "array": ArrayStore, "numpy": NumpyStore}[resolved]
    return cls(design.n_signals, design.wide_indices, design.state_indices)


class ValueStore:
    """One simulator's signal values: a ``narrow`` 64-bit-lane buffer plus
    a ``wide`` overflow dict for >64-bit signals.

    The hot paths never call methods on this object: generated code and
    the engine index ``narrow``/``wide`` directly, and compiled condition
    closures bind them at compile time.  The sequence protocol below
    serves the cold paths (``sim.values[i]``, trace writers, tests) with
    wide signals transparently dispatched.

    Snapshot support: ``copy_narrow``/``clone_narrow``/``restore_narrow``
    capture and restore the narrow buffer (backend-native, so the array
    backends get C-level copies), ``capture_state``/``state_delta`` drive
    the per-cycle delta scan over the design's state signals, and
    ``apply_delta`` replays a delta onto a captured buffer (ring eviction
    and ``set_time`` reconstruction).  Wide signals are snapshotted as
    full dict copies per entry — they are rare enough that deltas would
    cost more than they save.
    """

    kind = "list"

    def __init__(self, n_signals, wide_indices, state_indices):
        self.n = n_signals
        self.wide: dict[int, int] = {i: 0 for i in wide_indices}
        # Wide state signals are covered by the full per-snapshot wide
        # copy; the delta scan tracks only the narrow ones.
        self._narrow_state = tuple(i for i in state_indices if i not in self.wide)
        self.narrow = self._make_buffer(n_signals)

    # -- buffer construction (backend hooks) -------------------------------

    def _make_buffer(self, n):
        return [0] * n

    # -- sequence protocol (cold paths) ------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        # Match list semantics the wide dict would otherwise miss: slices
        # answer from the merged plain-list view (uniform across
        # backends), negative indices are normalized before the wide
        # lookup.
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
        """The value table as a plain list (backend-independent view)."""
        return list(self)

    # -- snapshot keyframes -------------------------------------------------

    def copy_narrow(self):
        """A keyframe copy of the narrow buffer (backend native)."""
        return self.narrow.copy()

    def clone_narrow(self, saved):
        """An independent copy of a captured buffer (rewind scratch)."""
        return saved.copy()

    def restore_narrow(self, saved) -> None:
        """Write a captured buffer back into the live one, in place —
        generated code holds direct references to ``narrow``."""
        self.narrow[:] = saved

    def copy_wide(self) -> dict | None:
        """Full copy of the wide overflow values (None when there are none)."""
        return dict(self.wide) if self.wide else None

    def restore_wide(self, saved: dict | None) -> None:
        if saved is not None:
            self.wide.clear()
            self.wide.update(saved)

    @staticmethod
    def apply_delta(saved, delta) -> None:
        """Replay a delta onto a captured buffer.

        Deltas are *store-native* opaque objects: the engine only ever
        hands them back to the store that produced them.  The list/array
        backends use ``{index: value}`` dicts; the numpy backend uses
        index/value array pairs so both capture and replay stay
        vectorized."""
        for i, val in delta.items():
            saved[i] = val

    # -- delta codec hooks (repro.sim.timeline) -----------------------------
    #
    # The timeline's codecs delegate the representation-specific work
    # here so each backend keeps its native vectorized path: raw deltas
    # stay whatever ``state_delta`` produced, RLE packs consecutive
    # indices into ``(runs, values)`` typed buffers (``runs`` interleaves
    # ``start, count`` pairs), and the byte estimates feed the timeline's
    # byte-budget retention.

    def delta_nbytes(self, delta) -> int:
        """Approximate retained bytes of one raw (dict) delta: the dict
        table plus two boxed ints per changed signal."""
        return sys.getsizeof(delta) + 56 * len(delta)

    def delta_pairs(self, delta) -> list[tuple[int, int]]:
        """Sorted plain-int ``(index, value)`` pairs of a raw delta."""
        return sorted((int(i), int(v)) for i, v in delta.items())

    def encode_rle(self, delta):
        """Raw delta -> ``(runs, values)``: consecutive signal indices
        collapse into interleaved ``start, count`` runs over one flat
        unsigned-64 value buffer."""
        runs = array("q")
        values = array("Q")
        end = None
        for i, v in sorted(delta.items()):
            if end is not None and i == end:
                runs[-1] += 1
            else:
                runs.append(i)
                runs.append(1)
            values.append(v)
            end = i + 1
        return (runs, values)

    @staticmethod
    def apply_rle(saved, encoded) -> None:
        """Replay an RLE delta onto a captured buffer, one slice
        assignment per run (C-level on the typed backends)."""
        runs, values = encoded
        j = 0
        for k in range(0, len(runs), 2):
            start, count = runs[k], runs[k + 1]
            saved[start:start + count] = values[j:j + count]
            j += count

    @staticmethod
    def rle_nbytes(encoded) -> int:
        runs, values = encoded
        return sys.getsizeof(runs) + sys.getsizeof(values)

    @staticmethod
    def rle_pairs(encoded) -> list[tuple[int, int]]:
        runs, values = encoded
        out: list[tuple[int, int]] = []
        j = 0
        for k in range(0, len(runs), 2):
            start, count = runs[k], runs[k + 1]
            out.extend(
                (int(start) + o, int(values[j + o])) for o in range(count)
            )
            j += count
        return out

    # -- timeline byte accounting -------------------------------------------

    @property
    def state_indices(self) -> tuple:
        """The narrow state-signal indices the per-cycle delta scan
        covers (wide state signals ride the full per-entry wide copy)."""
        return self._narrow_state

    def keyframe_nbytes(self, saved) -> int:
        """Approximate retained bytes of one keyframe buffer."""
        return sys.getsizeof(saved) + 32 * len(saved)

    def wide_nbytes(self) -> int:
        """Approximate retained bytes of one full wide-overflow copy."""
        if not self.wide:
            return 0
        return sys.getsizeof(self.wide) + 88 * len(self.wide)

    # -- per-cycle state deltas ---------------------------------------------

    def capture_state(self):
        """Baseline for :meth:`state_delta`, taken from the live buffer."""
        narrow = self.narrow
        return [narrow[i] for i in self._narrow_state]

    def capture_state_from(self, saved):
        """Baseline taken from a captured buffer (rewind reconstruction)."""
        return [saved[i] for i in self._narrow_state]

    def state_delta(self, base) -> dict:
        """``{index: value}`` of state signals that changed since ``base``;
        updates ``base`` in place to the current values."""
        narrow = self.narrow
        delta: dict[int, int] = {}
        for k, i in enumerate(self._narrow_state):
            val = narrow[i]
            if val != base[k]:
                delta[i] = val
                base[k] = val
        return delta

    # -- digests -------------------------------------------------------------

    def digest_bytes(self) -> bytes:
        """The raw value table as bytes, backend-independent: the narrow
        lanes little-endian via ``memoryview``/``tobytes`` plus the sorted
        wide entries.  Equal bytes mean bit-identical state."""
        out = self._narrow_bytes()
        if self.wide:
            out += repr(sorted(self.wide.items())).encode()
        return out

    def _narrow_bytes(self) -> bytes:
        return array("Q", self.narrow).tobytes()


class ListStore(ValueStore):
    """The reference backend: a plain ``list[int]`` value table."""

    kind = "list"


class ArrayStore(ValueStore):
    """``array('Q')`` lanes: compact storage, memcpy keyframes, hashable
    raw buffer.  Element access still yields plain Python ints."""

    kind = "array"

    def _make_buffer(self, n):
        return array("Q", bytes(8 * n))

    def copy_narrow(self):
        return self.narrow[:]

    def clone_narrow(self, saved):
        return saved[:]

    def capture_state(self):
        narrow = self.narrow
        return array("Q", [narrow[i] for i in self._narrow_state])

    def capture_state_from(self, saved):
        return array("Q", [saved[i] for i in self._narrow_state])

    def keyframe_nbytes(self, saved) -> int:
        return sys.getsizeof(saved)  # the array object includes its buffer

    def _narrow_bytes(self) -> bytes:
        return self.narrow.tobytes()


class NumpyStore(ArrayStore):
    """The vectorized backend: ``array('Q')`` lanes shared zero-copy with
    a ``numpy`` view.  Element reads/writes (generated code, pokes, the
    compiled condition closures) go through the ``array`` — Python-int
    semantics, no numpy scalars on the hot path — while the per-cycle
    snapshot scan and keyframe copy/restore run vectorized on the view.
    """

    kind = "numpy"

    def __init__(self, n_signals, wide_indices, state_indices):
        try:
            import numpy as np
        except ImportError as exc:
            raise SimulatorError(
                "value store 'numpy' requested but numpy is not importable"
            ) from exc
        super().__init__(n_signals, wide_indices, state_indices)
        self._np = np
        self.view = np.frombuffer(self.narrow, dtype=np.uint64)
        self._state_idx = np.array(self._narrow_state, dtype=np.intp)
        # Per-cycle scratch: one gather target reused every scan, so the
        # steady-state delta path allocates only the (small) delta itself.
        self._scratch = np.zeros(len(self._narrow_state), dtype=np.uint64)
        self._empty_delta = (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.uint64),
        )

    def copy_narrow(self):
        return self.view.copy()

    def clone_narrow(self, saved):
        return saved.copy()

    def restore_narrow(self, saved) -> None:
        self.view[:] = saved

    @staticmethod
    def apply_delta(saved, delta) -> None:
        ks, vals = delta
        saved[ks] = vals

    def capture_state(self):
        return self.view[self._state_idx]

    def capture_state_from(self, saved):
        return saved[self._state_idx]

    def state_delta(self, base):
        cur = self._scratch
        self.view.take(self._state_idx, out=cur)
        changed = cur != base
        if not changed.any():
            return self._empty_delta
        ks = changed.nonzero()[0]
        delta = (self._state_idx[ks], cur[ks])
        base[:] = cur
        return delta

    # -- delta codec hooks: vectorized over the array-pair deltas -----------

    def delta_nbytes(self, delta) -> int:
        ks, vals = delta
        return ks.nbytes + vals.nbytes + 192  # + the two array objects

    def delta_pairs(self, delta) -> list[tuple[int, int]]:
        ks, vals = delta
        # ks ascending
        return [(int(i), int(v)) for i, v in zip(ks, vals, strict=False)]

    def encode_rle(self, delta):
        """Vectorized run detection: one ``diff`` over the (ascending)
        changed-index array finds every run break."""
        np = self._np
        ks, vals = delta
        if len(ks) == 0:
            return (np.empty(0, dtype=np.int64), vals)
        breaks = np.flatnonzero(np.diff(ks) != 1) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.intp), breaks))
        lengths = np.diff(np.append(starts, len(ks)))
        runs = np.empty(2 * len(starts), dtype=np.int64)
        runs[0::2] = ks[starts]
        runs[1::2] = lengths
        return (runs, vals)

    @staticmethod
    def rle_nbytes(encoded) -> int:
        runs, values = encoded
        return runs.nbytes + values.nbytes + 224

    def keyframe_nbytes(self, saved) -> int:
        return saved.nbytes + 112

    def _narrow_bytes(self) -> bytes:
        return self.narrow.tobytes()

