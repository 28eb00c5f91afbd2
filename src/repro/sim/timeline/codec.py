"""Delta codecs: how a :class:`~repro.sim.timeline.Timeline` stores one
cycle's worth of state change.

A codec is a thin strategy object between the timeline and the value
store.  The *store* owns the representation-specific work (each backend —
list / ``array('Q')`` / numpy — provides its own vectorized encode,
apply, and byte-accounting paths, see ``repro.sim.store``); the codec
picks which family of representation a timeline entry uses:

* :class:`RawCodec` — store-native deltas exactly as ``state_delta``
  produced them (``{index: value}`` dicts on the list/array backends,
  index/value array pairs on numpy).  This is the seed ring's behavior.
* :class:`RleCodec` — run-length-encoded deltas: consecutive signal
  indices collapse into ``(start, count)`` runs over one flat typed value
  buffer.  Registers of a module are allocated adjacently in the value
  table, so a design whose per-cycle activity is a handful of hot
  registers stores one run of a few words instead of a boxed dict —
  roughly an order of magnitude fewer bytes per cycle, which is the
  lever behind the ≥8x rewind-window bar in ``benchmarks/bench_timeline.py``.

Codecs only cover the *narrow state delta*: keyframes, wide (>64-bit)
overflow copies, and memory-word deltas are codec-independent (see
``timeline.py``).

Selection: ``Timeline(codec=...)`` / ``SessionOptions(snapshot_codec=...)``
take a name; ``None`` defers to ``$REPRO_TIMELINE_CODEC``, then
``"raw"``.  Property tests pin both codecs bit-identical to each other
and to the uncompressed reference path.
"""

from __future__ import annotations

import os

from ..interface import SimulatorError

#: Environment override for the default codec.
CODEC_ENV = "REPRO_TIMELINE_CODEC"

CODEC_KINDS = ("raw", "rle")


class DeltaCodec:
    """Strategy for one timeline's delta entries.

    Every method takes the owning :class:`~repro.sim.store.ValueStore`:
    deltas are store-native opaque objects, and the store is the only
    party that knows how to traverse them (vectorized on numpy).
    """

    name = "raw"

    def encode(self, store, delta):
        """Store-native delta -> entry payload (raw: identity)."""
        return delta

    def apply(self, store, buf, encoded) -> None:
        """Replay an encoded delta onto a captured narrow buffer."""
        store.apply_delta(buf, encoded)

    def nbytes(self, store, encoded) -> int:
        """Approximate retained bytes of one encoded delta."""
        return store.delta_nbytes(encoded)

    def pairs(self, store, encoded) -> list[tuple[int, int]]:
        """Sorted ``(index, value)`` pairs — the backend-independent view
        used by the wire serialization and divergence comparison."""
        return store.delta_pairs(encoded)


class RawCodec(DeltaCodec):
    """Store deltas exactly as the value store produced them."""

    name = "raw"


class RleCodec(DeltaCodec):
    """Run-length-encode deltas over consecutive signal indices."""

    name = "rle"

    def encode(self, store, delta):
        return store.encode_rle(delta)

    def apply(self, store, buf, encoded) -> None:
        store.apply_rle(buf, encoded)

    def nbytes(self, store, encoded) -> int:
        return store.rle_nbytes(encoded)

    def pairs(self, store, encoded) -> list[tuple[int, int]]:
        return store.rle_pairs(encoded)


_CODECS = {"raw": RawCodec, "rle": RleCodec}


def resolve_codec_kind(kind: str | None) -> str:
    """Resolve a requested codec name to a concrete one.

    ``None`` defers to ``$REPRO_TIMELINE_CODEC``, then ``"raw"`` (the
    seed ring's representation).
    """
    if kind is None:
        kind = os.environ.get(CODEC_ENV) or "raw"
    if kind not in CODEC_KINDS:
        raise SimulatorError(
            f"unknown timeline codec {kind!r}; expected one of {CODEC_KINDS}"
        )
    return kind


def make_codec(kind: str | None) -> DeltaCodec:
    """Build a codec instance (see :func:`resolve_codec_kind`)."""
    return _CODECS[resolve_codec_kind(kind)]()
