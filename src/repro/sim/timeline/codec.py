"""Delta codecs: how a :class:`~repro.sim.timeline.Timeline` stores one
cycle's worth of state change.

A delta is the ``{index: value}`` dict of changed narrow state signals
that :meth:`~repro.sim.store.ValueStore.state_delta` returns.  The codec
owns everything a timeline does with one: how an entry holds it, how it
is replayed onto a keyframe's narrow values, its byte estimate, and its
plain ``(index, value)`` pairs.

* :class:`RawCodec` — the dict exactly as ``state_delta`` produced it.
  This is the seed ring's behavior and the default.
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
take a name; ``None`` means ``"raw"``.  Property tests pin both codecs
bit-identical to each other and to the uncompressed reference path.
"""

from __future__ import annotations

import sys
from array import array

from ..interface import SimulatorError

CODEC_KINDS = ("raw", "rle")


class DeltaCodec:
    """Strategy for one timeline's delta entries (see the subclasses)."""

    name = ""

    def encode(self, delta: dict[int, int]):
        """A ``state_delta`` dict -> the entry's payload."""
        raise NotImplementedError

    def apply(self, buf, encoded) -> None:
        """Replay an encoded delta onto a keyframe's narrow values (an
        ``array('Q')``, or any mutable sequence of ints)."""
        raise NotImplementedError

    def nbytes(self, encoded) -> int:
        """Approximate retained bytes of one encoded delta."""
        raise NotImplementedError

    def pairs(self, encoded) -> list[tuple[int, int]]:
        """Sorted ``(index, value)`` pairs — the codec-independent view
        used by the wire serialization and divergence comparison."""
        raise NotImplementedError


class RawCodec(DeltaCodec):
    """Keep each delta as the dict ``state_delta`` produced."""

    name = "raw"

    def encode(self, delta):
        return delta

    def apply(self, buf, encoded) -> None:
        for i, val in encoded.items():
            buf[i] = val

    def nbytes(self, encoded) -> int:
        # The dict table plus two boxed ints per changed signal.
        return sys.getsizeof(encoded) + 56 * len(encoded)

    def pairs(self, encoded):
        return sorted(encoded.items())


class RleCodec(DeltaCodec):
    """Run-length-encode deltas over consecutive signal indices: a
    ``(runs, values)`` pair, where ``runs`` interleaves ``start, count``
    and ``values`` is one flat unsigned-64 buffer."""

    name = "rle"

    def encode(self, delta):
        runs = array("q")
        values = array("Q")
        end = None
        for i, v in sorted(delta.items()):
            if i == end:
                runs[-1] += 1
            else:
                runs.append(i)
                runs.append(1)
            values.append(v)
            end = i + 1
        return (runs, values)

    def apply(self, buf, encoded) -> None:
        # One slice assignment per run.
        runs, values = encoded
        j = 0
        for k in range(0, len(runs), 2):
            start, count = runs[k], runs[k + 1]
            buf[start : start + count] = values[j : j + count]
            j += count

    def nbytes(self, encoded) -> int:
        runs, values = encoded
        return sys.getsizeof(runs) + sys.getsizeof(values)

    def pairs(self, encoded):
        runs, values = encoded
        out: list[tuple[int, int]] = []
        j = 0
        for k in range(0, len(runs), 2):
            start, count = runs[k], runs[k + 1]
            out.extend((start + o, values[j + o]) for o in range(count))
            j += count
        return out


_CODECS = {"raw": RawCodec, "rle": RleCodec}


def resolve_codec_kind(kind: str | None) -> str:
    """Resolve a requested codec name: ``None`` means ``"raw"`` (the seed
    ring's representation)."""
    if kind is None:
        return "raw"
    if kind not in CODEC_KINDS:
        raise SimulatorError(
            f"unknown timeline codec {kind!r}; expected one of {CODEC_KINDS}"
        )
    return kind


def make_codec(kind: str | None) -> DeltaCodec:
    """Build a codec instance (see :func:`resolve_codec_kind`)."""
    return _CODECS[resolve_codec_kind(kind)]()
