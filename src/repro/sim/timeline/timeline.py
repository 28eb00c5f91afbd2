"""The unified time-travel subsystem.

Every reverse-debugging frontend in this repository — the live
``Simulator``'s ``set_time``, the VCD ``ReplayEngine``, shard workers
streaming history to the aggregator — answers the same two questions:
*which cycles can I go back to* and *what was the state there*.  This
module owns both:

* :class:`Timeline` — the last N cycles of a live simulation: a deque of
  entries bound to one :class:`~repro.sim.store.ValueStore` (and the
  simulator's memories), where the head entry is always a full
  *keyframe* and later entries are per-cycle ``{index: value}`` state
  deltas.
* :class:`FullTraceTimeline` — the replay engine's view: a trace retains
  every cycle by construction, so the "timeline" is just the full cycle
  range with zero storage of its own.
* :class:`TimelineView` — the query surface both share (window, retained
  times, membership, ``describe``), which the console's ``timeline``
  command and :meth:`SimulatorInterface.history` are written against.
* :func:`first_timeline_divergence` — compare two serialized timelines
  (``Timeline.to_wire``) cycle by cycle and name the first divergent
  cycle *and signal/memory word*.  The shard aggregator uses this to turn
  a digest mismatch ("replicas disagree") into a localized bug report
  ("shard 2 diverged at cycle 37 on ``Top.core.acc``").

Out-of-window requests raise :class:`TimelineError`, which subclasses
both :class:`~repro.sim.interface.SimulatorError` (the interface
contract) and :class:`ValueError` (so plain callers get a conventional
exception) and always names the retained window.
"""

from __future__ import annotations

import sys
import warnings
from array import array
from collections import deque
from dataclasses import dataclass

from ..interface import SimulatorError

#: Designs whose memories total more than this many words do not get
#: memory history (registers and inputs still do): copying megaword
#: memories into keyframes would dwarf the state they debug.  The
#: timeline warns once instead of silently degrading.
MEM_HISTORY_WORD_CAP = 1 << 16

#: Fixed per-entry overhead in the byte estimate (entry object + deque
#: slot); keeps zero-delta cycles from looking free.
_ENTRY_OVERHEAD = 64


class TimelineError(SimulatorError, ValueError):
    """A time-travel request outside the retained window (or with history
    disabled).  Subclasses both ``SimulatorError`` and ``ValueError``."""


@dataclass(slots=True)
class TimelineEntry:
    """One retained cycle.

    A *keyframe* entry stores full copies (``values`` — the store's
    narrow list as compact ``array('Q')`` lanes — and ``mem_copy``); a
    *delta* entry stores only the state change since the previous entry
    (``delta``, the ``{index: value}`` dict of
    :meth:`~repro.sim.store.ValueStore.state_delta`, and ``delta_mem``).
    ``wide`` is a full copy of the >64-bit overflow values on every entry
    — wide signals are too rare to delta — and None on designs without
    them.
    """

    time: int
    values: array | None = None
    wide: dict | None = None
    mem_copy: list | None = None
    delta: dict | None = None
    delta_mem: dict | None = None
    # Position stamp: the entry's deque index plus the number of entries
    # evicted before it (Timeline._head_seq is the head's).
    seq: int = 0


class TimelineView:
    """The read-only query surface every time-travel backend exposes.

    ``Simulator.timeline`` (a :class:`Timeline`) and
    ``ReplayEngine.timeline`` (a :class:`FullTraceTimeline`) both
    implement this, so frontends — the console's ``timeline`` command,
    ``SimulatorInterface.history`` — work identically on live and
    replayed runs.
    """

    def window(self) -> tuple[int, int] | None:
        """``(oldest, newest)`` retained cycle, or None when empty."""
        raise NotImplementedError

    def times(self) -> list[int]:
        """Every retained cycle, ascending."""
        raise NotImplementedError

    def __contains__(self, time: int) -> bool:
        w = self.window()
        return w is not None and w[0] <= time <= w[1]

    def __len__(self) -> int:
        return len(self.times())

    def prev_time(self, time: int) -> int | None:
        """The newest retained cycle strictly before ``time`` (reverse
        stepping), or None when history is exhausted."""
        best = None
        for t in self.times():
            if t >= time:
                break
            best = t
        return best

    @property
    def nbytes(self) -> int:
        """Approximate bytes retained (0 when history costs nothing,
        e.g. a trace that is already on disk)."""
        return 0

    def describe(self) -> str:
        """One human-readable summary line (console ``timeline``)."""
        w = self.window()
        if w is None:
            return "timeline: empty (no cycles retained yet)"
        return f"timeline: cycles {w[0]}..{w[1]} ({len(self)} retained)"


class FullTraceTimeline(TimelineView):
    """A replayed trace retains every cycle; nothing is stored here."""

    def __init__(self, n_cycles: int, label: str = "trace"):
        self.n_cycles = n_cycles
        self.label = label

    def window(self) -> tuple[int, int] | None:
        return (0, self.n_cycles - 1) if self.n_cycles else None

    def times(self) -> list[int]:
        return list(range(self.n_cycles))

    def __contains__(self, time: int) -> bool:
        return 0 <= time < self.n_cycles

    def __len__(self) -> int:
        return self.n_cycles

    def prev_time(self, time: int) -> int | None:
        t = min(time, self.n_cycles) - 1
        return t if t >= 0 else None

    def describe(self) -> str:
        if not self.n_cycles:
            return f"timeline: empty {self.label}"
        return (
            f"timeline: cycles 0..{self.n_cycles - 1} "
            f"({self.n_cycles} retained, full {self.label})"
        )


class Timeline(TimelineView):
    """Keyframe+delta state history of one live simulation's last
    ``limit`` cycles.

    The timeline owns everything the engine's snapshot ring used to
    scatter across ``Simulator`` internals: the entry deque, the by-time
    index, the per-cycle delta baseline, and the memory-write journal the
    generated journaling tick feeds (``mem_written`` — bound once and
    mutated in place; generated code holds its ``add`` across rewinds).

    Invariants:

    * entry times are strictly increasing; :meth:`record` drops any stale
      suffix at-or-after the new time first (rewind + re-execution);
    * the head entry is always a keyframe (eviction folds an evicted
      keyframe into its delta successor in O(delta)), so a rewind replays
      at most ``limit - 1`` deltas.

    Args:
        store: the simulator's value store (restored in place on rewind).
        mems: the simulator's live memories (restored in place; copied by
            slice, so an ``array('Q')`` and a list of ints both work).
        mem_specs: the compiled design's :class:`MemSpec` list — decides
            memory-history gating against :data:`MEM_HISTORY_WORD_CAP`.
        limit: retain the last this many cycles (> 0).
    """

    def __init__(self, store, mems: list, mem_specs=(), *, limit: int):
        if limit <= 0:
            raise SimulatorError(f"timeline entry limit must be > 0, got {limit}")
        self.store = store
        self.mems = mems
        self.limit = limit
        self.entries: deque[TimelineEntry] = deque()
        self.by_time: dict[int, TimelineEntry] = {}
        #: Memory-write journal fed by the generated journaling tick.
        #: Mutated in place, never rebound (bound ``add`` lives in the
        #: engine's step loop across rewinds).
        self.mem_written: set[tuple[int, int]] = set()
        self._base = None          # state baseline for the next delta
        self._head_seq = 0         # the head entry's seq (see TimelineEntry)
        # Always-on history stats: plain ints read lazily by repro.obs
        # collectors / Simulator.stats(); never consulted on the hot path.
        self.stat_keyframes = 0
        self.stat_evictions = 0
        self.stat_records = 0
        total_words = sum(spec.depth for spec in mem_specs)
        self.snap_mems = bool(mem_specs) and total_words <= MEM_HISTORY_WORD_CAP
        if mem_specs and not self.snap_mems:
            warnings.warn(
                f"timeline: design has {total_words} memory words "
                f"(> cap {MEM_HISTORY_WORD_CAP}); memory history disabled — "
                f"set_time will restore registers and inputs but not "
                f"memory contents",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- view surface ------------------------------------------------------

    def window(self) -> tuple[int, int] | None:
        if not self.entries:
            return None
        return (self.entries[0].time, self.entries[-1].time)

    def times(self) -> list[int]:
        return [e.time for e in self.entries]

    def __contains__(self, time: int) -> bool:
        return time in self.by_time

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nbytes(self) -> int:
        return sum(self._entry_nbytes(e) for e in self.entries)

    def describe(self) -> str:
        w = self.window()
        if w is None:
            return f"timeline: empty (limit {self.limit})"
        return (
            f"timeline: cycles {w[0]}..{w[1]} ({len(self)} retained, "
            f"{_fmt_bytes(self.nbytes)}, limit {self.limit})"
        )

    # -- recording ---------------------------------------------------------

    def record(self, time: int, evict: bool = True) -> None:
        """Retain the store's current (settled) state as cycle ``time``.

        Re-executing after a rewind drops the stale suffix first: entries
        at-or-after ``time`` describe the previous run.  During plain
        forward stepping the tail sits at ``time - 1`` and the stale
        check is a single comparison.

        ``evict=False`` lets the new entry transiently exceed the limit —
        used by read-only history walks, which must not push the oldest
        retained cycle out of the window just to make the current cycle
        restorable.  The next regular ``record`` trims back to the limit.
        """
        entries = self.entries
        while entries and entries[-1].time >= time:
            del self.by_time[entries.pop().time]
        store = self.store
        if self._base is None or not entries:
            entry = self._make_keyframe(time)
        else:
            delta_mem: dict | None = None
            if self.snap_mems:
                mems = self.mems
                delta_mem = {
                    key: mems[key[0]][key[1]] for key in self.mem_written
                }
                self.mem_written.clear()
            entry = TimelineEntry(
                time,
                wide=store.copy_wide(),
                delta=store.state_delta(self._base),
                delta_mem=delta_mem,
            )
        entry.seq = self._head_seq + len(entries)
        entries.append(entry)
        self.by_time[time] = entry
        self.stat_records += 1
        if evict:
            while len(entries) > self.limit:
                self._evict_oldest()

    def restart(self) -> None:
        """Drop every entry and the delta baseline, so the next
        :meth:`record` is a keyframe.  For state reached without recording
        (the native kernel's cycles): the memory-write journal missed its
        writes, so a delta across the gap would be wrong."""
        self.entries.clear()
        self.by_time.clear()
        self.mem_written.clear()
        self._base = None

    def _make_keyframe(self, time: int) -> TimelineEntry:
        self.stat_keyframes += 1
        store = self.store
        # 8 bytes per signal, where a list copy would keep a pointer and
        # often a boxed int per signal alive.
        values = array("Q", store.narrow)
        mem_copy = [mem[:] for mem in self.mems] if self.snap_mems else None
        self._base = store.capture_state()
        self.mem_written.clear()
        return TimelineEntry(
            time,
            values=values,
            wide=store.copy_wide(),
            mem_copy=mem_copy,
        )

    # -- retention ---------------------------------------------------------

    def _evict_oldest(self) -> None:
        """Drop the head keyframe by folding it into its successor —
        O(successor delta), never a rescan of the whole state."""
        self.stat_evictions += 1
        old = self.entries.popleft()
        self._head_seq += 1
        del self.by_time[old.time]
        nxt = self.entries[0]
        if nxt.values is not None:
            return  # successor is already a keyframe
        vals = old.values
        for i, val in nxt.delta.items():
            vals[i] = val
        nxt.values = vals
        # nxt.wide is already a full copy — the keyframe's simply drops.
        if old.mem_copy is not None:
            mems = old.mem_copy
            for (mi, a), val in (nxt.delta_mem or {}).items():
                mems[mi][a] = val
            nxt.mem_copy = mems
        nxt.delta = None
        nxt.delta_mem = None

    # -- restoring ---------------------------------------------------------

    def restore(self, time: int) -> TimelineEntry:
        """Rewind the bound store (and memories) to ``time``, in place.

        Reconstruction replays deltas forward from the nearest keyframe
        at-or-before the target.  Retained entries are left untouched, so
        repeating ``restore`` or jumping forward to another retained time
        keeps working; stale entries are invalidated lazily by the next
        :meth:`record` once re-execution overwrites them.
        """
        entry = self.by_time.get(time)
        if entry is None:
            raise TimelineError(self._out_of_window(time))
        store = self.store
        # Walk back from the target to the nearest keyframe at-or-before
        # it: at most the window, so the limit bounds rewind latency.
        entries = self.entries
        segment = [entry]
        i = entry.seq - self._head_seq
        while segment[-1].values is None:
            i -= 1
            segment.append(entries[i])
        segment.reverse()
        vals = segment[0].values[:]
        mems_rec = (
            [mem[:] for mem in segment[0].mem_copy]
            if segment[0].mem_copy is not None
            else None
        )
        tail_base = None
        for e in segment[1:]:
            if e is entry:
                # The state at the target's *predecessor*: it becomes the
                # delta baseline for the entry re-taken at `time`.
                tail_base = [vals[i] for i in store.state_indices]
            for i, val in e.delta.items():
                vals[i] = val
            if mems_rec is not None and e.delta_mem:
                for (mi, a), val in e.delta_mem.items():
                    mems_rec[mi][a] = val
        # Restore buffers/mems/journal in place: generated code and the
        # engine's step loop hold direct references to these objects
        # (including the journal's bound ``add``) while callbacks — which
        # may call set_time for reverse debugging — are running.
        store.narrow[:] = vals
        store.restore_wide(entry.wide)
        if mems_rec is not None:
            for mem, saved in zip(self.mems, mems_rec, strict=False):
                mem[:] = saved
        self.mem_written.clear()
        if entry.values is None:
            # Baselines for the entry re-taken at `time`: the delta is
            # computed against the predecessor's state, and the memory
            # words the current delta covers changed since then — mark
            # them written so they are recaptured from the restored
            # arrays.
            self._base = tail_base
            self.mem_written.update(entry.delta_mem or ())
        else:
            # Rewound onto a keyframe: the predecessor baseline (if any)
            # is not cheaply available, so the next record() re-keyframes
            # — strictly correct for re-execution from here.
            self._base = None
        return entry

    def _out_of_window(self, time: int) -> str:
        w = self.window()
        if w is None:
            return (
                f"cannot rewind to cycle {time}: timeline is empty "
                f"(no cycles recorded yet)"
            )
        return (
            f"cannot rewind to cycle {time}: retained window is "
            f"{w[0]}..{w[1]} ({len(self)} cycles); raise snapshots= "
            f"to keep more history"
        )

    # -- byte accounting ---------------------------------------------------

    def compression_ratio(self) -> float:
        """Uncompressed-equivalent bytes / retained bytes.

        The head entry is always a keyframe, so its footprint is what
        every retained cycle would cost without delta compression; the
        ratio is that hypothetical all-keyframes size over the actual
        retained size.  1.0 when empty or when every entry is a keyframe.
        """
        entries = self.entries
        if not entries:
            return 1.0
        actual = self.nbytes
        if actual <= 0:
            return 1.0
        full = self._entry_nbytes(entries[0]) * len(entries)
        return full / actual

    def _entry_nbytes(self, entry: TimelineEntry) -> int:
        n = _ENTRY_OVERHEAD
        wide = self.store.wide
        if wide:
            n += sys.getsizeof(wide) + 88 * len(wide)
        if entry.values is not None:
            n += sys.getsizeof(entry.values)  # the array includes its buffer
            if entry.mem_copy is not None:
                n += sum(sys.getsizeof(m) for m in entry.mem_copy)
        else:
            # The dict table plus two boxed ints per changed signal.
            n += sys.getsizeof(entry.delta) + 56 * len(entry.delta)
            if entry.delta_mem:
                n += sys.getsizeof(entry.delta_mem) + 88 * len(entry.delta_mem)
        return n

    # -- wire serialization ------------------------------------------------

    def to_wire(self) -> dict:
        """A JSON-safe rendering of the retained window: plain ints only,
        deltas as ``[start, [values...]]`` runs.

        Shipped by shard workers so the aggregator can localize replica
        divergence (:func:`first_timeline_divergence`) without re-running
        anything.  Keyframes carry only the *state* signals (registers
        and inputs — what the deltas are defined over), so two shards'
        wires compare cycle-for-cycle.
        """
        state_idx = list(self.store.state_indices)
        entries_w = []
        for e in self.entries:
            rec: dict = {"t": e.time}
            if e.values is not None:
                vals = e.values
                rec["k"] = [vals[i] for i in state_idx]
                if e.mem_copy is not None:
                    rec["m"] = [list(m) for m in e.mem_copy]
            else:
                rec["d"] = _pairs_to_runs(sorted(e.delta.items()))
                if e.delta_mem:
                    rec["dm"] = sorted(
                        [mi, a, v] for (mi, a), v in e.delta_mem.items()
                    )
            if e.wide:
                rec["w"] = sorted([i, v] for i, v in e.wide.items())
            entries_w.append(rec)
        return {
            "v": 1,
            "state": state_idx,
            "entries": entries_w,
        }


def _pairs_to_runs(pairs) -> list:
    """Sorted ``(index, value)`` pairs -> ``[[start, [values...]], ...]``
    runs of consecutive indices (the wire's RLE)."""
    runs: list = []
    end = None
    for i, v in pairs:
        if end is not None and i == end:
            runs[-1][1].append(v)
        else:
            runs.append([i, [v]])
        end = i + 1
    return runs


def _runs_to_pairs(runs) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for start, values in runs:
        out.extend((start + o, v) for o, v in enumerate(values))
    return out


def iter_wire_states(wire: dict):
    """Yield ``(time, state, wide, mems)`` per retained cycle of a
    serialized timeline — ``state`` is a ``{signal index: value}`` dict
    over the design's state signals, ``wide`` the >64-bit overflow dict,
    ``mems`` the full memory contents (None when memory history was
    disabled or never shipped)."""
    state: dict[int, int] = {}
    mems: list[list[int]] | None = None
    for rec in wire.get("entries", ()):
        if "k" in rec:
            state = dict(zip(wire.get("state", ()), rec["k"], strict=False))
            if "m" in rec:
                mems = [list(m) for m in rec["m"]]
        else:
            state = dict(state)
            for i, v in _runs_to_pairs(rec.get("d", ())):
                state[i] = v
            if mems is not None and rec.get("dm"):
                mems = [list(m) for m in mems]
                for mi, a, v in rec["dm"]:
                    mems[mi][a] = v
        wide = {i: v for i, v in rec.get("w", ())}
        yield rec["t"], state, wide, mems


def decode_timeline_states(wire: dict) -> dict:
    """Serialized timeline -> ``{cycle: (state, wide, mems)}``.

    Decoding replays every delta once; callers comparing one timeline
    against several others (the shard aggregator) should decode each
    wire once and hand the results to :func:`first_state_divergence`.
    """
    return {t: (s, w, m) for t, s, w, m in iter_wire_states(wire)}


def first_timeline_divergence(wire_a: dict, wire_b: dict) -> dict | None:
    """Locate the first cycle and signal where two serialized timelines
    disagree.

    Compares the overlapping retained window cycle by cycle, ascending;
    within a cycle, state signals (by index), then wide signals, then
    memory words.  Returns None when the overlap is empty or identical,
    else a dict::

        {"time": cycle, "kind": "signal" | "mem",
         "index": signal_index | [mem_index, addr], "a": ..., "b": ...}
    """
    return first_state_divergence(
        decode_timeline_states(wire_a), decode_timeline_states(wire_b)
    )


def first_state_divergence(states_a: dict, states_b: dict) -> dict | None:
    """:func:`first_timeline_divergence` over pre-decoded state maps."""
    for t in sorted(set(states_a) & set(states_b)):
        sa, wa, ma = states_a[t]
        sb, wb, mb = states_b[t]
        for i in sorted(set(sa) | set(sb)):
            va, vb = sa.get(i), sb.get(i)
            if va != vb:
                return {"time": t, "kind": "signal", "index": i, "a": va, "b": vb}
        for i in sorted(set(wa) | set(wb)):
            va, vb = wa.get(i), wb.get(i)
            if va != vb:
                return {"time": t, "kind": "signal", "index": i, "a": va, "b": vb}
        if ma is not None and mb is not None:
            for mi, (mem_a, mem_b) in enumerate(zip(ma, mb, strict=False)):
                for a_, (va, vb) in enumerate(zip(mem_a, mem_b, strict=False)):
                    if va != vb:
                        return {
                            "time": t,
                            "kind": "mem",
                            "index": [mi, a_],
                            "a": va,
                            "b": vb,
                        }
    return None


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f} KiB"
    return f"{n} B"
