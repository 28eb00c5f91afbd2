"""Trace-based replay: the paper Fig. 1 "Replay tool".

``ReplayEngine`` implements the unified simulator interface over a parsed
VCD, so the hgdb runtime debugs a finished simulation exactly like a live
one — except ``set_value`` is unavailable ("not possible when interfacing
with a trace file", Sec. 3.3) and ``set_time`` is cheap in both directions,
unlocking full reverse debugging (Sec. 3.2).
"""

from __future__ import annotations

import itertools

from ..sim.interface import (
    HierNode,
    SignalInfo,
    SimulatorError,
    SimulatorInterface,
)
from ..sim.timeline import FullTraceTimeline, TimelineError
from .parser import VcdFile, VcdScope, parse_vcd_file


class ReplayEngine(SimulatorInterface):
    """Replay a VCD trace through the unified simulator interface.

    Cycles are derived from the clock's rising edges.  ``get_time`` /
    ``set_time`` are in cycles, matching the live simulator's convention.

    Time travel rides the same :mod:`repro.sim.timeline` API as the live
    simulator: ``timeline`` is a :class:`FullTraceTimeline` (a trace
    retains every cycle at zero extra cost), ``set_time`` goes through
    the shared interface template (so set-time callbacks — watchpoint
    re-priming — fire identically), and out-of-window jumps raise the
    same :class:`TimelineError` naming the retained window.
    """

    def __init__(self, vcd: VcdFile, clock_path: str | None = None):
        self.vcd = vcd
        if clock_path is not None:
            clock = vcd.by_path.get(clock_path)
            if clock is None:
                raise SimulatorError(f"no clock signal {clock_path!r} in trace")
        else:
            clock = vcd.find_clock()
            if clock is None:
                raise SimulatorError("could not locate a clock in the trace")
        self._clock = clock
        self._posedges = [
            t for t, v in zip(clock.times, clock.values, strict=False) if v == 1
        ]
        if not self._posedges:
            raise SimulatorError("trace contains no clock rising edges")
        self._cycle = 0
        self._callbacks: dict[int, object] = {}
        self._cb_ids = itertools.count(1)
        self._hierarchy = _scopes_to_hierarchy(vcd)
        self.timeline = FullTraceTimeline(len(self._posedges), label="VCD replay")

    @classmethod
    def from_file(cls, path: str, clock_path: str | None = None) -> ReplayEngine:
        return cls(parse_vcd_file(path), clock_path)

    # -- replay control ----------------------------------------------------

    @property
    def n_cycles(self) -> int:
        return len(self._posedges)

    def step(self, cycles: int = 1) -> None:
        """Advance the replay cursor, firing clock callbacks per cycle."""
        for _ in range(cycles):
            if self._cycle + 1 >= len(self._posedges):
                return
            self._cycle += 1
            for fn in list(self._callbacks.values()):
                fn(self)

    def run(self, max_cycles: int | None = None) -> None:
        """Replay to the end of the trace (or ``max_cycles``)."""
        budget = max_cycles if max_cycles is not None else len(self._posedges)
        while budget > 0 and self._cycle + 1 < len(self._posedges):
            self.step()
            budget -= 1

    @property
    def at_end(self) -> bool:
        return self._cycle + 1 >= len(self._posedges)

    # -- SimulatorInterface ---------------------------------------------------

    def get_value(self, path: str) -> int:
        sig = self.vcd.by_path.get(path)
        if sig is None:
            raise SimulatorError(f"no such signal {path!r} in trace")
        return sig.value_at(self._posedges[self._cycle])

    def hierarchy(self) -> HierNode:
        return self._hierarchy

    def clock_name(self) -> str:
        return self._clock.path

    def add_clock_callback(self, fn, wake=None) -> int:
        # Replay steps every cycle in Python, so ``wake`` is unused.
        cb_id = next(self._cb_ids)
        self._callbacks[cb_id] = fn
        return cb_id

    def remove_clock_callback(self, cb_id: int) -> None:
        self._callbacks.pop(cb_id, None)

    def get_time(self) -> int:
        return self._cycle

    def _apply_set_time(self, time: int) -> None:
        if time not in self.timeline:
            raise TimelineError(
                f"cannot rewind to cycle {time}: trace retains cycles "
                f"0..{len(self._posedges) - 1}"
            )
        self._cycle = time

    @property
    def can_set_time(self) -> bool:
        return True

    @property
    def is_replay(self) -> bool:
        return True


def _scopes_to_hierarchy(vcd: VcdFile) -> HierNode:
    """Convert VCD scopes into the interface's HierNode tree."""

    def convert(scope: VcdScope) -> HierNode:
        node = HierNode(scope.name, scope.path, scope.name)
        for sig in scope.signals:
            node.signals.append(
                SignalInfo(sig.name, sig.path, sig.width, sig.kind)
            )
        for child in scope.children:
            node.children.append(convert(child))
        return node

    if len(vcd.root_scopes) == 1:
        return convert(vcd.root_scopes[0])
    root = HierNode("", "", "")
    for scope in vcd.root_scopes:
        root.children.append(convert(scope))
    return root
