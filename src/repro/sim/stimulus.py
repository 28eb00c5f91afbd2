"""Seeded random stimulus, and the tape format the native kernel pokes.

The determinism contract the shard farm and many-worlds sweeps share:
every cycle, each top-level input except the clock, the reset and the
held overrides gets ``Random(seed).getrandbits(width)``, inputs visited
in sorted-name order.  A :class:`Stimulus` is that sequence for one seed.
Called as ``(sim, cycle)`` it pokes one cycle into any backend; as a
*tape* it hands :meth:`Simulator.run_cycles
<repro.sim.engine.Simulator.run_cycles>` whole rows for the native kernel
to poke (``docs/performance.md`` §8).
"""

from __future__ import annotations

import random
from array import array

#: Most rows a stimulus tape draws at once, so a long run holds at most
#: this many cycles of values.
TAPE_ROWS = 4096


def stimulus_inputs(design, overrides=()) -> list[tuple[str, int]]:
    """The ``(name, width)`` pairs randomized each cycle: every top-level
    input of the compiled ``design`` except the clock, the reset, and the
    names in ``overrides``, in sorted-name order (the determinism
    contract)."""
    skip = {
        design.signals[design.clock_index].name,
        design.signals[design.reset_index].name,
    }
    skip.update(overrides)
    return [
        (name, design.signals[idx].width)
        for name, idx in sorted(design.top_inputs.items())
        if name not in skip
    ]


class Stimulus:
    """One seed's stimulus, for ``run_cycles``: called as ``(sim, cycle)``
    it pokes one cycle's values into any backend, and as a *tape* it hands
    :class:`~repro.sim.Simulator` rows for the native kernel to poke.

    A row is one cycle's values, one word per input of
    :func:`stimulus_inputs`, drawn in that order from ``Random(seed)``.
    Rows are drawn at most :data:`TAPE_ROWS` at a time; those drawn but not
    yet run stay queued, and a call takes the queue's head before drawing,
    so every run sees one sequence whichever way it took its rows.
    """

    __slots__ = ("_rng", "_inputs", "columns", "_rows", "_head")

    def __init__(self, design, seed: int, overrides=()):
        self._rng = random.Random(seed)
        self._inputs = stimulus_inputs(design, overrides)
        index = [design.top_inputs[name] for name, _width in self._inputs]
        #: the inputs' signal indices; None when one is wider than the
        #: kernel's 64-bit lanes, so the tape cannot run.
        self.columns = (
            None if any(i in design.wide_indices for i in index) else index
        )
        self._rows = array("Q")
        self._head = 0  # the first queued row

    def __call__(self, sim, _cycle: int) -> None:
        n = len(self._inputs)
        at = self._head * n
        if at < len(self._rows):
            self._head += 1
            for (name, _width), value in zip(
                self._inputs, self._rows[at : at + n], strict=True
            ):
                sim.poke(name, value)
            return
        bits = self._rng.getrandbits
        for name, width in self._inputs:
            sim.poke(name, bits(width))

    def rows(self, n: int) -> tuple[array, int, int]:
        """``(buffer, first, count)``: ``count`` queued rows from row
        ``first`` of ``buffer``, at least one and, when the queue is
        empty, at most ``min(n, TAPE_ROWS)`` newly drawn.  Mark the rows
        applied with :meth:`consume`."""
        widths = [width for _name, width in self._inputs]
        if not widths:
            return self._rows, 0, n  # nothing to draw or poke
        queued = len(self._rows) // len(widths) - self._head
        if queued <= 0:
            bits = self._rng.getrandbits
            queued = min(n, TAPE_ROWS)
            self._rows = array(
                "Q", [bits(w) for _ in range(queued) for w in widths]
            )
            self._head = 0
        return self._rows, self._head, queued

    def consume(self, rows: int) -> None:
        """``rows`` queued rows were applied: drop them from the queue."""
        if self._inputs:
            self._head += rows
