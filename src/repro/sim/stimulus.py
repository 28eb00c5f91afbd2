"""Seeded random stimulus, and the tape the native kernel draws it from.

The determinism contract the shard farm and many-worlds sweeps share:
every cycle, each top-level input except the clock, the reset and the
held overrides gets ``Random(seed).getrandbits(width)``, inputs visited
in sorted-name order.  A :class:`Stimulus` is that sequence for one seed.
Called as ``(sim, cycle)`` it pokes one cycle into any backend; as a
*tape* it hands :meth:`Simulator.run_cycles
<repro.sim.engine.Simulator.run_cycles>` the generator's state, and the
native kernel draws the same numbers itself (``docs/performance.md`` §8).
"""

from __future__ import annotations

import random
from array import array


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
    :class:`~repro.sim.Simulator` the MT19937 state the native kernel draws
    the rows from (:class:`repro.sim.native.Tape`).

    A row is one cycle's values, one word per input of
    :func:`stimulus_inputs`, drawn in that order from ``Random(seed)``.
    The stimulus owns the generator's state, so every run continues one
    sequence whichever side drew last: a call after a kernel run first
    sets the kernel's state into the ``Random``, and :meth:`state` takes
    the ``Random``'s state back.
    """

    __slots__ = ("_rng", "_inputs", "columns", "widths", "_state")

    def __init__(self, design, seed: int, overrides=()):
        self._rng = random.Random(seed)
        self._inputs = stimulus_inputs(design, overrides)
        index = [design.top_inputs[name] for name, _width in self._inputs]
        #: the inputs' signal indices; None when one is wider than the
        #: kernel's 64-bit lanes, so the tape cannot run.
        self.columns = (
            None if any(i in design.wide_indices for i in index) else index
        )
        #: the inputs' widths, in the order of ``columns``.
        self.widths = [width for _name, width in self._inputs]
        self._state: array | None = None  # set while the kernel's is current

    def __call__(self, sim, _cycle: int) -> None:
        if self._state is not None:
            self._rng.setstate((self._rng.VERSION, tuple(self._state), None))
            self._state = None
        bits = self._rng.getrandbits
        for name, width in self._inputs:
            sim.poke(name, bits(width))

    def state(self) -> array:
        """The generator's state for the kernel to draw the next rows from
        and advance in place: ``Random.getstate()``'s 624 words, then the
        index, as an ``array('I')``."""
        if self._state is None:
            self._state = array("I", self._rng.getstate()[1])
        return self._state
