"""Many-worlds batch runs: N stimulus scenarios of one design.

``ManyWorldsSimulator`` runs N *worlds*, scenarios of one compiled design
that differ only in stimulus, as one batch of ordinary
:class:`~repro.sim.engine.Simulator` instances (:attr:`sims`).  Each world
runs its stimulus through its own ``Simulator.run_cycles`` (a
:func:`make_sweep_stimulus` tape runs on the native kernel), a ``Stop``
finishes only its own world, and ``state_digest(k)`` equals a sequential
run of world ``k``'s stimulus.

It is no debug backend: a ``repro.core.Runtime`` debugs one simulator,
and debugging across seeds is a ``repro.shard.ShardSession`` sweep.
"""

from __future__ import annotations

import dataclasses

from ..ir.stmt import Circuit
from ..obs import make_obs
from .compiler import CompiledDesign
from .engine import SessionOptions, Simulator, compile_gated
from .interface import SimulatorError
from .stimulus import Stimulus


class ManyWorldsSimulator:
    """N scalar simulators over one compiled design.

    Every world is built with ``options``, with ``obs`` off (in one
    registry each world's collector would overwrite the others');
    ``obs`` and ``strict`` configure the compile, when there is one.
    """

    def __init__(
        self,
        circuit: Circuit | None,
        worlds: int,
        top_path: str | None = None,
        compiled: CompiledDesign | None = None,
        options: SessionOptions | None = None,
    ):
        if worlds < 1:
            raise SimulatorError("worlds must be >= 1")
        opt = options if options is not None else SessionOptions()
        if compiled is None:
            obs = make_obs(opt.obs, proc="manyworlds")
            compiled = compile_gated(circuit, top_path, opt.strict, obs)
        self.design: CompiledDesign = compiled
        self.worlds = worlds
        world_opt = dataclasses.replace(opt, obs="off")
        self.sims = tuple(
            Simulator(None, compiled=compiled, options=world_opt)
            for _ in range(worlds)
        )

    @property
    def finished(self) -> bool:
        """True when every world has finished."""
        return all(sim.finished for sim in self.sims)

    @property
    def exit_codes(self) -> list[int | None]:
        """Per-world exit code (None while a world still runs)."""
        return [sim.exit_code for sim in self.sims]

    def reset(self, cycles: int = 1) -> None:
        """Reset every world; a finished world keeps its final state."""
        for sim in self.sims:
            sim.reset(cycles)

    def step(self, cycles: int = 1) -> None:
        for sim in self.sims:
            sim.step(cycles)

    def run(self, max_cycles: int = 1_000_000) -> list[int | None]:
        """Run each world until it stops or ``max_cycles`` elapse; the
        per-world exit codes."""
        for sim in self.sims:
            sim.run(max_cycles)
        return self.exit_codes

    def run_cycles(self, cycles: int, stimulus=None) -> int:
        """Run each world up to ``cycles`` cycles through its own
        ``Simulator.run_cycles``, with ``stimulus`` None or one per world.
        Returns the most cycles any world ran."""
        per_world = [None] * self.worlds if stimulus is None else list(stimulus)
        if len(per_world) != self.worlds:
            raise SimulatorError(
                f"need {self.worlds} stimuli, one per world, got {len(per_world)}"
            )
        return max(
            sim.run_cycles(cycles, stimulus=stim)
            for sim, stim in zip(self.sims, per_world, strict=True)
        )

    def state_digest(self, world: int) -> str:
        if not 0 <= world < self.worlds:
            raise SimulatorError(f"world {world} out of range ({self.worlds})")
        return self.sims[world].state_digest()

    def stats(self) -> dict:
        """Statement counts: each world runs every statement as scalar
        code."""
        d = self.design
        scalar = sum(map(len, (d.order_targets, d.registers, d.mem_writes, d.effects)))
        return {"vector_statements": 0, "scalar_statements": scalar}


def make_sweep_stimulus(
    sim: ManyWorldsSimulator, seeds, overrides=None
) -> list[Stimulus]:
    """Per-world random stimulus honoring the shard farm's seed contract,
    for :meth:`ManyWorldsSimulator.run_cycles`.

    World ``k`` gets the :class:`~repro.sim.stimulus.Stimulus` tape of
    ``seeds[k]`` — the sequence ``repro.shard.make_stimulus`` feeds a shard
    with ``seed=seeds[k]`` — so per-world digests match the corresponding
    shard runs bit for bit.  ``overrides`` names inputs held constant (poke
    them yourself, as shard specs do).
    """
    seeds = list(seeds)
    if len(seeds) != sim.worlds:
        raise SimulatorError(f"need {sim.worlds} seeds, got {len(seeds)}")
    return [Stimulus(sim.design, seed, overrides or ()) for seed in seeds]
