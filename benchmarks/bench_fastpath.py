"""Fast-path speedups: dirty-set incremental comb + compiled conditions.

The per-cycle hot paths this repository compiles away (see
``docs/performance.md``):

* ``poke``/``set_value`` re-evaluated the *entire* combinational schedule;
  the fast path re-evaluates only the poked signal's fanout cone.  The
  acceptance bar: >= 2x on a poke-heavy workload driving a single input of
  the CPU case-study design.
* eager per-poke cone settling paid one cone pass per driven input; the
  lazy dirty set batches N pokes between settles into one merged cone
  evaluation (``sim.batch()`` / implicit at the next step).  The
  acceptance bar: >= 2x driving several inputs per cycle, batched vs.
  flushing after every poke (PR 1's eager behavior).
* breakpoint enable/user conditions were tree-walked with per-evaluation
  name resolution; compiled conditions evaluate a whole scheduling group
  as one exec-compiled closure over pre-resolved value-table indices.  The
  acceptance bar: >= 1.5x on per-cycle condition evaluation.

All comparisons run the exact same workload through the reference
implementation (``fast=False`` / ``compile_conditions=False``), and all
cross-check that the paths computed identical results before asserting
on timing.
"""

from __future__ import annotations

import os
import time

import repro
import repro.hgf as hgf
from repro.core import CONTINUE, Runtime
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table

from conftest import TIMING_REPS, best_of as _best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_POKE_CYCLES = 20 if _SMOKE else 300
_POKES_PER_CYCLE = 4
_COND_ITERS = 100 if _SMOKE else 3000


# -- poke-heavy workload on the CPU case study -----------------------------


def _poke_workload(sim, cycles: int) -> None:
    """A testbench-style loop: re-drive an input several times per cycle,
    then clock.  ``reset`` is the CPU's only data-free input, and its comb
    fanout cone is tiny — exactly the case the dirty-set path targets."""
    for c in range(cycles):
        for i in range(_POKES_PER_CYCLE):
            sim.poke("reset", (c + i) & 1)
        sim.step(1)


def test_fastpath_poke_speedup(compiled_suite, capsys):
    _bench, design, _st = compiled_suite[("vvadd", False)]
    sims = {}
    for fast in (True, False):
        sim = Simulator(design.low, options=SessionOptions(fast=fast))
        sim.reset()
        _poke_workload(sim, 2)  # warm cone caches / interpreter equally
        sims[fast] = sim

    t_fast = _best_of(_poke_workload, sims[True], _POKE_CYCLES)
    t_ref = _best_of(_poke_workload, sims[False], _POKE_CYCLES)

    # Identical stimulus must leave both paths in identical state.
    assert sims[True].values == sims[False].values
    assert sims[True].mems == sims[False].mems

    speedup = t_ref / t_fast
    with capsys.disabled():
        print(
            f"\n=== fastpath: poke-heavy workload (RV32 core, "
            f"{_POKES_PER_CYCLE} pokes/cycle x {_POKE_CYCLES} cycles) ===\n"
            f"reference (full comb per poke): {t_ref * 1e3:8.2f} ms\n"
            f"fast (fanout-cone per poke):    {t_fast * 1e3:8.2f} ms\n"
            f"speedup: {speedup:.2f}x (bar: >= 2x)"
        )
    if not _SMOKE:
        assert speedup >= 2.0, f"poke fast path only {speedup:.2f}x"


# -- batched multi-poke: lazy dirty-set union vs eager per-poke settling ----


class _ManyInputMix(hgf.Module):
    """N inputs feeding one deep shared arithmetic chain: every input's
    fanout cone is nearly the whole chain, so eager per-poke settling pays
    ~N chain evaluations per cycle where the batched dirty set pays one."""

    def __init__(self, n: int = 6, depth: int = 24):
        super().__init__()
        ins = [self.input(f"i{k}", 16) for k in range(n)]
        self.o = self.output("o", 16)
        acc = self.lit(0x1234, 16)
        # Materialize every stage as a wire: one assignment per stage keeps
        # the expression tree linear (no duplicated subtrees) and gives the
        # schedule a deep chain for the cones to subset.
        for k, p in enumerate(ins):
            stage = self.wire(f"s{k}", 16)
            stage <<= ((acc ^ p) + self.lit(2 * k + 1, 16))[15:0]
            acc = stage
        for d in range(depth):
            stage = self.wire(f"t{d}", 16)
            stage <<= ((acc * self.lit(3, 16)) ^ (acc >> 1) ^ self.lit(d, 16))[15:0]
            acc = stage
        self.o <<= acc


_BATCH_INPUTS = 6
_BATCH_CYCLES = 20 if _SMOKE else 400


def _batched_workload(sim, cycles: int) -> None:
    names = [f"i{k}" for k in range(_BATCH_INPUTS)]
    for c in range(cycles):
        with sim.batch():
            for k, name in enumerate(names):
                sim.poke(name, (c * 31 + k * 7) & 0xFFFF)
        sim.step(1)


def _eager_workload(sim, cycles: int) -> None:
    """PR 1 semantics: every poke settles its own fanout cone."""
    names = [f"i{k}" for k in range(_BATCH_INPUTS)]
    for c in range(cycles):
        for k, name in enumerate(names):
            sim.poke(name, (c * 31 + k * 7) & 0xFFFF)
            sim.flush()
        sim.step(1)


def test_fastpath_batched_multi_poke_speedup(capsys):
    design = repro.compile(_ManyInputMix(_BATCH_INPUTS))
    sims = {}
    for label, fn in (("batched", _batched_workload), ("eager", _eager_workload)):
        sim = Simulator(design.low, options=SessionOptions(fast=True))
        sim.reset()
        fn(sim, 2)  # warm the cone caches equally
        sims[label] = (sim, fn)

    t_batched = _best_of(_batched_workload, sims["batched"][0], _BATCH_CYCLES)
    t_eager = _best_of(_eager_workload, sims["eager"][0], _BATCH_CYCLES)

    # Identical stimulus must leave both schedules in identical state, and
    # both must match the full-comb reference over the same run count.
    ref = Simulator(design.low, options=SessionOptions(fast=False))
    ref.reset()
    _batched_workload(ref, 2)
    for _ in range(TIMING_REPS):
        _batched_workload(ref, _BATCH_CYCLES)
    for sim, _fn in sims.values():
        sim.flush()
    assert sims["batched"][0].values == sims["eager"][0].values == ref.values

    speedup = t_eager / t_batched
    with capsys.disabled():
        print(
            f"\n=== fastpath: batched multi-poke ({_BATCH_INPUTS} inputs/cycle "
            f"x {_BATCH_CYCLES} cycles) ===\n"
            f"eager (cone settle per poke):   {t_eager * 1e3:8.2f} ms\n"
            f"batched (one merged cone):      {t_batched * 1e3:8.2f} ms\n"
            f"speedup: {speedup:.2f}x (bar: >= 2x)"
        )
    if not _SMOKE:
        assert speedup >= 2.0, f"batched multi-poke only {speedup:.2f}x"


# -- per-cycle breakpoint-condition evaluation -----------------------------


class _CondLane(hgf.Module):
    def __init__(self):
        super().__init__()
        self.x = self.input("x", 8)
        self.y = self.output("y", 8)
        acc = self.reg("acc", 8, init=0)
        with self.when(self.x > 0):
            acc <<= (acc + self.x)[7:0]
        self.y <<= acc


class _CondLanes(hgf.Module):
    """N concurrent instances sharing one source line: one scheduling
    group with N breakpoints, evaluated every armed cycle."""

    def __init__(self, n: int = 16):
        super().__init__()
        self.x = self.input("x", 8)
        self.y = self.output("y", 8)
        out = self.lit(0, 8)
        for i in range(n):
            lane = self.instance(f"lane{i}", _CondLane())
            lane.x <<= self.x
            out = out ^ lane.y
        self.y <<= out


def test_fastpath_condition_eval_speedup(capsys):
    design = repro.compile(_CondLanes(16))
    st = SQLiteSymbolTable(write_symbol_table(design))
    entry = next(e for e in design.debug_info.all_entries() if e.sink == "acc")

    timings = {}
    hits_by_mode = {}
    for compiled in (True, False):
        sim = Simulator(design.low)
        rt = Runtime(sim, st, lambda h: CONTINUE, compile_conditions=compiled)
        rt.attach()
        sim.reset()
        # `acc` is 8 bits: the user condition evaluates fully every cycle
        # and never stops the simulation — pure evaluation cost.
        rt.add_breakpoint(
            entry.info.filename, entry.info.line, condition="acc > 300"
        )
        sim.poke("x", 1)
        sim.step(1)
        groups = rt.scheduler.groups()
        rt._find_hit(groups, 0, 1)  # warm: compiles the group closure once
        evals0 = rt.stats_bp_evals

        def eval_loop(rt=rt, groups=groups):
            for _ in range(_COND_ITERS):
                rt._find_hit(groups, 0, 1)

        timings[compiled] = _best_of(eval_loop)
        hits_by_mode[compiled] = rt.stats_bp_evals - evals0

    # Both modes evaluated the same number of breakpoint conditions
    # (every best-of repeat runs the full loop).
    assert (
        hits_by_mode[True]
        == hits_by_mode[False]
        == _COND_ITERS * 16 * TIMING_REPS
    )

    speedup = timings[False] / timings[True]
    per_eval_ns = timings[True] / (_COND_ITERS * 16) * 1e9
    with capsys.disabled():
        print(
            f"\n=== fastpath: breakpoint-condition evaluation "
            f"(16-thread group x {_COND_ITERS} cycles) ===\n"
            f"interpreted (tree-walk + name resolution): "
            f"{timings[False] * 1e3:8.2f} ms\n"
            f"compiled (batched group closure):          "
            f"{timings[True] * 1e3:8.2f} ms   ({per_eval_ns:.0f} ns/eval)\n"
            f"speedup: {speedup:.2f}x (bar: >= 1.5x)"
        )
    if not _SMOKE:
        assert speedup >= 1.5, f"condition fast path only {speedup:.2f}x"


# -- observability off-mode overhead ----------------------------------------


def test_fastpath_obs_disabled_overhead(compiled_suite, capsys):
    """Observability must be free when off (and nearly free in metrics
    mode): hot objects bump always-on plain ints either way, and the
    registry is only touched at snapshot time.  Runs the poke-heavy
    workload with ``obs="off"`` vs ``obs="metrics"`` and pins the ratio.
    The two paths must also stay bit-identical."""
    _bench, design, _st = compiled_suite[("vvadd", False)]
    sims = {}
    for mode in ("off", "metrics"):
        sim = Simulator(design.low, options=SessionOptions(fast=True, obs=mode))
        sim.reset()
        _poke_workload(sim, 2)  # warm cone caches equally
        sims[mode] = sim

    t_off = _best_of(_poke_workload, sims["off"], _POKE_CYCLES)
    t_metrics = _best_of(_poke_workload, sims["metrics"], _POKE_CYCLES)

    assert sims["off"].state_digest() == sims["metrics"].state_digest()
    assert sims["off"].values == sims["metrics"].values
    # The enabled side actually collected: the snapshot carries the ticks.
    snap = sims["metrics"].obs.metrics.snapshot()
    ticks = next(
        m for m in snap["metrics"] if m["name"] == "sim_ticks_total"
    )
    assert ticks["value"] == sims["metrics"].stats()["ticks"]

    overhead = t_metrics / t_off
    with capsys.disabled():
        print(
            f"\n=== fastpath: observability overhead (poke-heavy workload, "
            f"{_POKE_CYCLES} cycles) ===\n"
            f"obs=off:     {t_off * 1e3:8.2f} ms\n"
            f"obs=metrics: {t_metrics * 1e3:8.2f} ms\n"
            f"ratio: {overhead:.3f}x (bar: <= 1.05x)"
        )
    if not _SMOKE:
        assert overhead <= 1.05, f"metrics-mode overhead {overhead:.3f}x"


def test_fastpath_armed_stepping_report(capsys):
    """End-to-end: armed stepping (simulation + scheduling + conditions)
    with both paths enabled vs. both references.  Reported for context; the
    focused speedup bars live in the two tests above."""
    design = repro.compile(_CondLanes(8))
    st = SQLiteSymbolTable(write_symbol_table(design))
    entry = next(e for e in design.debug_info.all_entries() if e.sink == "acc")
    cycles = 50 if _SMOKE else 500

    timings = {}
    for label, fast, compiled in (
        ("fast", True, True),
        ("reference", False, False),
    ):
        sim = Simulator(design.low, options=SessionOptions(fast=fast))
        rt = Runtime(sim, st, lambda h: CONTINUE, compile_conditions=compiled)
        rt.attach()
        sim.reset()
        rt.add_breakpoint(
            entry.info.filename, entry.info.line, condition="acc > 300"
        )
        sim.poke("x", 1)
        sim.step(5)  # warm
        t0 = time.perf_counter()
        sim.step(cycles)
        timings[label] = time.perf_counter() - t0

    with capsys.disabled():
        print(
            f"\n=== fastpath: armed stepping, {cycles} cycles, 8-thread "
            f"group ===\n"
            f"reference: {timings['reference'] * 1e3:8.2f} ms\n"
            f"fast:      {timings['fast'] * 1e3:8.2f} ms  "
            f"({timings['reference'] / timings['fast']:.2f}x)"
        )
