"""Property tests pinning the fast paths to the reference semantics.

Three independently-optimized layers must stay bit-identical to their
reference counterparts:

* dirty-set incremental ``comb`` (``Simulator(fast=True)``) vs. the full
  monolithic ``comb`` (``fast=False``) under random pokes/steps/rewinds;
* exec-compiled breakpoint conditions vs. the tree-walking interpreter,
  both as raw expressions and through the runtime's hit sequences;
* delta snapshots: ``set_time`` must reproduce exactly the state that was
  live when the target cycle executed, including after rewind + re-poke.
"""

from __future__ import annotations

import random

import pytest

import repro
import repro.hgf as hgf
from repro.core import CONTINUE, Runtime, expr_eval
from repro.sim import SessionOptions, Simulator
from tests.helpers import Accumulator, AluLike, Counter, SumLoop, TwoLeaves, line_of, make_runtime


class MemMixer(hgf.Module):
    """Small memory-backed design so the property run covers mem deltas."""

    def __init__(self):
        super().__init__()
        self.wen = self.input("wen", 1)
        self.waddr = self.input("waddr", 3)
        self.wdata = self.input("wdata", 8)
        self.raddr = self.input("raddr", 3)
        self.o = self.output("o", 8)
        mem = self.mem("m", 8, 8)
        cnt = self.reg("cnt", 8, init=0)
        cnt <<= (cnt + 1)[7:0]
        with self.when(self.wen == 1):
            mem.write(self.waddr, (self.wdata ^ cnt)[7:0], self.lit(1, 1))
        self.o <<= (mem[self.raddr] + cnt)[7:0]


MODULES = [Counter, Accumulator, AluLike, SumLoop, TwoLeaves, MemMixer]


def _state(sim):
    sim.flush()  # pokes settle lazily; reading `values` raw needs a flush
    return (list(sim.values), [list(m) for m in sim.mems], sim.get_time())


def _poke_targets(sim):
    return sorted(n for n in sim.design.top_inputs if n != "clock")


@pytest.mark.parametrize("mod_cls", MODULES)
@pytest.mark.parametrize("seed", [0, 1])
def test_fast_path_matches_reference(mod_cls, seed):
    """Random pokes/steps/rewinds: fast and reference sims stay in
    lockstep, signal-for-signal and memory-word-for-memory-word."""
    d = repro.compile(mod_cls())
    fast = Simulator(d.low, options=SessionOptions(snapshots=16, fast=True))
    ref = Simulator(d.low, options=SessionOptions(snapshots=16, fast=False))
    rng = random.Random(seed)
    inputs = _poke_targets(fast)

    for sim in (fast, ref):
        sim.reset()
    assert _state(fast) == _state(ref)

    for _ in range(120):
        r = rng.random()
        if r < 0.55 and inputs:
            name = rng.choice(inputs)
            width = fast.design.signals[fast.design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            fast.poke(name, value)
            ref.poke(name, value)
        elif r < 0.85:
            cycles = rng.randint(1, 3)
            fast.step(cycles)
            ref.step(cycles)
        else:
            times = fast.timeline.times()
            if times:
                t = rng.choice(times)
                fast.set_time(t)
                ref.set_time(t)
        assert _state(fast) == _state(ref)


@pytest.mark.parametrize("mod_cls", [Counter, MemMixer])
def test_delta_snapshots_restore_recorded_state(mod_cls):
    """set_time reproduces the exact live state each snapshot cycle saw,
    including after a rewind followed by divergent re-execution."""
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    rng = random.Random(7)
    inputs = _poke_targets(sim)
    sim.reset()

    gold: dict[int, tuple] = {}
    for _ in range(40):
        for name in inputs:
            width = sim.design.signals[sim.design.top_inputs[name]].width
            sim.poke(name, rng.randrange(1 << width))
        # State right before step() is what the snapshot at the current
        # time must capture.
        sim.flush()
        gold[sim.get_time()] = (list(sim.values), [list(m) for m in sim.mems])
        sim.step(1)

    for t in reversed(sim.timeline.times()):
        sim.set_time(t)
        vals, mems = gold[t]
        assert sim.get_time() == t
        assert list(sim.values) == vals
        assert [list(m) for m in sim.mems] == mems

    # Rewind, poke differently, re-execute: re-taken snapshots must
    # reflect the new run (the full-copy reference overwrote per-time
    # entries; the delta ring must behave identically).
    sim2 = Simulator(d.low, options=SessionOptions(snapshots=32))
    sim2.reset()
    for name in inputs:
        sim2.poke(name, 1)
    sim2.step(10)
    sim2.set_time(5)
    if inputs:
        sim2.poke(inputs[0], 0)
    sim2.flush()
    expected = (list(sim2.values), [list(m) for m in sim2.mems])
    sim2.step(3)
    sim2.set_time(5)
    assert (list(sim2.values), [list(m) for m in sim2.mems]) == expected


def test_set_time_repeat_and_forward_jump():
    """Retained snapshots survive a rewind: repeating set_time and jumping
    forward to a later retained time both work (the full-copy reference
    kept entries until re-execution overwrote them)."""
    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    sim.reset()
    sim.poke("en", 1)
    sim.step(10)
    sim.set_time(5)
    out_at_5 = sim.peek("out")
    sim.set_time(5)  # repeat: entry must still be retained
    assert sim.peek("out") == out_at_5
    sim.set_time(8)  # forward jump into still-valid history
    assert sim.peek("out") == out_at_5 + 3
    sim.set_time(5)
    sim.step(2)  # re-execution drops the stale suffix lazily
    assert sim.peek("out") == out_at_5 + 2
    assert sim.get_time() == 7


def test_callback_rewind_keeps_mem_journal_live():
    """A clock callback calling set_time mid-step() must not orphan the
    memory-write journal: writes after the rewind still reach later
    delta snapshots."""
    d = repro.compile(MemMixer())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    sim.reset()
    sim.poke("wen", 1)
    sim.poke("waddr", 0)
    sim.poke("wdata", 7)

    fired = []

    def rewind_once(s):
        if s.get_time() == 6 and not fired:
            fired.append(True)
            s.set_time(4)

    sim.add_clock_callback(rewind_once)
    sim.step(8)  # runs 1..6, rewinds to 4, continues to completion
    assert fired
    gold = (list(sim.values), [list(m) for m in sim.mems])
    t = sim.get_time()
    sim.step(3)
    sim.set_time(t)  # restores across the rewound region's mem writes
    assert (list(sim.values), [list(m) for m in sim.mems]) == gold


@pytest.mark.parametrize("mod_cls", MODULES)
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_multi_poke_matches_sequential_and_reference(mod_cls, seed):
    """Driving N inputs per round — batched (one merged cone settle),
    sequential (flush after every poke), and reference (full comb) — must
    be indistinguishable at every observation point."""
    d = repro.compile(mod_cls())
    batched = Simulator(d.low, options=SessionOptions(fast=True))
    sequential = Simulator(d.low, options=SessionOptions(fast=True))
    ref = Simulator(d.low, options=SessionOptions(fast=False))
    sims = (batched, sequential, ref)
    rng = random.Random(seed)
    inputs = _poke_targets(batched)
    for sim in sims:
        sim.reset()

    for _ in range(60):
        k = rng.randint(0, max(1, len(inputs)))
        pokes = [
            (name, rng.randrange(1 << batched.design.signals[
                batched.design.top_inputs[name]].width))
            for name in rng.sample(inputs, min(k, len(inputs)))
        ]
        with batched.batch():
            for name, value in pokes:
                batched.poke(name, value)
        for name, value in pokes:
            sequential.poke(name, value)
            sequential.flush()
        for name, value in pokes:
            ref.poke(name, value)
        assert _state(batched) == _state(sequential) == _state(ref)
        if rng.random() < 0.5:
            cycles = rng.randint(1, 2)
            for sim in sims:
                sim.step(cycles)
            assert _state(batched) == _state(sequential) == _state(ref)


class QuietLanes(hgf.Module):
    """Several enable-gated lanes: with enables low, most cycles change no
    register at all — the fast path's clock edge (the reference tick, then
    the precomputed tick cone) must stay bit-identical to the full
    reference through those quiet cycles."""

    def __init__(self, n: int = 4):
        super().__init__()
        self.en = self.input("en", n)
        self.d = self.input("d", 8)
        self.o = self.output("o", 8)
        out = self.lit(0, 8)
        for i in range(n):
            r = self.reg(f"r{i}", 8, init=0)
            with self.when(self.en[i:i] == 1):
                r <<= (r + self.d + self.lit(i, 8))[7:0]
            out = (out ^ r)[7:0]
        self.o <<= out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_activity_tracked_tick_matches_full_tick(seed):
    """Quiet-cycle-dominated runs: sparse register activity (including
    cycles where nothing changes) stays lockstep with the reference."""
    d = repro.compile(QuietLanes())
    fast = Simulator(d.low, options=SessionOptions(snapshots=8, fast=True))
    ref = Simulator(d.low, options=SessionOptions(snapshots=8, fast=False))
    rng = random.Random(seed)
    for sim in (fast, ref):
        sim.reset()

    for _ in range(80):
        r = rng.random()
        if r < 0.3:
            # mostly-quiet enables: 0 (fully quiet) or a single lane
            en = 0 if rng.random() < 0.6 else 1 << rng.randrange(4)
            for sim in (fast, ref):
                sim.poke("en", en)
        elif r < 0.4:
            value = rng.randrange(256)
            for sim in (fast, ref):
                sim.poke("d", value)
        else:
            cycles = rng.randint(1, 5)
            for sim in (fast, ref):
                sim.step(cycles)
        assert _state(fast) == _state(ref)


@pytest.mark.parametrize("mod_cls", [Counter, MemMixer, AluLike])
def test_mask_cone_cache_saturation_fallback(monkeypatch, mod_cls):
    """With the merged-cone cache disabled, every settle falls back to the
    full comb — still bit-identical to the reference."""
    from repro.sim.compiler import CompiledDesign

    monkeypatch.setattr(CompiledDesign, "MASK_CONE_CAP", 0)
    d = repro.compile(mod_cls())
    fast = Simulator(d.low, options=SessionOptions(snapshots=8, fast=True))
    ref = Simulator(d.low, options=SessionOptions(snapshots=8, fast=False))
    assert fast.design.MASK_CONE_CAP == 0
    rng = random.Random(11)
    inputs = _poke_targets(fast)
    for sim in (fast, ref):
        sim.reset()
    for _ in range(60):
        if rng.random() < 0.5 and inputs:
            name = rng.choice(inputs)
            width = fast.design.signals[fast.design.top_inputs[name]].width
            value = rng.randrange(1 << width)
            fast.poke(name, value)
            ref.poke(name, value)
        else:
            cycles = rng.randint(1, 3)
            fast.step(cycles)
            ref.step(cycles)
        assert _state(fast) == _state(ref)
    assert not fast.design._mask_cones  # nothing was cached


def test_watchpoints_across_set_time_rewind():
    """Watchpoint hits across a rewind are exactly the changes implied by
    re-execution: no phantom change at the restored cycle, no missed
    change afterwards."""
    from tests.helpers import make_runtime

    d = repro.compile(Counter())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    hits = []
    rt = make_runtime(
        d, sim,
        lambda h: (hits.append((h.time, h.watch["old"], h.watch["new"])), CONTINUE)[1],
    )
    rt.attach()
    sim.reset()
    rt.add_watchpoint("count")
    sim.poke("en", 1)
    sim.step(6)
    first_run = list(hits)
    assert first_run  # sanity: the counter did change

    # Rewind and re-execute the same stimulus: the hit stream repeats the
    # re-executed suffix exactly — no phantom (old=stale-last) reports.
    # step(3) from time 3 fires clock callbacks at times 3, 4, and 5.
    sim.set_time(3)
    hits.clear()
    sim.step(3)
    assert hits == [h for h in first_run if 3 < h[0] <= 5]

    # Rewind then diverge (freeze the counter): no changes => no hits.
    # Without re-priming, `last` would be stale and fire a phantom.
    sim.set_time(3)
    hits.clear()
    sim.poke("en", 0)
    sim.step(3)
    assert hits == []


def test_watchpoint_rewind_via_reverse_continue():
    """The runtime's own reverse execution path (_reverse_time -> set_time)
    re-primes watchpoints through the set-time callback."""
    from repro.core import REVERSE_CONTINUE
    from tests.helpers import line_of, make_runtime

    d = repro.compile(Accumulator())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    seen = []
    commands = iter([REVERSE_CONTINUE] + [CONTINUE] * 50)

    def on_hit(h):
        if h.watch is not None:
            seen.append((h.time, h.watch["old"], h.watch["new"]))
            return CONTINUE
        return next(commands)

    rt = make_runtime(d, sim, on_hit)
    rt.attach()
    sim.reset()
    rt.add_watchpoint("acc")
    _f, line = line_of(d, "acc")
    rt.add_breakpoint("helpers.py", line, condition="acc == 30")
    sim.poke("en", 1)
    sim.poke("d", 10)
    sim.step(8)
    # Every reported transition is a genuine +10 accumulation; the rewind
    # must not inject a phantom (e.g. old=30 -> new=10) observation.
    for _t, old, new in seen:
        assert new == old + 10, f"phantom watch report {old} -> {new}"


@pytest.mark.parametrize("mod_cls", MODULES)
def test_levelized_schedule_invariants(mod_cls):
    """The levelized order is a valid topo order, which is all the cone
    machinery relies on: every combinational dependency of a schedule
    position is scheduled before it."""
    design = repro.compile(mod_cls())
    cd = Simulator(design.low).design
    pos_of = {t: pos for pos, t in enumerate(cd.order_targets)}
    for pos, deps in enumerate(cd.order_deps):
        for dep in deps:
            if dep in pos_of and dep != cd.order_targets[pos]:
                assert pos_of[dep] < pos


def _random_expr(rng, names, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.3:
        if rng.random() < 0.5:
            return str(rng.randrange(0, 64))
        return rng.choice(names)
    if r < 0.45:
        return f"{rng.choice(['!', '~', '-'])}({_random_expr(rng, names, depth + 1)})"
    if r < 0.55:
        return (
            f"({_random_expr(rng, names, depth + 1)}) ? "
            f"({_random_expr(rng, names, depth + 1)}) : "
            f"({_random_expr(rng, names, depth + 1)})"
        )
    op = rng.choice(
        ["||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
         "<<", ">>", "+", "-", "*", "/", "%"]
    )
    return (
        f"({_random_expr(rng, names, depth + 1)}) {op} "
        f"({_random_expr(rng, names, depth + 1)})"
    )


def test_compiled_expressions_match_interpreter():
    """Random expressions over random environments: the exec-compiled
    closure and the tree-walking interpreter agree on every value."""
    rng = random.Random(42)
    names = ["a", "b", "io.x", "vec[3]"]
    for _ in range(300):
        src = _random_expr(rng, names)
        ast = expr_eval.parse(src)
        env = {n: rng.randrange(-16, 64) for n in names}

        def resolve(name):
            return env[name]

        def bind(name):
            return f"_v[{names.index(name)}]"

        values = [env[n] for n in names]
        try:
            want = expr_eval.evaluate(ast, resolve)
        except ValueError:
            # negative shift counts raise identically in both paths
            with pytest.raises(ValueError):
                expr_eval.compile_fn(ast, bind)(values)
            continue
        got = expr_eval.compile_fn(ast, bind)(values)
        assert got == want, f"{src!r} with {env}: compiled {got} != {want}"


@pytest.mark.parametrize("condition", [None, "acc >= 30", "acc % 3 == 0 && en",
                                       "width == 16 || acc < 5"])
def test_runtime_compiled_hits_match_interpreter(condition):
    """The full runtime stack: compiled group evaluation produces the same
    hit sequence, hit counts, and frame values as the interpreter."""
    seqs = []
    for compiled in (True, False):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low, options=SessionOptions(snapshots=16, fast=compiled))
        hits = []

        def on_hit(h):
            hits.append((h.time, h.line, [f.var("acc") for f in h.frames]))
            return CONTINUE

        from repro.symtable import SQLiteSymbolTable, write_symbol_table

        st = SQLiteSymbolTable(write_symbol_table(d))
        rt = Runtime(sim, st, on_hit, compile_conditions=compiled)
        rt.attach()
        _f, line = line_of(d, "acc")
        bps = rt.add_breakpoint("helpers.py", line, condition=condition)
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 10)
        sim.step(6)
        sim.poke("en", 0)
        sim.step(2)
        seqs.append((hits, [bp.hit_count for bp in bps], rt.stats_bp_evals))
    assert seqs[0] == seqs[1]


def test_runtime_unknown_condition_name_matches_interpreter():
    """Unresolvable user conditions warn once and never hit, identically."""
    outcomes = []
    for compiled in (True, False):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.time), CONTINUE)[1])
        rt._compile_conditions = compiled
        rt.attach()
        _f, line = line_of(d, "acc")
        rt.add_breakpoint("helpers.py", line, condition="no_such_name > 0")
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        outcomes.append((hits, len(rt.warnings) > 0))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == []  # failing condition suppresses hits
    assert outcomes[0][1]


def test_ignore_count_matches_interpreter():
    """gdb-style ignore counts decay identically under batched eval."""
    results = []
    for compiled in (True, False):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        hits = []
        rt = make_runtime(d, sim, lambda h: (hits.append(h.time), CONTINUE)[1])
        rt._compile_conditions = compiled
        rt.attach()
        _f, line = line_of(d, "acc")
        bps = rt.add_breakpoint("helpers.py", line)
        bps[0].ignore_count = 2
        sim.reset()
        sim.poke("en", 1)
        sim.step(5)
        results.append((hits, bps[0].hit_count, bps[0].ignore_count))
    assert results[0] == results[1]
    assert len(results[0][0]) == 3  # 5 condition passes - 2 ignored
