"""Generated designs: the native free-run tier against the reference.

A hypothesis generator builds random ``repro.hgf`` designs: UInt and SInt
inputs and registers of 1-130 bits (crossing the 64- and 128-bit lane
boundaries), every PrimOp including division by zero and dynamic shifts
past the width, registers with and without reset feeding back, one memory
with a write port, and an optional ``stop`` and ``printf``.  Each design
alternates random pokes with ``run(k)`` on the default engine, where
``run`` takes the native kernel, and on a ``fast=False`` twin, which never
does.  After every segment both must agree on the state digest, the time,
the exit code and the printf output.  Designs holding anything wider than
128 bits must report themselves ineligible and still match.

Under a drawn entry-limited timeline, ``run(k)`` (native segments whose
tail is re-executed into the timeline) must retain exactly what
``step(k)`` records: the same cycles, and the same state at each.

Drawn stimulus tapes through ``run_cycles`` (the kernel poking each row)
must match the same rows poked from Python, on the fast engine and on the
reference, including the runtime's hit counts; every case the tape leaves
to the Python loop must run no native cycle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.hgf as hgf
import repro.ir.expr as E
from repro.core import CONTINUE, HitRecorder, Runtime
from repro.hgf.value import Value
from repro.hub import SessionOptions
from repro.ir.types import SIntType, UIntType
from repro.shard import ShardSpec, make_stimulus, run_shard
from repro.sim import Simulator, compile_design, native
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator

BINARY = [
    "add", "sub", "mul", "div", "rem", "lt", "leq", "gt", "geq", "eq", "neq",
    "and", "or", "xor", "cat", "dshl", "dshr",
]  # fmt: skip
UNARY = ["not", "neg", "andr", "orr", "xorr", "as_uint", "as_sint"]
PARAM = ["bits", "pad", "shl", "shr"]
CTORS = {"and": E.and_, "or": E.or_, "xor": E.xor, "not": E.not_}


def _ctor(op):
    return CTORS.get(op) or getattr(E, op)


def _narrow(x):
    """Half the bits of ``x``, same signedness."""
    out = E.bits(x, max(1, x.width() // 2) - 1, 0)
    return E.as_sint(out) if isinstance(x.typ, SIntType) else out


def _fit(x, typ):
    """``x`` resized and reinterpreted to exactly ``typ``."""
    w = typ.bit_width()
    if x.width() > w:
        x = E.bits(x, w - 1, 0)
    elif x.width() < w:
        x = E.pad(x, w)
    if isinstance(typ, SIntType) != isinstance(x.typ, SIntType):
        x = E.as_sint(x) if isinstance(typ, SIntType) else E.as_uint(x)
    return x


class Generated(hgf.Module):
    """One drawn design.  Values stay within ``cap`` bits (and 130);
    ``self.effects`` tells whether the design may stop or print."""

    def __init__(self, draw, cap: int):
        super().__init__()
        self.draw, self.cap = draw, cap
        self.width = width = st.integers(1, min(cap, 130))
        self.leaves = []
        for i in range(draw(st.integers(1, 3))):
            self.leaves.append(self.input(f"i{i}", typ=self._typ(draw(width))).expr)
        regs = []
        for i in range(draw(st.integers(1, 3))):
            typ = self._typ(draw(width))
            init = None
            if draw(st.booleans()):
                w = typ.bit_width()
                lo = -(1 << (w - 1)) if isinstance(typ, SIntType) else 0
                hi = (1 << (w - 1)) - 1 if isinstance(typ, SIntType) else (1 << w) - 1
                init = draw(st.integers(lo, hi))
            regs.append(self.reg(f"r{i}", typ=typ, init=init))
            self.leaves.append(regs[-1].expr)
        mem = None
        if draw(st.booleans()):
            mw, depth = draw(width), draw(st.integers(1, 150))
            mem = self.mem("m", mw, depth, init=[draw(st.integers(0, (1 << mw) - 1))])
            self.leaves.append(mem[self._value(self.expr(1))].expr)
        node = self.node("n", self._value(self.expr(2)))
        self.leaves.append(node.expr)
        for r in regs:
            r <<= self._value(_fit(self.expr(3), r.typ))
        if mem is not None:
            data = self._value(_fit(self.expr(2), UIntType(mem.typ.bit_width())))
            mem.write(self._value(self.expr(1)), data, self._value(self.expr(1)))
        out = self.output("o", typ=self._typ(draw(width)))
        out <<= self._value(_fit(self.expr(3), out.typ))
        self.effects = False
        if draw(st.booleans()):
            self.stop(self._value(self._rare()), draw(st.integers(0, 3)))
            self.effects = True
        if draw(st.booleans()):
            args = [self._value(self.expr(1)) for _ in range(draw(st.integers(0, 2)))]
            self.printf(self._value(self._rare()), "p" + " {}" * len(args), *args)
            self.effects = True

    def _typ(self, w):
        return SIntType(w) if self.draw(st.booleans()) else UIntType(w)

    def _value(self, e):
        return Value(e, self._mb)

    def _rare(self):
        """A condition that holds now and then: low bits equal a constant."""
        x = self.expr(2)
        k = min(x.width(), self.draw(st.integers(1, 3)))
        value = self.draw(st.integers(0, (1 << k) - 1))
        return E.eq(E.bits(x, k - 1, 0), E.uint(value, k))

    def expr(self, depth):
        draw = self.draw
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            if draw(st.integers(0, 4)):
                return draw(st.sampled_from(self.leaves))
            typ = self._typ(draw(self.width))
            w = typ.bit_width()
            if isinstance(typ, SIntType):
                return E.sint(draw(st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1)), w)
            return E.uint(draw(st.integers(0, (1 << w) - 1)), w)
        kind = draw(st.sampled_from(["binary", "unary", "param", "mux"]))
        a = self.expr(depth - 1)
        if kind == "unary":
            op = draw(st.sampled_from(UNARY))
            args, params = [a], ()
        elif kind == "param":
            op = draw(st.sampled_from(PARAM))
            args = [a]
            if op == "bits":
                lo = draw(st.integers(0, a.width() - 1))
                params = (draw(st.integers(lo, a.width() - 1)), lo)
            else:
                params = (draw(st.integers(0, a.width() + 4)),)
        elif kind == "mux":
            op, params = "mux", ()
            b, c = self.expr(depth - 1), self.expr(depth - 1)
            if isinstance(b.typ, SIntType) != isinstance(c.typ, SIntType):
                c = _fit(c, type(b.typ)(c.width()))
            args = [E.orr(a) if a.width() > 1 else a, b, c]
        else:
            op = draw(st.sampled_from(BINARY))
            args, params = [a, self.expr(depth - 1)], ()
        # Keep every intermediate within the design's width cap.
        for _ in range(12):
            e = _ctor(op)(*args, *params)
            if e.width() <= self.cap:
                return e
            keep = 1 if op == "mux" else 0  # a mux condition stays 1 bit
            args = args[:keep] + [_narrow(x) for x in args[keep:]]
            params = tuple(p // 2 for p in params)
        return E.bits(e, self.cap - 1, 0)


def _check(fast, ref):
    assert fast.get_time() == ref.get_time()
    assert fast.exit_code == ref.exit_code
    assert fast.printf_output == ref.printf_output
    assert fast.state_digest() == ref.state_digest(), fast.get_time()


@pytest.mark.filterwarnings("ignore::repro.sim.native.NativeWarning")
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_native_free_run_matches_reference(data):
    cap = 200 if data.draw(st.integers(0, 7)) == 0 else 128
    gen = Generated(data.draw, cap)
    design = repro.compile(gen)
    fast = Simulator(design.low)
    ref = Simulator(design.low, options=SessionOptions(fast=False))
    for sim in (fast, ref):
        sim.reset()
    inputs = [n for n in fast.design.top_inputs if n.startswith("i")]
    for _ in range(data.draw(st.integers(1, 6))):
        for name in inputs:
            if data.draw(st.booleans()):
                value = data.draw(st.integers(0, (1 << 130) - 1))
                fast.poke(name, value)
                ref.poke(name, value)
        k = data.draw(st.integers(1, 64))
        assert fast.run(k) == ref.run(k)
        _check(fast, ref)
        if fast.finished:
            break

    status = native.status(fast.design)
    widest = max(s.width for s in fast.design.signals)
    widest = max([widest, *(m.width for m in fast.design.mems)])
    if widest > 128:
        assert status.startswith("off (ineligible"), status
    if native._compiler()[1] is not None:
        assert status == "on" or status.startswith("off (ineligible"), status
        assert "no C for" not in status, status  # only width is ineligible
    if status == "on" and not gen.effects:
        assert fast.stats()["native_cycles"] > 0
    assert ref.stats()["native_cycles"] == 0


@pytest.mark.filterwarnings("ignore::repro.sim.native.NativeWarning")
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_native_run_under_a_timeline_matches_stepping(data):
    gen = Generated(data.draw, 128)
    design = repro.compile(gen)
    snapshots = data.draw(st.integers(1, 80))
    fast = Simulator(design.low, options=SessionOptions(snapshots=snapshots))
    ref = Simulator(design.low, options=SessionOptions(snapshots=snapshots))
    sims = (fast, ref)
    for sim in sims:
        sim.reset()
    inputs = [n for n in fast.design.top_inputs if n.startswith("i")]
    longest = 0  # a budget beyond the window is what runs natively
    for _ in range(data.draw(st.integers(1, 5))):
        for name in inputs:
            if data.draw(st.booleans()):
                value = data.draw(st.integers(0, (1 << 130) - 1))
                for sim in sims:
                    sim.poke(name, value)
        k = data.draw(st.integers(1, 200))
        longest = max(longest, k)
        fast.run(k)
        ref.step(k)
        _check(fast, ref)
        assert fast.timeline.times() == ref.timeline.times()
        assert fast.stats()["ticks"] == ref.stats()["ticks"]
        if fast.finished:
            break
    on = native.status(fast.design) == "on"
    if on and not gen.effects and longest > snapshots:
        assert fast.stats()["native_cycles"] > 0
    now = fast.get_time()
    for t in ref.timeline.times():
        fast.set_time(t)
        ref.set_time(t)
        assert fast.state_digest() == ref.state_digest(), (t, now)


@pytest.mark.filterwarnings("ignore::repro.sim.native.NativeWarning")
def test_recorded_runs_match_stepping():
    """A ``HitRecorder`` runtime (one or two breakpoints, with or without a
    ``limit``) under ``run(k)``, with and without ``snapshots=N`` and with
    kernel slices and record buffers split small, keeps what the same
    runtime keeps under ``step(k)``: the same rows, plans and records, hit
    counts, evaluations and callbacks, state and timeline.  With a
    compiler, the kernel records some of those hits itself."""
    native_hits: list[int] = []
    _recorded_runs_match_stepping(native_hits)
    if native._compiler()[1] is not None:
        assert sum(native_hits) > 0


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def _recorded_runs_match_stepping(native_hits, data):
    design = repro.compile(Generated(data.draw, 64))
    table = write_symbol_table(design)
    recs = SQLiteSymbolTable(table).all_breakpoints()
    if not recs:
        return
    compiled = compile_design(design.low)
    names = sorted(n for n in compiled.top_inputs if n.startswith("i"))
    names += [f"r{i}" for i in range(3) if f"{compiled.hierarchy.path}.r{i}" in
              compiled.signal_index]
    bps = _input_breakpoints(data.draw, recs, names)
    limit = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    opts = SessionOptions(snapshots=data.draw(st.sampled_from([0, 0, 4, 33])))
    twins = []
    for _ in range(2):  # run, step
        sim = Simulator(design.low, options=opts)
        recorder = HitRecorder(limit=limit)
        rt = Runtime(sim, SQLiteSymbolTable(table), recorder)
        rt.attach()
        sim.reset()
        for bp in bps:
            rt.add_breakpoint(*bp)
        twins.append((sim, rt, recorder))
    (run, run_rt, run_kept), (step, step_rt, step_kept) = twins
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            # Small kernel slices, split again by a small record buffer.
            mp.setattr(native, "SLICE", data.draw(st.integers(1, 40)))
            mp.setattr(native, "RECORD_WORDS", data.draw(st.integers(1, 200)))
        for _ in range(data.draw(st.integers(1, 5))):
            for name in names:
                if name.startswith("i") and data.draw(st.booleans()):
                    value = data.draw(st.integers(0, (1 << 64) - 1))
                    run.poke(name, value)
                    step.poke(name, value)
            k = data.draw(st.integers(1, 200))
            run.run(k)
            step.step(k)
            _check(run, step)
            assert _kept(run_kept) == _kept(step_kept)
            assert _runtime_stats(run_rt) == _runtime_stats(step_rt)
            if opts.snapshots:
                assert run.timeline.times() == step.timeline.times()
            if step.finished:
                break
    assert step.stats()["native_hits"] == 0
    native_hits.append(run.stats()["native_hits"])


# -- stimulus tapes ---------------------------------------------------------------


class _Halt(Exception):
    """Raised by a hit handler to stop a run early."""


def _tape_twin(
    design, table, spec, bps, halt_at, fast=True, tape=True, limit=False
):
    """A reset simulator with a runtime breaking at each of ``bps`` and the
    spec's stimulus: the tape itself, or (``tape=False``) a plain callable
    poking the same rows from Python.  Hits go to a handler that raises
    :class:`_Halt` on hit ``halt_at``, or, when ``limit`` is not False, to
    a :class:`HitRecorder` with that ``limit``, the sink whose hits the
    kernel records itself.  The last item is the hit times or the
    recorder."""
    sim = Simulator(design.low, options=SessionOptions(fast=fast))
    hits = []

    def on_hit(hit):
        hits.append(hit.time)
        if len(hits) == halt_at:
            raise _Halt
        return CONTINUE

    if limit is not False:
        on_hit = hits = HitRecorder(limit=limit)
    rt = Runtime(sim, SQLiteSymbolTable(table), on_hit)
    rt.attach()
    for name, value in spec.overrides.items():
        sim.poke(name, value)
    sim.reset()
    for bp in bps:
        rt.add_breakpoint(*bp)
    stimulus = make_stimulus(sim, spec)
    if not tape:
        rows = stimulus

        def stimulus(s, cycle):
            rows(s, cycle)

    return sim, rt, stimulus, hits


def _runtime_stats(rt):
    return (
        [bp.hit_count for bp in rt.list_breakpoints()],
        rt.stats_bp_evals,
        rt.stats_callbacks,
    )


def _kept(hits):
    """What a hit sink kept: the hit times, or a recorder's rows, plans
    and rendered records."""
    if not isinstance(hits, HitRecorder):
        return hits
    plans = {bp: plan.to_wire() for bp, plan in hits.plans.items()}
    return hits.hits, plans, hits.records


def _input_breakpoints(draw, recs, inputs) -> list:
    """One breakpoint, or two at different source locations (two
    scheduling groups) where the design has them, each with a condition
    on an input: a wake the kernel can test."""
    first = draw(st.sampled_from(recs))
    chosen = [first]
    others = [r for r in recs if (r.filename, r.line, r.column) != (
        first.filename, first.line, first.column)]
    if others and draw(st.booleans()):
        chosen.append(draw(st.sampled_from(others)))
    bps = []
    for rec in chosen:
        name = draw(st.sampled_from(inputs))
        low = draw(st.integers(0, 1))
        bps.append((rec.filename, rec.line, rec.column, f"({name} & 3) == {low}"))
    return bps


@pytest.mark.filterwarnings("ignore::repro.sim.native.NativeWarning")
def test_tapes_match_python_pokes():
    """Drawn tapes through ``run_cycles``, in drawn segments, heartbeat
    cadences and kernel slices, with overrides dropping columns and a
    breakpoint whose handler may stop a run early (the next run resumes
    from the queued rows), or one or two breakpoints whose hits go to a
    ``HitRecorder`` (with or without a ``limit``), which the kernel
    records itself: the kernel run, the same rows poked from Python on
    the fast engine, and the reference agree on the state, the time, the
    exit code, the printf output and the progress reports, on the hits
    kept (a recorder's rows, plans and records), and their runtimes on
    hit counts, evaluations and callbacks.  With a compiler, the kernel
    records some of the recorders' hits itself."""
    native_hits: list[int] = []
    _tapes_match_python_pokes(native_hits)
    if native._compiler()[1] is not None:
        assert sum(native_hits) > 0


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def _tapes_match_python_pokes(native_hits, data):
    gen = Generated(data.draw, data.draw(st.sampled_from([64, 64, 64, 100])))
    design = repro.compile(gen)
    compiled = compile_design(design.low)
    inputs = sorted(n for n in compiled.top_inputs if n.startswith("i"))
    overrides = {
        name: data.draw(st.integers(0, (1 << 64) - 1))
        for name in inputs
        if data.draw(st.integers(0, 3)) == 0
    }
    seed = data.draw(st.integers(0, 1 << 30))
    spec = ShardSpec(0, seed=seed, cycles=0, overrides=overrides)
    table = write_symbol_table(design)
    bps: list = []
    recs = SQLiteSymbolTable(table).all_breakpoints()
    if recs and data.draw(st.integers(0, 3)):
        bps = _input_breakpoints(data.draw, recs, inputs)
    limit = False  # a handler, not a recorder
    if bps and data.draw(st.booleans()):
        limit = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    else:
        del bps[1:]
    halt_at = data.draw(st.integers(1, 6)) if data.draw(st.booleans()) else 0
    tape, pokes, ref = (
        _tape_twin(design, table, spec, bps, halt_at, limit=limit),
        _tape_twin(design, table, spec, bps, halt_at, tape=False, limit=limit),
        _tape_twin(design, table, spec, bps, halt_at, fast=False, limit=limit),
    )
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(native, "SLICE", data.draw(st.integers(1, 9)))
        for _ in range(data.draw(st.integers(1, 4))):
            k = data.draw(st.integers(0, 150))
            every = data.draw(st.integers(0, 40))
            outcomes = []
            for sim, _rt, stimulus, _hits in (tape, pokes, ref):
                beats = []
                try:
                    ran = sim.run_cycles(
                        k, stimulus, on_progress=lambda s, n, b=beats: b.append(n),
                        progress_every=every,
                    )
                except _Halt:
                    ran = "halted"
                outcomes.append((ran, beats))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            for sim, rt, _stimulus, hits in (tape, pokes):
                _check(sim, ref[0])
                assert _kept(hits) == _kept(ref[3])
                assert _runtime_stats(rt) == _runtime_stats(ref[1])
            if ref[0].finished:
                break
    assert pokes[0].native_cycles == ref[0].native_cycles == 0
    assert pokes[0].stats()["native_hits"] == ref[0].stats()["native_hits"] == 0
    native_hits.append(tape[0].stats()["native_hits"])
    if limit is False:
        assert native_hits[-1] == 0  # a handler's hits stay Python's
    widths = [compiled.signals[compiled.top_inputs[n]].width for n in inputs]
    if any(w > 64 for n, w in zip(inputs, widths) if n not in overrides):
        assert tape[0].native_cycles == 0  # a wide column keeps Python


class _Sink:
    """A trace sink that records nothing."""

    def begin(self, sim):
        pass

    def sample(self, sim):
        pass


class _WideIn(hgf.Module):
    """A 100-bit input: a tape column wider than the kernel's 64-bit lanes."""

    def __init__(self):
        super().__init__()
        d = self.input("d", 100)
        acc = self.reg("acc", 100, init=0)
        acc <<= (acc + d)[99:0]


def _pinned_run(case, monkeypatch, module):
    """A 300-cycle tape run of ``module`` under ``case``: (native cycles,
    digest)."""
    design = repro.compile(module)
    spec = ShardSpec(0, seed=3, cycles=300)
    if case == "on_cycle":
        table = SQLiteSymbolTable(write_symbol_table(design))
        res = run_shard(design.low, table, spec, on_cycle=lambda c: None, obs="metrics")
        metrics = {m["name"]: m.get("value") for m in res.obs["metrics"]["metrics"]}
        return metrics["sim_native_cycles_total"], res.state_digest
    if case == "no compiler":
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(native, "_COMPILERS", {})
    opts = {
        "timeline": {"snapshots": 8},
        "reference": {"fast": False},
    }.get(case, {})
    sim = Simulator(
        design.low,
        compiled=compile_design(design.low),  # no kernel verdict yet
        trace=_Sink() if case == "trace" else None,
        options=SessionOptions(**opts),
    )
    if case == "watchpoint":
        rt = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)))
        rt.attach()
        rt.add_watchpoint("acc")
    sim.reset()
    sim.run_cycles(300, make_stimulus(sim, spec))
    return sim.native_cycles, sim.state_digest()


@pytest.mark.filterwarnings("ignore::repro.sim.native.NativeWarning")
@pytest.mark.parametrize(
    "case",
    ["timeline", "trace", "reference", "wide", "on_cycle", "watchpoint", "no compiler"],
)
def test_python_loop_cases_take_no_tape(case, monkeypatch):
    """Each case the tape leaves to the Python loop runs no native cycle
    and ends where a plain tape run does."""
    module = _WideIn() if case == "wide" else Accumulator()
    cycles, digest = _pinned_run(case, monkeypatch, module)
    assert cycles == 0
    monkeypatch.undo()
    _, ref = _pinned_run("reference", monkeypatch, module)
    assert digest == ref
    plain_cycles, _ = _pinned_run("plain", monkeypatch, module)
    if native._compiler()[1] is not None:
        assert plain_cycles == (0 if case == "wide" else 300)
