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
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.hgf as hgf
import repro.ir.expr as E
from repro.hgf.value import Value
from repro.hub import SessionOptions
from repro.ir.types import SIntType, UIntType
from repro.sim import Simulator, native

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
    opts = {"snapshots": data.draw(st.integers(1, 80))}
    if data.draw(st.booleans()):
        opts["keyframe_every"] = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        opts["snapshot_codec"] = "rle"
    fast = Simulator(design.low, options=SessionOptions(**opts))
    ref = Simulator(design.low, options=SessionOptions(**opts))
    budgeted = Simulator(design.low, options=SessionOptions(snapshot_bytes=4096))
    sims = (fast, ref, budgeted)
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
        assert fast.run(k) == budgeted.run(k)
        ref.step(k)
        _check(fast, ref)
        _check(budgeted, ref)
        assert fast.timeline.times() == ref.timeline.times()
        assert fast.stats()["ticks"] == ref.stats()["ticks"]
        if fast.finished:
            break
    assert budgeted.stats()["native_cycles"] == 0
    on = native.status(fast.design) == "on"
    if on and not gen.effects and longest > opts["snapshots"]:
        assert fast.stats()["native_cycles"] > 0
    now = fast.get_time()
    for t in ref.timeline.times():
        fast.set_time(t)
        ref.set_time(t)
        assert fast.state_digest() == ref.state_digest(), (t, now)
