"""Condition expression language tests (parser + evaluator, and the wake
predicates the native kernel evaluates)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.hgf as hgf
from repro.core.expr_eval import (
    Binary,
    ExprError,
    Name,
    Num,
    Unary,
    evaluate,
    evaluate_str,
    names_in,
    parse,
    to_wake,
    tokenize,
)
from repro.sim import Simulator, compile_design, native
from repro.sim.interface import WAKE_BINARY_OPS


def ev(text, **env):
    def resolve(name):
        if name in env:
            return env[name]
        raise ExprError(f"unknown {name}")

    return evaluate_str(text, resolve)


class TestTokenizer:
    def test_hierarchical_names_single_token(self):
        assert tokenize("io.a.b + x[3]") == ["io.a.b", "+", "x[3]"]

    def test_numbers(self):
        assert tokenize("0x1F 0b101 42") == ["0x1F", "0b101", "42"]

    def test_two_char_ops(self):
        assert tokenize("a<=b&&c||d") == ["a", "<=", "b", "&&", "c", "||", "d"]

    def test_bad_char(self):
        with pytest.raises(ExprError):
            tokenize("a @ b")


class TestParser:
    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14

    def test_parens(self):
        assert ev("(2 + 3) * 4") == 20

    def test_comparison_chains_into_logic(self):
        assert ev("1 < 2 && 3 > 2") == 1

    def test_unary(self):
        assert ev("!0") == 1
        assert ev("!5") == 0
        assert ev("-3 + 5") == 2
        assert ev("~0 & 0xF") == 0xF

    def test_ternary(self):
        assert ev("1 ? 10 : 20") == 10
        assert ev("0 ? 10 : 20") == 20

    def test_ternary_nested(self):
        assert ev("x == 1 ? 10 : x == 2 ? 20 : 30", x=2) == 20

    def test_hex_binary_literals(self):
        assert ev("0xFF & 0b1010") == 0b1010

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse("1 + 2 3")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprError):
            parse("(1 + 2")

    def test_empty(self):
        with pytest.raises(ExprError):
            parse("")


class TestEvaluation:
    def test_names_resolved(self):
        assert ev("a + b", a=3, b=4) == 7

    def test_hierarchical_name(self):
        assert ev("io.valid && io.ready", **{"io.valid": 1, "io.ready": 1}) == 1

    def test_indexed_name(self):
        assert ev("data[0] % 2", **{"data[0]": 5}) == 1

    def test_unknown_name_raises(self):
        with pytest.raises(ExprError):
            ev("nope")

    def test_division_by_zero_is_zero(self):
        assert ev("5 / 0") == 0
        assert ev("5 % 0") == 0

    def test_shifts(self):
        assert ev("1 << 4") == 16
        assert ev("256 >> 4") == 16

    def test_shortcircuit_and(self):
        # RHS unresolved but LHS false: must not raise.
        assert ev("0 && nope") == 0

    def test_shortcircuit_or(self):
        assert ev("1 || nope") == 1

    def test_names_in(self):
        assert names_in(parse("a.b + c * 2 - d[1]")) == {"a.b", "c", "d[1]"}


class TestPropertyVsPython:
    @given(
        a=st.integers(0, 1000),
        b=st.integers(0, 1000),
        c=st.integers(1, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_arith_matches_python(self, a, b, c):
        assert ev("a + b * c", a=a, b=b, c=c) == a + b * c
        assert ev("(a - b) / c", a=a, b=b, c=c) == (a - b) // c
        assert ev("a % c", a=a, c=c) == a % c

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_logic_matches_python(self, a, b):
        assert ev("a == b", a=a, b=b) == int(a == b)
        assert ev("a < b || a > b", a=a, b=b) == int(a != b)
        assert ev("a & b | a ^ b", a=a, b=b) == (a & b) | (a ^ b)


class Sweep(hgf.Module):
    """Registers of widths 1-64, each stepping the full-period LCG
    x -> 5x + 3, plus two 64-bit registers alternating 0 with 2**64 - 1
    and with 2**63."""

    WIDTHS = (1, 2, 3, 8, 13, 31, 32, 33, 63, 64)

    def __init__(self):
        super().__init__()
        regs = []
        for w in self.WIDTHS:
            r = self.reg(f"r{w}", w, init=0)
            r <<= ((r << 2) + r + 3)[w - 1 : 0]  # 5r + 3 within 128 bits
            regs.append((f"o{w}", w, r))
        z = self.reg("z", 64, init=0)
        z <<= ~z
        h = self.reg("h", 64, init=0)
        h <<= h ^ (1 << 63)
        regs += [("oz", 64, z), ("oh", 64, h)]
        for name, w, r in regs:
            out = self.output(name, w)
            out <<= r


_NAMES = [f"r{w}" for w in Sweep.WIDTHS] + ["z", "h"]
_CONSTS = (0, 1, 2**63, 2**64 - 1)
_CYCLES = 300


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.25:
            return Num(rng.choice(_CONSTS))
        return Name(rng.choice(_NAMES))
    if rng.random() < 0.15:
        return Unary(rng.choice("!+"), _random_ast(rng, depth - 1))
    left, right = _random_ast(rng, depth - 1), _random_ast(rng, depth - 1)
    return Binary(rng.choice(WAKE_BINARY_OPS), left, right)


def _predicates():
    """Six seeded trees rooted at every subset operator and at ``!``, and
    every comparison on operands that are equal on some cycles."""
    rng = random.Random(18)
    out = [
        Binary(op, _random_ast(rng, 2), _random_ast(rng, 2))
        for op in WAKE_BINARY_OPS
        for _ in range(6)
    ]
    out += [Unary("!", _random_ast(rng, 2)) for _ in range(6)]
    edges = [("z", 2**64 - 1), ("h", 2**63), ("r2", 2), ("r64", None)]
    return out + [
        Binary(op, Name(name), Name(name) if value is None else Num(value))
        for op in ("==", "!=", "<", "<=", ">", ">=")
        for name, value in edges
    ]


@pytest.fixture(scope="module")
def sweep():
    design = repro.compile(Sweep())
    return design, compile_design(design.low)


def _sweep_run(sweep, ast, advance):
    """Run the sweep with a callback carrying ``ast``'s wake; the callback
    records (time, evaluate(ast) != 0) at every posedge it runs."""
    design, compiled = sweep
    sim = Simulator(design.low, compiled=compiled)
    index = compiled.signal_index
    fired = []

    def resolve(name):
        return int(sim.get_value(f"Sweep.{name}"))

    sim.add_clock_callback(
        lambda s: fired.append((s.get_time(), evaluate(ast, resolve) != 0)),
        to_wake(ast, lambda name: ("sig", index[f"Sweep.{name}"])),
    )
    sim.reset()
    advance(sim)
    assert sim.get_time() == _CYCLES + 1
    return sim, fired


class TestWake:
    @pytest.mark.parametrize(
        "text",
        ["a + 1", "a - 1", "a * 2", "a / 2", "a % 2", "a << 1", "a >> 1", "~a",
         "-a", "a ? 1 : 0", "a == 18446744073709551616", "(a + 1) == 2 && a"],
    )
    def test_outside_the_subset_raises(self, text):
        with pytest.raises(ExprError):
            to_wake(parse(text), lambda name: ("sig", 0))

    def test_unbindable_name_raises(self):
        def bind(name):
            raise ExprError(f"no lane for {name}")

        with pytest.raises(ExprError):
            to_wake(parse("a == 1"), bind)

    def test_shape(self):
        tree = to_wake(parse("!(a < 0xFFFFFFFF) || +b"), lambda n: ("sig", ord(n)))
        below = ("<", ("sig", 97), ("num", 2**32 - 1))
        assert tree == ("||", ("!", below), ("sig", 98))

    @pytest.mark.parametrize("ast", _predicates(), ids=repr)
    def test_callback_fires_exactly_where_evaluate_holds(self, sweep, ast):
        """Under ``run()`` a callback runs on every cycle where its wake
        holds; one cycle per ``run(1)`` it runs on those cycles only."""
        _sim, reference = _sweep_run(sweep, ast, lambda s: s.step(_CYCLES))
        holds = {t for t, v in reference if v}
        sim, fired = _sweep_run(sweep, ast, lambda s: s.run(_CYCLES))
        assert set(fired) <= set(reference)
        assert {t for t, v in fired if v} == holds
        if native._compiler()[1] is None:
            return  # no compiler: run() stepped every cycle in Python
        assert native.kernel_for(sweep[1]) is not None
        sim, fired = _sweep_run(
            sweep, ast, lambda s: [s.run(1) for _ in range(_CYCLES)]
        )
        assert fired[1:] == [(t, True) for t in sorted(holds - {0})]
        assert sim.stats()["native_cycles"] == _CYCLES - len(fired) + 1
        assert sim.stats()["native_wakes"] == len(fired) - 1
