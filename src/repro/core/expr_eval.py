"""A C-like expression language for breakpoint conditions.

hgdb evaluates two kinds of conditions at a potential breakpoint (paper
Sec. 3.2 step 2): the SSA-derived *enable condition* stored in the symbol
table, and an optional *user condition* attached when inserting the
breakpoint (Fig. 4D "conditional breakpoints").  Both are expressions over
signal/variable names; this module parses and evaluates them.

Grammar (C precedence): ternary ``?:``, ``||``, ``&&``, ``|``, ``^``, ``&``,
equality, relational, shifts, additive, multiplicative, unary ``! ~ -``.
Names may be hierarchical (``io.a``, ``vec[3]``, ``a.b[2].c``); literals may
be decimal, hex (``0x``), or binary (``0b``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from ..sim.interface import WAKE_BINARY_OPS


class ExprError(Exception):
    """Raised on parse errors or unresolvable names."""


_TOKEN_RE = re.compile(
    r"""
    (?P<name>[A-Za-z_$][A-Za-z0-9_$]*(?:(?:\.[A-Za-z_$][A-Za-z0-9_$]*)|(?:\[\d+\]))*)
  | (?P<num>0[xX][0-9a-fA-F_]+|0[bB][01_]+|\d+)
  | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>()?:])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"bad character {text[pos]!r} in expression {text!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            out.append(m.group(0))
    return out


@dataclass(frozen=True, slots=True)
class Name:
    name: str


@dataclass(frozen=True, slots=True)
class Num:
    value: int


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: object
    then: object
    other: object


_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError(f"unexpected end of expression: {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ExprError(f"expected {tok!r}, got {got!r} in {self.source!r}")

    def parse(self):
        node = self.ternary()
        if self.peek() is not None:
            raise ExprError(f"trailing tokens in {self.source!r}")
        return node

    def ternary(self):
        cond = self.binary(0)
        if self.peek() == "?":
            self.next()
            then = self.ternary()
            self.expect(":")
            other = self.ternary()
            return Ternary(cond, then, other)
        return cond

    def binary(self, level: int):
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        node = self.binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while self.peek() in ops:
            op = self.next()
            rhs = self.binary(level + 1)
            node = Binary(op, node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok in ("!", "~", "-", "+"):
            self.next()
            return Unary(tok, self.unary())
        return self.primary()

    def primary(self):
        tok = self.next()
        if tok == "(":
            node = self.ternary()
            self.expect(")")
            return node
        if re.fullmatch(r"0[xX][0-9a-fA-F_]+", tok):
            return Num(int(tok.replace("_", ""), 16))
        if re.fullmatch(r"0[bB][01_]+", tok):
            return Num(int(tok.replace("_", ""), 2))
        if tok.isdigit():
            return Num(int(tok))
        if re.fullmatch(r"[A-Za-z_$].*", tok):
            return Name(tok)
        raise ExprError(f"unexpected token {tok!r} in {self.source!r}")


@functools.lru_cache(maxsize=1024)
def parse(text: str):
    """Parse an expression into its AST.  ASTs are immutable, so a text
    parsed again (the same condition in every shard of a sweep) shares
    the first one's."""
    return _Parser(tokenize(text), text).parse()


def names_in(node) -> set[str]:
    """All names an expression references."""
    if isinstance(node, Name):
        return {node.name}
    if isinstance(node, Unary):
        return names_in(node.operand)
    if isinstance(node, Binary):
        return names_in(node.left) | names_in(node.right)
    if isinstance(node, Ternary):
        return names_in(node.cond) | names_in(node.then) | names_in(node.other)
    return set()


def evaluate(node, resolve) -> int:
    """Evaluate an AST.  ``resolve(name) -> int`` supplies variable values
    (raise :class:`ExprError` for unknown names)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return resolve(node.name)
    if isinstance(node, Unary):
        v = evaluate(node.operand, resolve)
        if node.op == "!":
            return int(v == 0)
        if node.op == "~":
            return ~v
        if node.op == "-":
            return -v
        return v
    if isinstance(node, Binary):
        a = evaluate(node.left, resolve)
        if node.op == "||":
            return int(bool(a) or bool(evaluate(node.right, resolve)))
        if node.op == "&&":
            return int(bool(a) and bool(evaluate(node.right, resolve)))
        b = evaluate(node.right, resolve)
        if node.op == "|":
            return a | b
        if node.op == "^":
            return a ^ b
        if node.op == "&":
            return a & b
        if node.op == "==":
            return int(a == b)
        if node.op == "!=":
            return int(a != b)
        if node.op == "<":
            return int(a < b)
        if node.op == "<=":
            return int(a <= b)
        if node.op == ">":
            return int(a > b)
        if node.op == ">=":
            return int(a >= b)
        if node.op == "<<":
            return a << min(b, 256)
        if node.op == ">>":
            return a >> min(b, 256)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a // b if b else 0
        if node.op == "%":
            return a % b if b else 0
        raise ExprError(f"unknown operator {node.op!r}")
    if isinstance(node, Ternary):
        return (
            evaluate(node.then, resolve)
            if evaluate(node.cond, resolve)
            else evaluate(node.other, resolve)
        )
    raise ExprError(f"cannot evaluate {node!r}")


def evaluate_str(text: str, resolve) -> int:
    """Parse and evaluate in one call."""
    return evaluate(parse(text), resolve)


# -- compilation to Python -------------------------------------------------
#
# Tree-walking `evaluate` resolves every name through a callback on every
# call — fine for one-shot `p expr`, too slow for per-cycle breakpoint
# conditions.  `to_python` translates an AST into Python expression source
# with names bound by the caller (typically to a pre-resolved signal index),
# and `compile_fn` exec-compiles that into a single closure.  The generated
# code must agree with `evaluate` bit-for-bit — including short-circuiting,
# shift clamping, and division-by-zero semantics; property tests enforce it.


def _ee_div(a: int, b: int) -> int:
    return a // b if b else 0


def _ee_mod(a: int, b: int) -> int:
    return a % b if b else 0


COMPILE_HELPERS = {"_ee_div": _ee_div, "_ee_mod": _ee_mod, "min": min}

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_DIRECT_OPS = ("|", "^", "&", "+", "-", "*")


def to_python(node, bind) -> str:
    """Translate an AST into Python expression source.

    ``bind(name) -> str`` supplies the Python expression for a variable
    reference (raise :class:`ExprError` for unresolvable names).  The
    emitted source references the :data:`COMPILE_HELPERS` names.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return bind(node.name)
    if isinstance(node, Unary):
        v = to_python(node.operand, bind)
        if node.op == "!":
            return f"(1 if ({v}) == 0 else 0)"
        if node.op == "~":
            return f"(~({v}))"
        if node.op == "-":
            return f"(-({v}))"
        return f"({v})"
    if isinstance(node, Binary):
        op = node.op
        a = to_python(node.left, bind)
        b = to_python(node.right, bind)
        if op == "||":
            return f"(1 if ({a}) or ({b}) else 0)"
        if op == "&&":
            return f"(1 if ({a}) and ({b}) else 0)"
        if op in _DIRECT_OPS:
            return f"(({a}) {op} ({b}))"
        if op in _CMP_OPS:
            return f"(1 if ({a}) {op} ({b}) else 0)"
        if op == "<<":
            return f"(({a}) << min(({b}), 256))"
        if op == ">>":
            return f"(({a}) >> min(({b}), 256))"
        if op == "/":
            return f"_ee_div(({a}), ({b}))"
        if op == "%":
            return f"_ee_mod(({a}), ({b}))"
        raise ExprError(f"unknown operator {op!r}")
    if isinstance(node, Ternary):
        return (
            f"(({to_python(node.then, bind)}) if ({to_python(node.cond, bind)})"
            f" else ({to_python(node.other, bind)}))"
        )
    raise ExprError(f"cannot compile {node!r}")


def compile_fn(node, bind, env: dict | None = None, arg: str = "_v"):
    """Compile an AST into a single closure ``fn(arg) -> int``.

    ``bind`` is as in :func:`to_python`; ``env`` supplies extra names the
    bound fragments reference (e.g. a value getter).
    """
    src = to_python(node, bind)
    ns = dict(COMPILE_HELPERS)
    if env:
        ns.update(env)
    code = f"def _compiled({arg}):\n    return {src}"
    exec(compile(code, "<repro-expr>", "exec"), ns)
    return ns["_compiled"]


# -- wake predicates (conditions the native kernel evaluates) ---------------
#
# On unsigned values below 2**64 every operator below equals `evaluate`
# exactly in 64-bit C, and each is total, so the kernel may evaluate both
# sides of `&&`/`||`.  Arithmetic, shifts, `~`, unary `-` and `?:` can leave
# that range, so they stay Python.


def to_wake(node, bind):
    """Translate an AST into a wake predicate (the tuple format documented
    on ``SimulatorInterface.add_clock_callback``).

    ``bind(name)`` supplies a ``("sig", i)`` or ``("num", v)`` leaf (raise
    :class:`ExprError` for names it cannot bind to a 64-bit lane).  Raises
    :class:`ExprError` for anything outside the exact subset: operators
    other than ``WAKE_BINARY_OPS``, ``!`` and unary ``+``, and constants
    outside ``[0, 2**64)``.
    """
    if isinstance(node, Num | Name):
        leaf = ("num", node.value) if isinstance(node, Num) else bind(node.name)
        if leaf[0] == "num" and not 0 <= leaf[1] < 1 << 64:
            raise ExprError(f"constant {leaf[1]} is outside 64 unsigned bits")
        return leaf
    if isinstance(node, Unary) and node.op in ("!", "+"):
        x = to_wake(node.operand, bind)
        return ("!", x) if node.op == "!" else x
    if isinstance(node, Binary) and node.op in WAKE_BINARY_OPS:
        return (node.op, to_wake(node.left, bind), to_wake(node.right, bind))
    raise ExprError(f"no exact 64-bit form for {node!r}")

