"""IR expressions.

Expressions are immutable trees.  ``Ref`` / ``SubField`` / ``SubIndex``
reference declared signals; ``Literal`` is a constant; ``PrimOp`` covers the
primitive operator set; ``MemRead`` is a combinational memory read port.

Smart constructors (``add``, ``mux``, ``bits``, ...) implement the width
inference rules so that passes and the generator frontend never hand-compute
result types.  The rules follow FIRRTL's, with one simplification: the
dynamic shifts ``dshl``/``dshr`` keep the width of their first operand
(documented divergence; the simulator and Verilog emitter agree with it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import (
    BundleType,
    SIntType,
    Type,
    UIntType,
    VecType,
    ground_like,
    is_signed,
)


class Expr:
    """Base class of all IR expressions. Every expression carries a type."""

    typ: Type

    def width(self) -> int:
        return self.typ.bit_width()


@dataclass(frozen=True, slots=True)
class Ref(Expr):
    """Reference to a declared signal (port, wire, register, node, instance)."""

    name: str
    typ: Type

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SubField(Expr):
    """Select a named field of a bundle-typed expression."""

    expr: Expr
    name: str
    typ: Type

    def __str__(self) -> str:
        return f"{self.expr}.{self.name}"


@dataclass(frozen=True, slots=True)
class SubIndex(Expr):
    """Select a constant index of a vec-typed expression."""

    expr: Expr
    index: int
    typ: Type

    def __str__(self) -> str:
        return f"{self.expr}[{self.index}]"


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """An integer constant.  ``value`` is stored unsigned-masked for UInt and
    as a Python int (possibly negative) for SInt."""

    value: int
    typ: Type

    def __post_init__(self) -> None:
        w = self.typ.bit_width()
        if isinstance(self.typ, UIntType):
            if not 0 <= self.value < (1 << w):
                raise ValueError(f"literal {self.value} does not fit UInt<{w}>")
        elif isinstance(self.typ, SIntType) and not (
            -(1 << (w - 1)) <= self.value < (1 << (w - 1))
        ):
            raise ValueError(f"literal {self.value} does not fit SInt<{w}>")

    def __str__(self) -> str:
        return f"{self.typ}({self.value})"


@dataclass(frozen=True, slots=True)
class PrimOp(Expr):
    """A primitive operation.

    ``op`` is one of :data:`PRIM_OPS`; ``params`` holds static integer
    parameters (e.g. the hi/lo of ``bits`` or the amount of ``shl``).
    """

    op: str
    args: tuple[Expr, ...]
    params: tuple[int, ...]
    typ: Type

    def __str__(self) -> str:
        parts = [str(a) for a in self.args] + [str(p) for p in self.params]
        return f"{self.op}({', '.join(parts)})"


@dataclass(frozen=True, slots=True)
class MemRead(Expr):
    """Combinational read of memory ``mem`` at ``addr``.

    Memories in this IR have combinational read ports and synchronous write
    ports, which is what the CPU substrate needs (register file, data
    memory) and keeps the zero-delay cycle semantics simple.
    """

    mem: str
    addr: Expr
    typ: Type

    def __str__(self) -> str:
        return f"{self.mem}[{self.addr}]"


#: All primitive operation names understood by the simulator and emitter.
PRIM_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "rem",
        "lt", "leq", "gt", "geq", "eq", "neq",
        "and", "or", "xor", "not", "neg",
        "andr", "orr", "xorr",
        "cat", "bits", "pad",
        "shl", "shr", "dshl", "dshr",
        "mux", "as_uint", "as_sint",
    }
)

_BINARY_ARITH = {"add", "sub", "mul", "div", "rem"}
_COMPARISONS = {"lt", "leq", "gt", "geq", "eq", "neq"}
_BITWISE = {"and", "or", "xor"}
_REDUCTIONS = {"andr", "orr", "xorr"}


def _require_ground(e: Expr, what: str) -> None:
    if not e.typ.is_ground():
        raise TypeError(f"{what} requires a ground-typed operand, got {e.typ}")


def _arith_result(op: str, a: Expr, b: Expr) -> Type:
    wa, wb = a.width(), b.width()
    signed = is_signed(a.typ) or is_signed(b.typ)
    if op in ("add", "sub"):
        w = max(wa, wb) + 1
    elif op == "mul":
        w = wa + wb
    elif op == "div":
        w = wa + (1 if signed else 0)
    elif op == "rem":
        w = min(wa, wb)
    else:  # pragma: no cover - guarded by caller
        raise AssertionError(op)
    return SIntType(w) if signed else UIntType(w)


def binop(op: str, a: Expr, b: Expr) -> PrimOp:
    """Build a binary arithmetic / comparison / bitwise PrimOp with the
    inferred result type."""
    _require_ground(a, op)
    _require_ground(b, op)
    if op in _BINARY_ARITH:
        typ: Type = _arith_result(op, a, b)
    elif op in _COMPARISONS:
        typ = UIntType(1)
    elif op in _BITWISE:
        typ = UIntType(max(a.width(), b.width()))
    else:
        raise ValueError(f"unknown binary op {op!r}")
    return PrimOp(op, (a, b), (), typ)


def add(a: Expr, b: Expr) -> PrimOp:
    return binop("add", a, b)


def sub(a: Expr, b: Expr) -> PrimOp:
    return binop("sub", a, b)


def mul(a: Expr, b: Expr) -> PrimOp:
    return binop("mul", a, b)


def div(a: Expr, b: Expr) -> PrimOp:
    return binop("div", a, b)


def rem(a: Expr, b: Expr) -> PrimOp:
    return binop("rem", a, b)


def lt(a: Expr, b: Expr) -> PrimOp:
    return binop("lt", a, b)


def leq(a: Expr, b: Expr) -> PrimOp:
    return binop("leq", a, b)


def gt(a: Expr, b: Expr) -> PrimOp:
    return binop("gt", a, b)


def geq(a: Expr, b: Expr) -> PrimOp:
    return binop("geq", a, b)


def eq(a: Expr, b: Expr) -> PrimOp:
    return binop("eq", a, b)


def neq(a: Expr, b: Expr) -> PrimOp:
    return binop("neq", a, b)


def and_(a: Expr, b: Expr) -> PrimOp:
    return binop("and", a, b)


def or_(a: Expr, b: Expr) -> PrimOp:
    return binop("or", a, b)


def xor(a: Expr, b: Expr) -> PrimOp:
    return binop("xor", a, b)


def not_(a: Expr) -> PrimOp:
    """Bitwise complement; result is UInt of the same width."""
    _require_ground(a, "not")
    return PrimOp("not", (a,), (), UIntType(a.width()))


def neg(a: Expr) -> PrimOp:
    """Arithmetic negation; result is SInt one bit wider."""
    _require_ground(a, "neg")
    return PrimOp("neg", (a,), (), SIntType(a.width() + 1))


def reduce_op(op: str, a: Expr) -> PrimOp:
    if op not in _REDUCTIONS:
        raise ValueError(f"unknown reduction {op!r}")
    _require_ground(a, op)
    return PrimOp(op, (a,), (), UIntType(1))


def andr(a: Expr) -> PrimOp:
    return reduce_op("andr", a)


def orr(a: Expr) -> PrimOp:
    return reduce_op("orr", a)


def xorr(a: Expr) -> PrimOp:
    return reduce_op("xorr", a)


def cat(a: Expr, b: Expr) -> PrimOp:
    """Concatenation; ``a`` becomes the high bits."""
    _require_ground(a, "cat")
    _require_ground(b, "cat")
    return PrimOp("cat", (a, b), (), UIntType(a.width() + b.width()))


def bits(a: Expr, hi: int, lo: int) -> PrimOp:
    """Static bit slice ``a[hi:lo]`` (inclusive); result is UInt."""
    _require_ground(a, "bits")
    if not 0 <= lo <= hi < a.width():
        raise ValueError(f"bits({hi},{lo}) out of range for width {a.width()}")
    return PrimOp("bits", (a,), (hi, lo), UIntType(hi - lo + 1))


def pad(a: Expr, width: int) -> PrimOp:
    """Pad (zero- or sign-extend) to at least ``width`` bits."""
    _require_ground(a, "pad")
    w = max(a.width(), width)
    return PrimOp("pad", (a,), (width,), ground_like(a.typ, w))


def shl(a: Expr, amount: int) -> PrimOp:
    _require_ground(a, "shl")
    if amount < 0:
        raise ValueError("shl amount must be non-negative")
    return PrimOp("shl", (a,), (amount,), ground_like(a.typ, a.width() + amount))


def shr(a: Expr, amount: int) -> PrimOp:
    _require_ground(a, "shr")
    if amount < 0:
        raise ValueError("shr amount must be non-negative")
    return PrimOp("shr", (a,), (amount,), ground_like(a.typ, max(a.width() - amount, 1)))


def dshl(a: Expr, b: Expr) -> PrimOp:
    """Dynamic left shift; result keeps the width of ``a`` (truncating)."""
    _require_ground(a, "dshl")
    _require_ground(b, "dshl")
    return PrimOp("dshl", (a, b), (), ground_like(a.typ, a.width()))


def dshr(a: Expr, b: Expr) -> PrimOp:
    """Dynamic right shift (arithmetic for SInt); width of ``a``."""
    _require_ground(a, "dshr")
    _require_ground(b, "dshr")
    return PrimOp("dshr", (a, b), (), ground_like(a.typ, a.width()))


def mux(cond: Expr, tval: Expr, fval: Expr) -> PrimOp:
    """2:1 multiplexer.  Operand types must agree in signedness; the result
    width is the max of the two data operands."""
    _require_ground(cond, "mux")
    _require_ground(tval, "mux")
    _require_ground(fval, "mux")
    if cond.width() != 1:
        raise TypeError(f"mux condition must be 1 bit, got {cond.typ}")
    if is_signed(tval.typ) != is_signed(fval.typ):
        raise TypeError(f"mux operand signedness mismatch: {tval.typ} vs {fval.typ}")
    typ = ground_like(tval.typ, max(tval.width(), fval.width()))
    return PrimOp("mux", (cond, tval, fval), (), typ)


def as_uint(a: Expr) -> PrimOp:
    _require_ground(a, "as_uint")
    return PrimOp("as_uint", (a,), (), UIntType(a.width()))


def as_sint(a: Expr) -> PrimOp:
    _require_ground(a, "as_sint")
    return PrimOp("as_sint", (a,), (), SIntType(a.width()))


def uint(value: int, width: int) -> Literal:
    return Literal(value, UIntType(width))


def sint(value: int, width: int) -> Literal:
    return Literal(value, SIntType(width))


def sub_field(expr: Expr, name: str) -> SubField:
    if not isinstance(expr.typ, BundleType):
        raise TypeError(f"subfield on non-bundle type {expr.typ}")
    return SubField(expr, name, expr.typ.field(name).typ)


def sub_index(expr: Expr, index: int) -> SubIndex:
    if not isinstance(expr.typ, VecType):
        raise TypeError(f"subindex on non-vec type {expr.typ}")
    if not 0 <= index < expr.typ.size:
        raise IndexError(f"index {index} out of range for {expr.typ}")
    return SubIndex(expr, index, expr.typ.elem)


def map_expr(e: Expr, fn) -> Expr:
    """Rebuild ``e`` with ``fn`` applied to each *child* expression.

    ``fn`` is applied bottom-up by callers that recurse; this helper only
    handles one level, preserving node identity when nothing changed.
    """
    if isinstance(e, PrimOp):
        new_args = tuple(fn(a) for a in e.args)
        if new_args == e.args:
            return e
        return PrimOp(e.op, new_args, e.params, e.typ)
    if isinstance(e, SubField):
        new = fn(e.expr)
        return e if new is e.expr else SubField(new, e.name, e.typ)
    if isinstance(e, SubIndex):
        new = fn(e.expr)
        return e if new is e.expr else SubIndex(new, e.index, e.typ)
    if isinstance(e, MemRead):
        new = fn(e.addr)
        return e if new is e.addr else MemRead(e.mem, new, e.typ)
    return e


def walk_expr(e: Expr):
    """Yield ``e`` and all sub-expressions, pre-order."""
    yield e
    if isinstance(e, PrimOp):
        for a in e.args:
            yield from walk_expr(a)
    elif isinstance(e, (SubField, SubIndex)):
        yield from walk_expr(e.expr)
    elif isinstance(e, MemRead):
        yield from walk_expr(e.addr)


def expr_refs(e: Expr) -> set[str]:
    """Names of all Refs (and memories) an expression reads."""
    out: set[str] = set()
    for node in walk_expr(e):
        if isinstance(node, Ref):
            out.add(node.name)
        elif isinstance(node, MemRead):
            out.add(node.mem)
    return out
