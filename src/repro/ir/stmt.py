"""IR statements, modules, and circuits.

The High form may contain :class:`Conditionally` (``when``) blocks, bundle
and vec typed declarations, and multiple last-connect-wins ``Connect``
statements per sink.  The Low form — produced by ``LowerTypes`` +
``ExpandWhens`` — contains only ground types and exactly one driving
expression per sink, which is what the simulator compiles and the Verilog
emitter prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Expr, Ref, SubField, SubIndex
from .source import UNKNOWN, SourceInfo
from .types import Type


class Stmt:
    """Base class of all IR statements."""

    info: SourceInfo


@dataclass(frozen=True, slots=True)
class DefWire(Stmt):
    """Declare a combinational wire."""

    name: str
    typ: Type
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class DefRegister(Stmt):
    """Declare a register clocked by ``clock``.

    If ``reset`` is given, the register synchronously loads ``init`` while
    reset is asserted at the clock edge.
    """

    name: str
    typ: Type
    clock: Expr
    reset: Expr | None = None
    init: Expr | None = None
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class DefNode(Stmt):
    """Declare a named immutable intermediate value (FIRRTL ``node``)."""

    name: str
    value: Expr
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class DefMemory(Stmt):
    """Declare a memory with combinational read and synchronous write.

    ``init`` optionally preloads contents (used for instruction ROMs).
    """

    name: str
    typ: Type  # element type, must be ground
    depth: int
    init: tuple[int, ...] | None = None
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class DefInstance(Stmt):
    """Instantiate child module ``module`` under the name ``name``."""

    name: str
    module: str
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class Connect(Stmt):
    """Drive ``loc`` with ``expr``.  Last connect wins within a scope; a
    connect under a ``when`` only applies when the condition holds."""

    loc: Expr
    expr: Expr
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class MemWrite(Stmt):
    """Synchronous memory write, qualified by enable ``en``."""

    mem: str
    addr: Expr
    data: Expr
    en: Expr
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class Stop(Stmt):
    """Halt simulation with ``exit_code`` when ``cond`` holds at a clock
    edge (like Verilog ``$finish`` guarded by a condition)."""

    cond: Expr
    exit_code: int = 0
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class Printf(Stmt):
    """Print at clock edge when ``cond`` holds; ``fmt`` uses ``{}`` holes
    filled with ``args`` values."""

    cond: Expr
    fmt: str
    args: tuple[Expr, ...] = ()
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class Conditionally(Stmt):
    """A ``when (pred) { conseq } otherwise { alt }`` block (High form only)."""

    pred: Expr
    conseq: Block
    alt: Block
    info: SourceInfo = UNKNOWN


@dataclass(frozen=True, slots=True)
class Block:
    """An ordered sequence of statements."""

    stmts: tuple[Stmt, ...] = ()

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclass(frozen=True, slots=True)
class Port:
    """A module port."""

    name: str
    direction: str  # "input" | "output"
    typ: Type
    info: SourceInfo = UNKNOWN

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ValueError(f"bad port direction {self.direction!r}")


@dataclass(slots=True)
class ModuleIR:
    """A module definition: ports plus a body block."""

    name: str
    ports: list[Port]
    body: Block
    info: SourceInfo = UNKNOWN

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"module {self.name} has no port {name!r}")


@dataclass(frozen=True, slots=True)
class DontTouch:
    """Annotation protecting ``(module, name)`` from optimization — the
    debug-mode analog of gcc ``-O0`` described in paper Sec. 4.1."""

    module: str
    name: str


@dataclass(frozen=True, slots=True)
class NameHint:
    """Annotation mapping an RTL signal name to its source-level variable
    name — emitted by the generator frontend for versioned ``var`` bindings
    (``sum_0``/``sum_1`` -> ``sum`` in paper Listing 2)."""

    module: str
    rtl_name: str
    source_name: str


@dataclass(frozen=True, slots=True)
class GeneratorVar:
    """Annotation recording a generator-level (elaboration-time) variable of
    a module: a Python attribute such as a parameter.  ``value`` is either a
    constant rendered as text or an RTL signal name within the module."""

    module: str
    name: str
    value: str
    is_rtl: bool


@dataclass(slots=True)
class Circuit:
    """A set of modules with a designated ``main`` (top) module."""

    name: str
    modules: dict[str, ModuleIR]
    main: str
    annotations: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.main not in self.modules:
            raise ValueError(f"main module {self.main!r} not in circuit")

    @property
    def top(self) -> ModuleIR:
        return self.modules[self.main]

    def dont_touched(self, module: str) -> set[str]:
        return {
            a.name for a in self.annotations
            if isinstance(a, DontTouch) and a.module == module
        }


def root_ref(loc: Expr) -> Ref:
    """The underlying Ref of a connect target (peels SubField/SubIndex)."""
    e = loc
    while isinstance(e, (SubField, SubIndex)):
        e = e.expr
    if not isinstance(e, Ref):
        raise TypeError(f"connect target does not root at a Ref: {loc}")
    return e


def walk_stmts(block: Block):
    """Yield every statement in a block, recursing into Conditionally."""
    for s in block:
        yield s
        if isinstance(s, Conditionally):
            yield from walk_stmts(s.conseq)
            yield from walk_stmts(s.alt)
