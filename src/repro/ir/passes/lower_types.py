"""LowerTypes: flatten aggregate (bundle/vec) types to ground signals.

Mirrors FIRRTL's LowerTypes pass.  A port ``io: {a: UInt<8>, flip b:
UInt<8>}`` becomes two ports ``io_a`` (same direction) and ``io_b``
(flipped).  Bulk connects between same-shaped aggregates expand field-wise,
honoring flips.  The pass records a per-module *rename map* (flat RTL name →
original dotted name) which the symbol table later uses to reconstruct
structured variables from flattened RTL signals (paper Sec. 4.2: "hgdb has
the ability to reconstruct structured variables from a list of flattened RTL
signals").
"""

from __future__ import annotations

from ..debug import DebugInfo
from ..expr import (
    Expr,
    Literal,
    MemRead,
    PrimOp,
    Ref,
    SubField,
    SubIndex,
)
from ..stmt import (
    Block,
    Circuit,
    Conditionally,
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    MemWrite,
    ModuleIR,
    Port,
    Printf,
    Stmt,
    Stop,
    walk_stmts,
)
from ..types import BundleType, Type, VecType


class LowerTypesError(Exception):
    """Raised on malformed aggregate usage."""


def type_leaves(typ: Type, flip: bool = False):
    """Yield ``(suffix_parts, ground_type, flipped)`` for every ground leaf
    of a type, depth-first in declaration order."""
    if typ.is_ground():
        yield (), typ, flip
        return
    if isinstance(typ, BundleType):
        for f in typ.fields:
            for parts, gt, fl in type_leaves(f.typ, flip ^ f.flip):
                yield (f.name, *parts), gt, fl
        return
    if isinstance(typ, VecType):
        for i in range(typ.size):
            for parts, gt, fl in type_leaves(typ.elem, flip):
                yield (str(i), *parts), gt, fl
        return
    raise LowerTypesError(f"cannot lower type {typ}")


def flat_name(root: str, parts: tuple[str, ...]) -> str:
    return "_".join((root, *parts)) if parts else root


def dotted_name(root: str, parts: tuple[str, ...]) -> str:
    out = root
    for p in parts:
        out += f"[{p}]" if p.isdigit() else f".{p}"
    return out


def _path_parts(e: Expr) -> tuple[str, tuple[str, ...]]:
    """Decompose a path expression into (root name, suffix parts)."""
    parts: list[str] = []
    cur = e
    while True:
        if isinstance(cur, Ref):
            return cur.name, tuple(reversed(parts))
        if isinstance(cur, SubField):
            parts.append(cur.name)
            cur = cur.expr
        elif isinstance(cur, SubIndex):
            parts.append(str(cur.index))
            cur = cur.expr
        else:
            raise LowerTypesError(f"not a path expression: {e}")


def _is_path(e: Expr) -> bool:
    while isinstance(e, (SubField, SubIndex)):
        e = e.expr
    return isinstance(e, Ref)


class _ModuleLowerer:
    """Lowers one module given the already-lowered ports of child modules."""

    def __init__(
        self,
        module: ModuleIR,
        child_ports: dict[str, list[Port]],
        debug: DebugInfo,
    ):
        self.module = module
        self.child_ports = child_ports
        self.debug = debug.module(module.name)
        # name -> ("port"|"wire"|"reg"|"node"|"mem"|"inst", original type)
        self.decls: dict[str, tuple[str, Type]] = {}
        # instance name -> child module name
        self.instances: dict[str, str] = {}
        self._scan_decls()

    def _scan_decls(self) -> None:
        for p in self.module.ports:
            self.decls[p.name] = ("port", p.typ)
        for s in walk_stmts(self.module.body):
            if isinstance(s, DefWire):
                self.decls[s.name] = ("wire", s.typ)
            elif isinstance(s, DefRegister):
                self.decls[s.name] = ("reg", s.typ)
            elif isinstance(s, DefNode):
                self.decls[s.name] = ("node", s.value.typ)
            elif isinstance(s, DefMemory):
                self.decls[s.name] = ("mem", s.typ)
            elif isinstance(s, DefInstance):
                self.instances[s.name] = s.module
                self.decls[s.name] = ("inst", self._instance_type(s.module))

    def _instance_type(self, child_module: str) -> BundleType:
        from ..types import Field

        ports = self.child_ports[child_module]
        return BundleType(
            tuple(
                Field(p.name, p.typ, flip=(p.direction == "input"))
                for p in ports
            )
        )

    # -- expression lowering -------------------------------------------

    def lower_expr(self, e: Expr) -> Expr:
        if isinstance(e, Literal):
            return e
        if isinstance(e, (Ref, SubField, SubIndex)) and _is_path(e):
            return self._lower_path(e)
        if isinstance(e, PrimOp):
            return PrimOp(e.op, tuple(self.lower_expr(a) for a in e.args), e.params, e.typ)
        if isinstance(e, MemRead):
            return MemRead(e.mem, self.lower_expr(e.addr), e.typ)
        raise LowerTypesError(f"cannot lower expression {e!r}")

    def _lower_path(self, e: Expr) -> Expr:
        root, parts = _path_parts(e)
        if root in self.instances:
            # inst.port.sub -> SubField(Ref(inst), "port_sub")
            if not parts:
                raise LowerTypesError(f"raw instance reference {root!r}")
            inst_typ = self._instance_type(self.instances[root])
            port = "_".join(parts)
            return SubField(Ref(root, inst_typ), port, inst_typ.field(port).typ)
        if not parts:
            kind, typ = self.decls.get(root, (None, None))
            if typ is None:
                raise LowerTypesError(
                    f"unknown name {root!r} in module {self.module.name}"
                )
            return Ref(root, typ)
        return Ref(flat_name(root, parts), e.typ)

    # -- statement lowering --------------------------------------------

    def lower_module(self) -> ModuleIR:
        ports = self._lower_ports()
        body = self._lower_block(self.module.body)
        return ModuleIR(self.module.name, ports, body, self.module.info)

    def _lower_ports(self) -> list[Port]:
        out: list[Port] = []
        for p in self.module.ports:
            for parts, gt, flipped in type_leaves(p.typ):
                direction = p.direction
                if flipped:
                    direction = "output" if direction == "input" else "input"
                fname = flat_name(p.name, parts)
                out.append(Port(fname, direction, gt, p.info))
                self._record_rename(fname, dotted_name(p.name, parts))
        return out

    def _record_rename(self, flat: str, dotted: str) -> None:
        self.debug.rename_map[flat] = dotted
        self.debug.variables[dotted] = flat

    def _lower_block(self, block: Block) -> Block:
        out: list[Stmt] = []
        for s in block:
            out.extend(self._lower_stmt(s))
        return Block(tuple(out))

    def _lower_stmt(self, s: Stmt) -> list[Stmt]:
        if isinstance(s, DefWire):
            return [
                self._record_and(
                    DefWire(flat_name(s.name, parts), gt, s.info),
                    dotted_name(s.name, parts),
                )
                for parts, gt, _fl in type_leaves(s.typ)
            ]
        if isinstance(s, DefRegister):
            clock = self.lower_expr(s.clock)
            reset = self.lower_expr(s.reset) if s.reset is not None else None
            leaves = list(type_leaves(s.typ))
            if (
                len(leaves) > 1
                and s.init is not None
                and not (isinstance(s.init, Literal) and s.init.value == 0)
            ):
                raise LowerTypesError(
                    f"aggregate register {s.name!r} init must be literal 0"
                )
            out = []
            for parts, gt, _fl in leaves:
                init = None
                if s.init is not None:
                    init = (
                        Literal(0, gt)
                        if len(leaves) > 1
                        else self.lower_expr(s.init)
                    )
                out.append(
                    self._record_and(
                        DefRegister(flat_name(s.name, parts), gt, clock, reset, init, s.info),
                        dotted_name(s.name, parts),
                    )
                )
            return out
        if isinstance(s, DefNode):
            if not s.value.typ.is_ground():
                raise LowerTypesError(f"node {s.name!r} must be ground-typed")
            self._record_rename(s.name, s.name)
            return [DefNode(s.name, self.lower_expr(s.value), s.info)]
        if isinstance(s, DefMemory):
            if not s.typ.is_ground():
                raise LowerTypesError(f"memory {s.name!r} must have ground element type")
            self._record_rename(s.name, s.name)
            return [s]
        if isinstance(s, DefInstance):
            return [s]
        if isinstance(s, Connect):
            return self._lower_connect(s)
        if isinstance(s, Conditionally):
            return [
                Conditionally(
                    self.lower_expr(s.pred),
                    self._lower_block(s.conseq),
                    self._lower_block(s.alt),
                    s.info,
                )
            ]
        if isinstance(s, MemWrite):
            return [
                MemWrite(
                    s.mem,
                    self.lower_expr(s.addr),
                    self.lower_expr(s.data),
                    self.lower_expr(s.en),
                    s.info,
                )
            ]
        if isinstance(s, Stop):
            return [Stop(self.lower_expr(s.cond), s.exit_code, s.info)]
        if isinstance(s, Printf):
            return [
                Printf(
                    self.lower_expr(s.cond),
                    s.fmt,
                    tuple(self.lower_expr(a) for a in s.args),
                    s.info,
                )
            ]
        raise LowerTypesError(f"cannot lower statement {s!r}")

    def _record_and(self, stmt, dotted: str):
        self._record_rename(stmt.name, dotted)
        return stmt

    def _lower_connect(self, s: Connect) -> list[Stmt]:
        if s.loc.typ.is_ground():
            return [Connect(self.lower_expr(s.loc), self.lower_expr(s.expr), s.info)]
        # Bulk connect: both sides must be path expressions of the same shape.
        if not _is_path(s.loc) or not _is_path(s.expr):
            raise LowerTypesError(f"bulk connect requires path expressions: {s.loc} <= {s.expr}")
        out: list[Stmt] = []
        for parts, gt, flipped in type_leaves(s.loc.typ):
            lhs = self._extend_path(s.loc, parts, gt)
            rhs = self._extend_path(s.expr, parts, gt)
            if flipped:
                lhs, rhs = rhs, lhs
            out.append(Connect(self.lower_expr(lhs), self.lower_expr(rhs), s.info))
        return out

    def _extend_path(self, base: Expr, parts: tuple[str, ...], gt: Type) -> Expr:
        cur = base
        for i, p in enumerate(parts):
            last = i == len(parts) - 1
            typ = gt if last else _peel_type(cur.typ, p)
            cur = (
                SubIndex(cur, int(p), typ)
                if p.isdigit() and isinstance(cur.typ, VecType)
                else SubField(cur, p, typ)
            )
        return cur


def _peel_type(typ: Type, part: str) -> Type:
    if isinstance(typ, BundleType):
        return typ.field(part).typ
    if isinstance(typ, VecType):
        return typ.elem
    raise LowerTypesError(f"cannot select {part!r} from {typ}")


def _module_deps(m: ModuleIR) -> list[str]:
    """The modules ``m`` instantiates, in statement order: a set's order
    would follow string hashing, and with it every breakpoint id."""
    return list(
        dict.fromkeys(
            s.module for s in walk_stmts(m.body) if isinstance(s, DefInstance)
        )
    )


def lower_types(circuit: Circuit, debug: DebugInfo) -> Circuit:
    """Flatten aggregates across the whole circuit (children first)."""
    order: list[str] = []
    visited: set[str] = set()

    def visit(name: str) -> None:
        if name in visited:
            return
        visited.add(name)
        for dep in _module_deps(circuit.modules[name]):
            visit(dep)
        order.append(name)

    for name in circuit.modules:
        visit(name)

    lowered: dict[str, ModuleIR] = {}
    child_ports: dict[str, list[Port]] = {}
    for name in order:
        lo = _ModuleLowerer(circuit.modules[name], child_ports, debug)
        m = lo.lower_module()
        lowered[name] = m
        child_ports[name] = m.ports

    # Absorb frontend name hints (versioned `var` bindings) so ExpandWhens
    # and the symbol table can map RTL node names back to source variables.
    from ..stmt import NameHint

    for a in circuit.annotations:
        if isinstance(a, NameHint):
            mi = debug.module(a.module)
            mi.rename_map[a.rtl_name] = a.source_name
            mi.variables[a.source_name] = a.rtl_name

    # Preserve original module ordering.
    result = {name: lowered[name] for name in circuit.modules}
    return Circuit(circuit.name, result, circuit.main, list(circuit.annotations))
