"""Stack frame reconstruction (paper Sec. 3.2 step 3, Fig. 4A).

When a breakpoint hits, hgdb rebuilds a source-level frame per concurrent
instance ("thread"): local variables from the breakpoint's scope (with the
SSA context mapping applied), generator variables from the instance, and
structured variables reassembled from flattened RTL signals — "the IO ports
are represented as a Chisel PortBundle, as one would expect from the source
code" (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.interface import SimulatorError, SimulatorInterface
from ..symtable.query import BreakpointRec, SymbolTableInterface


@dataclass(slots=True)
class VariableView:
    """One variable in a frame; aggregates carry children instead of a
    value."""

    name: str
    value: int | str | None = None
    rtl: str | None = None
    children: list[VariableView] = field(default_factory=list)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.children)

    def flatten(self, prefix: str = "") -> list[tuple[str, int | str | None]]:
        """(dotted name, value) pairs for display/testing."""
        label = f"{prefix}.{self.name}" if prefix else self.name
        if not self.children:
            return [(label, self.value)]
        out = []
        for c in self.children:
            out.extend(c.flatten(label))
        return out

    def child(self, name: str) -> VariableView | None:
        for c in self.children:
            if c.name == name:
                return c
        return None

    def to_dict(self) -> dict:
        if self.children:
            return {
                "name": self.name,
                "children": [c.to_dict() for c in self.children],
            }
        return {"name": self.name, "value": self.value, "rtl": self.rtl}

    @classmethod
    def from_dict(cls, rec: dict) -> VariableView:
        """Rebuild a view from its :meth:`to_dict` form — how debugger
        front ends render frames that crossed the hub wire."""
        if "children" in rec:
            return cls(
                rec["name"],
                children=[cls.from_dict(c) for c in rec["children"]],
            )
        return cls(rec["name"], value=rec.get("value"), rtl=rec.get("rtl"))


@dataclass(slots=True)
class Frame:
    """A reconstructed stack frame for one instance at one breakpoint."""

    breakpoint: BreakpointRec
    instance_path: str            # full simulator path of the instance
    time: int
    local_vars: list[VariableView] = field(default_factory=list)
    generator_vars: list[VariableView] = field(default_factory=list)

    def var(self, dotted: str) -> int | str | None:
        """Look up a (possibly nested) local variable value by dotted name."""
        parts = _split_dotted(dotted)
        pool = self.local_vars
        node: VariableView | None = None
        for p in parts:
            node = next((v for v in pool if v.name == p), None)
            if node is None:
                return None
            pool = node.children
        return node.value if node else None

    def to_dict(self) -> dict:
        return {
            "breakpoint_id": self.breakpoint.id,
            "instance": self.instance_path,
            "filename": self.breakpoint.filename,
            "line": self.breakpoint.line,
            "time": self.time,
            "local": [v.to_dict() for v in self.local_vars],
            "generator": [v.to_dict() for v in self.generator_vars],
        }


def _split_dotted(name: str) -> list[str]:
    """Split ``a.b[2].c`` into ``["a", "b", "[2]", "c"]``."""
    parts: list[str] = []
    for chunk in name.split("."):
        while "[" in chunk:
            head, _, rest = chunk.partition("[")
            idx, _, chunk = rest.partition("]")
            if head:
                parts.append(head)
            parts.append(f"[{idx}]")
            if not chunk:
                break
        else:
            if chunk:
                parts.append(chunk)
    return parts


def build_variable_tree(
    bindings: list[tuple[str, int | str | None, str | None]]
) -> list[VariableView]:
    """Reassemble structured variables from flattened bindings.

    ``bindings`` is a list of (dotted name, value, rtl path).  Dotted names
    sharing prefixes become nested :class:`VariableView` aggregates — the
    bundle reconstruction of paper Sec. 4.2.
    """
    return _assemble(
        [(_split_dotted(dotted), value, rtl) for dotted, value, rtl in bindings]
    )


def _assemble(bindings) -> list[VariableView]:
    """:func:`build_variable_tree` over names already split into parts."""
    roots: list[VariableView] = []

    def get_child(pool: list[VariableView], name: str) -> VariableView:
        for v in pool:
            if v.name == name:
                return v
        v = VariableView(name)
        pool.append(v)
        return v

    for parts, value, rtl in bindings:
        pool = roots
        for p in parts[:-1]:
            node = get_child(pool, p)
            pool = node.children
        leaf = get_child(pool, parts[-1])
        leaf.value = value
        leaf.rtl = rtl
    return roots


#: One planned variable: its dotted name split into parts, its full RTL
#: path (None for a constant), and its RTL-local name or constant text.
_PlanVar = tuple[tuple[str, ...], str | None, str]


@dataclass(frozen=True, slots=True)
class _FramePlan:
    """What every frame of one breakpoint reads."""

    instance_path: str
    local_vars: tuple[_PlanVar, ...]
    generator_vars: tuple[_PlanVar, ...]


class FrameBuilder:
    """Builds frames by joining symbol table scope info with live values.

    The first frame of a breakpoint fetches its scope variables, and its
    instance's generator variables, once: the resulting plan keeps each
    variable's split name and joined RTL path, with generator variables
    shared by every breakpoint of the instance.  Later hits only read leaf
    values through ``sim.get_value``, so a hit costs no symbol-table
    query — which matters when the table sits behind RPC.  Plans rely on
    the table being read-only while a runtime is attached (see
    :class:`~repro.symtable.query.SymbolTableInterface`).
    """

    def __init__(
        self,
        symtable: SymbolTableInterface,
        sim: SimulatorInterface,
        instance_map: dict[str, str],
    ):
        self.symtable = symtable
        self.sim = sim
        self.instance_map = instance_map
        self._plans: dict[int, _FramePlan] = {}
        self._generator_plans: dict[int, tuple[_PlanVar, ...]] = {}

    def rtl_path(self, instance_name: str, local: str) -> str:
        base = self.instance_map.get(instance_name, instance_name)
        return f"{base}.{local}"

    def _plan_vars(self, instance_name: str, variables) -> tuple[_PlanVar, ...]:
        return tuple(
            (
                tuple(_split_dotted(var.name)),
                self.rtl_path(instance_name, var.value) if var.is_rtl else None,
                var.value,
            )
            for var in variables
        )

    def _plan(self, bp: BreakpointRec) -> _FramePlan:
        local_vars = self._plan_vars(
            bp.instance_name, self.symtable.scope_variables(bp.id)
        )
        generator_vars = self._generator_plans.get(bp.instance_id)
        if generator_vars is None:
            generator_vars = self._generator_plans[bp.instance_id] = (
                self._plan_vars(
                    bp.instance_name,
                    self.symtable.generator_variables(bp.instance_id),
                )
            )
        plan = self._plans[bp.id] = _FramePlan(
            self.instance_map.get(bp.instance_name, bp.instance_name),
            local_vars,
            generator_vars,
        )
        return plan

    def _tree(self, planned: tuple[_PlanVar, ...]) -> list[VariableView]:
        get_value = self.sim.get_value
        bindings = []
        for parts, path, text in planned:
            if path is None:
                bindings.append((parts, text, None))
                continue
            try:
                value = get_value(path)
            except SimulatorError:
                value = None
            bindings.append((parts, value, text))
        return _assemble(bindings)

    def build(self, bp: BreakpointRec, time: int) -> Frame:
        plan = self._plans.get(bp.id)
        if plan is None:
            plan = self._plan(bp)
        return Frame(
            breakpoint=bp,
            instance_path=plan.instance_path,
            time=time,
            local_vars=self._tree(plan.local_vars),
            generator_vars=self._tree(plan.generator_vars),
        )
