"""Stack frame reconstruction (paper Sec. 3.2 step 3, Fig. 4A).

When a breakpoint hits, hgdb rebuilds a source-level frame per concurrent
instance ("thread"): local variables from the breakpoint's scope (with the
SSA context mapping applied), generator variables from the instance, and
structured variables reassembled from flattened RTL signals — "the IO ports
are represented as a Chisel PortBundle, as one would expect from the source
code" (Sec. 4.2).
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, slots=True)
class FramePlan:
    """What every frame of one breakpoint reads, and how it renders.

    ``local`` and ``generator`` are the frame's variable trees with every
    value replaced by a slot: a node is ``(name, slot, rtl, children)``,
    and slot ``k`` takes the ``k``-th of the values read at a hit (in
    ``paths`` order) followed by ``constants``.  :meth:`record` renders
    :meth:`Frame.to_dict` from the values alone; a plan crosses the hub
    wire once per breakpoint (:meth:`to_wire`, without ``paths``).
    """

    breakpoint_id: int
    instance: str
    filename: str
    line: int
    local: tuple
    generator: tuple
    constants: tuple = ()
    #: the full RTL paths the values are read from (reading side only)
    paths: tuple[str, ...] = ()

    def record(self, values, time: int) -> dict:
        """``Frame.to_dict()`` of the frame ``values`` make."""
        vals = (*values, *self.constants)
        return {
            "breakpoint_id": self.breakpoint_id,
            "instance": self.instance,
            "filename": self.filename,
            "line": self.line,
            "time": time,
            "local": _dicts(self.local, vals),
            "generator": _dicts(self.generator, vals),
        }

    def to_wire(self) -> dict:
        rec = {f: getattr(self, f) for f in self.__dataclass_fields__}
        del rec["paths"]
        return rec


def _dicts(nodes, vals) -> list[dict]:
    """:meth:`VariableView.to_dict` of each planned node."""
    return [
        {"name": name, "children": _dicts(children, vals)}
        if children
        else {"name": name, "value": vals[slot], "rtl": rtl}
        for name, slot, rtl, children in nodes
    ]


def _nodes(views: list[VariableView]) -> tuple:
    """A tree assembled with slots for values, as plan nodes."""
    return tuple((v.name, v.value, v.rtl, _nodes(v.children)) for v in views)


class FrameBuilder:
    """Builds frames by joining symbol table scope info with live values.

    The first frame of a breakpoint fetches its scope variables, and its
    instance's generator variables, once, into a :class:`FramePlan` (in
    :attr:`plans`, by breakpoint id); a runtime whose hits the native
    kernel records asks for the plan's :meth:`lanes` when the breakpoint
    is armed instead.  Later hits only read leaf values (:meth:`read`), so
    a hit costs no symbol-table query — which matters when the table sits
    behind RPC.  On a live ``Simulator`` a read indexes the value table
    directly; other backends answer ``sim.get_value``.  Plans rely on the table being read-only while a
    runtime is attached (see
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
        self.plans: dict[int, FramePlan] = {}
        self._generator_vars: dict[int, list] = {}
        # A live Simulator (a value store): reads index its store's
        # buffers, which it never rebinds.  By breakpoint id, the
        # narrow-lane index of each plan path (0 where the path is wide or
        # missing) and the (position, wide index or None) fixups.
        self._store = getattr(sim, "store", None)
        self._lanes: dict[int, tuple[tuple, tuple]] = {}

    def rtl_path(self, instance_name: str, local: str) -> str:
        base = self.instance_map.get(instance_name, instance_name)
        return f"{base}.{local}"

    def plan(self, bp: BreakpointRec) -> FramePlan:
        """``bp``'s frame plan, made at the first call."""
        plan = self.plans.get(bp.id)
        if plan is not None:
            return plan
        local = self.symtable.scope_variables(bp.id)
        generator = self._generator_vars.get(bp.instance_id)
        if generator is None:
            generator = self._generator_vars[bp.instance_id] = (
                self.symtable.generator_variables(bp.instance_id)
            )
        variables = (*local, *generator)
        paths = tuple(
            self.rtl_path(bp.instance_name, v.value) for v in variables if v.is_rtl
        )
        constants = tuple(v.value for v in variables if not v.is_rtl)
        # Slots number the values read (in paths order), then the constants.
        slots = {True: itertools.count(), False: itertools.count(len(paths))}

        def tree(variables) -> tuple:
            bindings = []
            for v in variables:
                rtl = v.value if v.is_rtl else None
                bindings.append((_split_dotted(v.name), next(slots[v.is_rtl]), rtl))
            return _nodes(_assemble(bindings))

        plan = self.plans[bp.id] = FramePlan(
            bp.id,
            self.instance_map.get(bp.instance_name, bp.instance_name),
            bp.filename,
            bp.line,
            tree(local),
            tree(generator),
            constants,
            paths,
        )
        return plan

    def lanes(self, bp: BreakpointRec) -> tuple | None:
        """The value-table lanes :meth:`read` reads for ``bp`` on a live
        ``Simulator``, in plan order (making the plan if need be); None on
        any other backend, or when a value is wider than 64 bits or names
        a signal the simulator does not have."""
        if self._store is None:
            return None
        narrow_idx, fixups = self._lanes_of(bp)
        return None if fixups else narrow_idx

    def _lanes_of(self, bp: BreakpointRec) -> tuple[tuple, tuple]:
        lanes = self._lanes.get(bp.id)
        if lanes is None:
            lanes = self._lanes[bp.id] = self._index(self.plan(bp).paths)
        return lanes

    def read(self, bp: BreakpointRec) -> list:
        """The leaf values of ``bp``'s frame now, in plan order (None for
        a signal the backend does not have)."""
        if self._store is not None:
            narrow_idx, fixups = self._lanes_of(bp)
            self.sim.flush()
            narrow = self._store.narrow
            values = [narrow[i] for i in narrow_idx]
            if fixups:
                wide = self._store.wide
                for pos, i in fixups:
                    values[pos] = None if i is None else wide[i]
            return values
        get_value = self.sim.get_value
        values = []
        for path in self.plan(bp).paths:
            try:
                values.append(get_value(path))
            except SimulatorError:
                values.append(None)
        return values

    def _index(self, paths) -> tuple[tuple, tuple]:
        """:meth:`read`'s value-table lanes for ``paths``."""
        index = self.sim.design.signal_index
        wide = self._store.wide
        narrow_idx, fixups = [], []
        for pos, path in enumerate(paths):
            i = index.get(path)
            if i is None or i in wide:
                fixups.append((pos, i))
                i = 0
            narrow_idx.append(i)
        return tuple(narrow_idx), tuple(fixups)

    def build(self, bp: BreakpointRec, time: int, values=None) -> Frame:
        """The frame of ``bp`` at ``time``, from the ``values`` :meth:`read`
        returned at the hit, or from the backend's values now."""
        plan = self.plan(bp)
        rec = plan.record(self.read(bp) if values is None else values, time)
        return Frame(
            breakpoint=bp,
            instance_path=plan.instance,
            time=time,
            local_vars=[VariableView.from_dict(v) for v in rec["local"]],
            generator_vars=[VariableView.from_dict(v) for v in rec["generator"]],
        )
