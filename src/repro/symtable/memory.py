"""A symbol table held in plain Python objects.

:func:`in_memory` copies any :class:`SymbolTableInterface` once, through
the interface, into a :class:`MemorySymbolTable`: every breakpoint with
its scope, every instance with its generator variables, and the ``top``
and ``debug_mode`` attributes.  The copy holds no connection and takes no
lock, so one copy serves every session thread of the debug hub, and the
shard farm's workers inherit it through ``fork()``.  An SQLite connection
can do neither: it must not be carried across a fork (SQLite, "How To
Corrupt An SQLite Database File", Sec. 2.6).
"""

from __future__ import annotations

from .query import BreakpointRec, InstanceRec, SymbolTableInterface, VarRec

#: The attributes a copy keeps: the ones ``write_symbol_table`` writes.
ATTRIBUTES = ("top", "debug_mode")


def in_memory(table: SymbolTableInterface) -> MemorySymbolTable:
    """``table`` as a :class:`MemorySymbolTable`: a copy of it, or
    ``table`` itself when it already is one."""
    if isinstance(table, MemorySymbolTable):
        return table
    return MemorySymbolTable(table)


class MemorySymbolTable(SymbolTableInterface):
    """A read-only copy of ``table`` that answers every query as
    ``table`` does, from dicts built once.  Each list it returns is a
    fresh copy, so no caller can edit the table."""

    def __init__(self, table: SymbolTableInterface):
        self._breakpoints = table.all_breakpoints()  # scheduling order
        self._by_id = {bp.id: bp for bp in self._breakpoints}
        self._scopes = {
            bp.id: table.scope_variables(bp.id) for bp in self._breakpoints
        }
        self._instances = table.instances()
        self._generators = {
            inst.id: table.generator_variables(inst.id)
            for inst in self._instances
        }
        self._attributes = {name: table.attribute(name) for name in ATTRIBUTES}
        self._at: dict[tuple[str, int], list[BreakpointRec]] = {}
        for bp in sorted(
            self._breakpoints, key=lambda b: (b.column, b.instance_name, b.id)
        ):
            self._at.setdefault((bp.filename, bp.line), []).append(bp)
        self._lines: dict[str, list[int]] = {}
        for filename, line in sorted(self._at):
            self._lines.setdefault(filename, []).append(line)
        # A name's first binding wins, as the first row of a query does.
        self._scoped: dict[tuple[int, str], str] = {}
        for bp_id, scope in self._scopes.items():
            for var in scope:
                if var.is_rtl:
                    self._scoped.setdefault((bp_id, var.name), var.value)
        self._generator_by_name: dict[tuple[int, str], VarRec] = {}
        for inst_id, gvars in self._generators.items():
            for var in gvars:
                self._generator_by_name.setdefault((inst_id, var.name), var)
        #: Instance maps matched against this table, by the id of the
        #: hierarchy each is for: (a weak reference to it, the map).  Kept
        #: by :func:`repro.core.matching.instance_map`: a read-only table
        #: matches one hierarchy the same way every time.
        self.located: dict[int, tuple] = {}

    def breakpoints_at(self, filename, line, column=None) -> list[BreakpointRec]:
        found = self._at.get((filename, line), [])
        if column is None:
            return list(found)
        return [bp for bp in found if bp.column == column]

    def scope_variables(self, breakpoint_id) -> list[VarRec]:
        return list(self._scopes.get(breakpoint_id, ()))

    def resolve_scoped_var(self, breakpoint_id, name) -> str | None:
        return self._scoped.get((breakpoint_id, name))

    def resolve_instance_var(self, instance_id, name) -> VarRec | None:
        return self._generator_by_name.get((instance_id, name))

    def instances(self) -> list[InstanceRec]:
        return list(self._instances)

    def generator_variables(self, instance_id) -> list[VarRec]:
        return list(self._generators.get(instance_id, ()))

    def all_breakpoints(self) -> list[BreakpointRec]:
        return list(self._breakpoints)

    def breakpoint(self, breakpoint_id) -> BreakpointRec | None:
        return self._by_id.get(breakpoint_id)

    def filenames(self) -> list[str]:
        return list(self._lines)

    def breakpoint_lines(self, filename) -> list[int]:
        return list(self._lines.get(filename, ()))

    def attribute(self, name) -> str | None:
        return self._attributes.get(name)
