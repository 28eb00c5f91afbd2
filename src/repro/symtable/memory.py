"""The symbol table, held in plain Python objects.

Algorithm 1 (:func:`~repro.symtable.symbol_table`), the JSON loader and
:func:`in_memory` (a copy of any other table, through the interface) all
build a :class:`MemorySymbolTable` from a table's :class:`Rows`.  It holds
no connection and takes no lock, so one table serves every session thread
of the debug hub, and the shard farm's workers inherit it through
``fork()``.  An SQLite connection can do neither: it must not be carried
across a fork (SQLite, "How To Corrupt An SQLite Database File", Sec. 2.6).
"""

from __future__ import annotations

from typing import NamedTuple

from .query import BreakpointRec, InstanceRec, SymbolTableInterface, VarRec

#: The attributes a copy keeps: the ones ``write_symbol_table`` writes.
ATTRIBUTES = ("top", "debug_mode")


class Rows(NamedTuple):
    """A table's records: the Fig. 3 rows, each variable paired with the
    id of the instance or breakpoint that binds it.  Instances come in id
    order, and each owner's variables in binding order."""

    attributes: dict[str, str]
    instances: list[InstanceRec]
    breakpoints: list[BreakpointRec]
    generator_variables: list[tuple[int, VarRec]]
    scope_variables: list[tuple[int, VarRec]]


def in_memory(table: SymbolTableInterface) -> MemorySymbolTable:
    """``table`` as a :class:`MemorySymbolTable`: a copy of it, or
    ``table`` itself when it already is one."""
    if isinstance(table, MemorySymbolTable):
        return table
    instances, breakpoints = table.instances(), table.all_breakpoints()
    return MemorySymbolTable(
        Rows(
            {a: v for a in ATTRIBUTES if (v := table.attribute(a)) is not None},
            instances,
            breakpoints,
            [(i.id, v) for i in instances for v in table.generator_variables(i.id)],
            [(b.id, v) for b in breakpoints for v in table.scope_variables(b.id)],
        )
    )


class MemorySymbolTable(SymbolTableInterface):
    """A read-only table that answers every query as the SQLite file of
    its rows does, from dicts built once.  Each list it returns is a
    fresh copy, so no caller can edit the table."""

    def __init__(self, rows: Rows):
        #: The records this table answers from.
        self.rows = rows
        self._breakpoints = sorted(  # scheduling order
            rows.breakpoints, key=lambda b: (*b.order_key(), b.id)
        )
        self._by_id = {bp.id: bp for bp in rows.breakpoints}
        # Grouped in scheduling order: by column, instance name, id.
        self._at: dict[tuple[str, int], list[BreakpointRec]] = {}
        for bp in self._breakpoints:
            self._at.setdefault((bp.filename, bp.line), []).append(bp)
        self._lines: dict[str, list[int]] = {}
        for filename, line in self._at:
            self._lines.setdefault(filename, []).append(line)
        self._scopes: dict[int, list[VarRec]] = {}
        self._scoped: dict[tuple[int, str], str] = {}
        # A name's first binding wins, as the first row of a query does.
        for bp_id, var in rows.scope_variables:
            self._scopes.setdefault(bp_id, []).append(var)
            if var.is_rtl:
                self._scoped.setdefault((bp_id, var.name), var.value)
        self._generators: dict[int, list[VarRec]] = {}
        self._generator_by_name: dict[tuple[int, str], VarRec] = {}
        for inst_id, var in rows.generator_variables:
            self._generators.setdefault(inst_id, []).append(var)
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
        return list(self.rows.instances)

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
        return self.rows.attributes.get(name)
