"""The unified symbol table interface (paper Sec. 3.4).

The paper defines four primitives every HGF-provided symbol table must
answer; :class:`SymbolTableInterface` states them, and
:class:`SQLiteSymbolTable` is the native (ABI) implementation over the
Fig. 3 schema.  ``repro.symtable.rpc`` provides the RPC-backed variant for
frameworks that host their own symbol tables.

* get breakpoints from source location   -> :meth:`breakpoints_at`
* get scope information for a breakpoint -> :meth:`scope_variables`
* resolve scoped variable name to RTL    -> :meth:`resolve_scoped_var`
* resolve instance variable name to RTL  -> :meth:`resolve_instance_var`
"""

from __future__ import annotations

import sqlite3
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .schema import open_symbol_db


@dataclass(frozen=True, slots=True)
class BreakpointRec:
    """One emulatable breakpoint (a source statement in one instance)."""

    id: int
    instance_id: int
    instance_name: str
    filename: str
    line: int
    column: int
    node: str
    sink: str
    enable: str | None
    enable_src: str | None

    def order_key(self) -> tuple[str, int, int, str]:
        """Scheduling order (paper Sec. 3.2): lexical order then instance."""
        return (self.filename, self.line, self.column, self.instance_name)


@dataclass(frozen=True, slots=True)
class VarRec:
    """A variable binding: name -> RTL signal (or constant text)."""

    name: str
    value: str
    is_rtl: bool


@dataclass(frozen=True, slots=True)
class InstanceRec:
    id: int
    name: str
    module: str


class SymbolTableInterface(ABC):
    """The four primitives of paper Sec. 3.4 plus enumeration helpers.

    A table is read-only while a :class:`~repro.core.Runtime` is attached
    to it: every query must keep returning the same answer.  Frame plans
    rely on this (:class:`~repro.core.frames.FrameBuilder`): what a
    breakpoint's frames show is fetched at its first hit and never
    queried again.
    """

    @abstractmethod
    def breakpoints_at(
        self, filename: str, line: int, column: int | None = None
    ) -> list[BreakpointRec]:
        """Translate a source location into concrete breakpoints."""

    @abstractmethod
    def scope_variables(self, breakpoint_id: int) -> list[VarRec]:
        """Variables visible in a breakpoint's scope (frame construction)."""

    @abstractmethod
    def resolve_scoped_var(self, breakpoint_id: int, name: str) -> str | None:
        """Scoped variable name -> RTL name (None if not in scope)."""

    @abstractmethod
    def resolve_instance_var(self, instance_id: int, name: str) -> VarRec | None:
        """Instance (generator) variable name -> RTL name or constant."""

    # -- enumeration helpers used by the runtime -------------------------

    @abstractmethod
    def instances(self) -> list[InstanceRec]:
        """All instances in the symbol table's (partial) hierarchy."""

    @abstractmethod
    def generator_variables(self, instance_id: int) -> list[VarRec]:
        """All generator variables of an instance (paper Fig. 4A)."""

    @abstractmethod
    def all_breakpoints(self) -> list[BreakpointRec]:
        """Every breakpoint, in scheduling order."""

    @abstractmethod
    def breakpoint(self, breakpoint_id: int) -> BreakpointRec | None:
        """Look up one breakpoint by id."""

    @abstractmethod
    def filenames(self) -> list[str]:
        """Source files that contain breakpoints."""

    @abstractmethod
    def breakpoint_lines(self, filename: str) -> list[int]:
        """Lines of ``filename`` that have at least one breakpoint."""

    @abstractmethod
    def attribute(self, name: str) -> str | None:
        """Free-form metadata (e.g. ``top``, ``debug_mode``)."""

    def top_name(self) -> str:
        top = self.attribute("top")
        if top is None:
            raise ValueError("symbol table missing 'top' attribute")
        return top


def _bp_from_row(row) -> BreakpointRec:
    return BreakpointRec(
        id=row["id"],
        instance_id=row["instance_id"],
        instance_name=row["iname"],
        filename=row["filename"],
        line=row["line_num"],
        column=row["column_num"],
        node=row["node"],
        sink=row["sink"],
        enable=row["enable"],
        enable_src=row["enable_src"],
    )


_BP_SELECT = (
    "SELECT b.*, i.name AS iname FROM breakpoint b"
    " JOIN instance i ON i.id = b.instance_id"
)


class SQLiteSymbolTable(SymbolTableInterface):
    """Native symbol table over the Fig. 3 SQLite schema."""

    def __init__(self, conn_or_path):
        self.conn = (
            conn_or_path
            if isinstance(conn_or_path, sqlite3.Connection)
            else open_symbol_db(conn_or_path)
        )
        self.conn.row_factory = sqlite3.Row

    def breakpoints_at(self, filename, line, column=None) -> list[BreakpointRec]:
        sql = _BP_SELECT + " WHERE b.filename = ? AND b.line_num = ?"
        params: list = [filename, line]
        if column is not None:
            sql += " AND b.column_num = ?"
            params.append(column)
        sql += " ORDER BY b.column_num, i.name, b.id"
        return [_bp_from_row(r) for r in self.conn.execute(sql, params)]

    def scope_variables(self, breakpoint_id) -> list[VarRec]:
        rows = self.conn.execute(
            "SELECT sv.name, v.value, v.is_rtl FROM scope_variable sv"
            " JOIN variable v ON v.id = sv.variable_id"
            " WHERE sv.breakpoint_id = ? ORDER BY sv.rowid",
            (breakpoint_id,),
        )
        return [VarRec(r["name"], r["value"], bool(r["is_rtl"])) for r in rows]

    def resolve_scoped_var(self, breakpoint_id, name) -> str | None:
        row = self.conn.execute(
            "SELECT v.value FROM scope_variable sv"
            " JOIN variable v ON v.id = sv.variable_id"
            " WHERE sv.breakpoint_id = ? AND sv.name = ? AND v.is_rtl = 1",
            (breakpoint_id, name),
        ).fetchone()
        return row["value"] if row else None

    def resolve_instance_var(self, instance_id, name) -> VarRec | None:
        row = self.conn.execute(
            "SELECT gv.name, v.value, v.is_rtl FROM generator_variable gv"
            " JOIN variable v ON v.id = gv.variable_id"
            " WHERE gv.instance_id = ? AND gv.name = ?",
            (instance_id, name),
        ).fetchone()
        if row is None:
            return None
        return VarRec(row["name"], row["value"], bool(row["is_rtl"]))

    def instances(self) -> list[InstanceRec]:
        rows = self.conn.execute("SELECT id, name, module FROM instance ORDER BY id")
        return [InstanceRec(r["id"], r["name"], r["module"]) for r in rows]

    def generator_variables(self, instance_id) -> list[VarRec]:
        rows = self.conn.execute(
            "SELECT gv.name, v.value, v.is_rtl FROM generator_variable gv"
            " JOIN variable v ON v.id = gv.variable_id"
            " WHERE gv.instance_id = ? ORDER BY gv.rowid",
            (instance_id,),
        )
        return [VarRec(r["name"], r["value"], bool(r["is_rtl"])) for r in rows]

    def all_breakpoints(self) -> list[BreakpointRec]:
        rows = self.conn.execute(
            _BP_SELECT + " ORDER BY b.filename, b.line_num, b.column_num, i.name, b.id"
        )
        return [_bp_from_row(r) for r in rows]

    def breakpoint(self, breakpoint_id) -> BreakpointRec | None:
        row = self.conn.execute(
            _BP_SELECT + " WHERE b.id = ?", (breakpoint_id,)
        ).fetchone()
        return _bp_from_row(row) if row else None

    def filenames(self) -> list[str]:
        rows = self.conn.execute("SELECT DISTINCT filename FROM breakpoint ORDER BY 1")
        return [r["filename"] for r in rows]

    def breakpoint_lines(self, filename) -> list[int]:
        rows = self.conn.execute(
            "SELECT DISTINCT line_num FROM breakpoint WHERE filename = ? ORDER BY 1",
            (filename,),
        )
        return [r["line_num"] for r in rows]

    def attribute(self, name) -> str | None:
        row = self.conn.execute(
            "SELECT value FROM attribute WHERE name = ?", (name,)
        ).fetchone()
        return row["value"] if row else None
