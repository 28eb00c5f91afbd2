"""Breakpoint storage and the Fig. 2 scheduling order.

Breakpoints are totally ordered by lexical position — "(filename, line,
column)" — and all breakpoints sharing one source location form a
*scheduling group*: the concurrent hardware threads of Fig. 4B.  The
scheduler owns insertion/removal and per-breakpoint condition evaluation;
the runtime walks groups forward (normal debugging) or backward
(intra-cycle reverse debugging, Sec. 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..symtable.query import BreakpointRec, SymbolTableInterface
from . import expr_eval


@dataclass(slots=True)
class InsertedBreakpoint:
    """A user-inserted breakpoint: symbol table record + parsed conditions.

    ``hit_count`` counts condition-passing evaluations; ``ignore_count``
    (gdb's ``ignore N``) suppresses that many hits before stopping.
    ``wake`` is the runtime's cache slot for the enable∧condition wake term
    (None = not yet computed, False = no exact form).
    """

    rec: BreakpointRec
    enable_ast: object | None = None
    condition_ast: object | None = None
    condition_src: str | None = None
    hit_count: int = 0
    ignore_count: int = 0
    wake: object = None

    @property
    def id(self) -> int:
        return self.rec.id


GroupKey = tuple[str, int, int]


def group_key(rec: BreakpointRec) -> GroupKey:
    return (rec.filename, rec.line, rec.column)


@dataclass(slots=True)
class Group:
    """All breakpoints sharing one source location.

    ``compiled`` is the runtime's cache slot for the group's batched
    condition evaluator (None = not yet compiled, False = fall back to the
    tree-walking interpreter); it is reset whenever group membership or a
    member's conditions change.
    """

    key: GroupKey
    breakpoints: list[InsertedBreakpoint] = field(default_factory=list)
    compiled: object = None


class Scheduler:
    """Owns inserted breakpoints and produces scheduling groups.

    ``groups(all_bps=True)`` returns groups over *every* symbol table
    breakpoint (used by step/step-back, where execution pauses at each
    potential source statement); ``all_bps=False`` restricts to inserted
    breakpoints (used by continue).
    """

    def __init__(self, symtable: SymbolTableInterface):
        self.symtable = symtable
        self.inserted: dict[int, InsertedBreakpoint] = {}
        self._all_cache: list[Group] | None = None
        self._ins_cache: list[Group] | None = None

    # -- insertion -----------------------------------------------------------

    def _invalidate(self) -> None:
        # Rebuilding the inserted-group table produces fresh Group objects,
        # which also discards their compiled condition closures; the
        # all-breakpoints cache repairs itself (and resets `compiled`) in
        # _all_groups.
        self._ins_cache = None

    def insert(self, rec: BreakpointRec, condition: str | None = None) -> InsertedBreakpoint:
        enable_ast = expr_eval.parse(rec.enable) if rec.enable else None
        cond_ast = expr_eval.parse(condition) if condition else None
        bp = InsertedBreakpoint(rec, enable_ast, cond_ast, condition)
        self.inserted[rec.id] = bp
        self._invalidate()
        return bp

    def remove(self, bp_id: int) -> bool:
        removed = self.inserted.pop(bp_id, None) is not None
        if removed:
            self._invalidate()
        return removed

    def clear(self) -> None:
        self.inserted.clear()
        self._invalidate()

    def __len__(self) -> int:
        return len(self.inserted)

    # -- grouping -------------------------------------------------------------

    def groups(self, all_bps: bool = False) -> list[Group]:
        """Scheduling groups in ascending lexical order.

        Both group tables are cached between breakpoint mutations — the
        runtime calls this every armed cycle, and rebuilding/re-sorting per
        call dominated the scheduling loop.
        """
        if all_bps:
            return self._all_groups()
        if self._ins_cache is None:
            table: dict[GroupKey, Group] = {}
            # A snapshot: another thread may insert or remove meanwhile.
            for bp in list(self.inserted.values()):
                key = group_key(bp.rec)
                table.setdefault(key, Group(key)).breakpoints.append(bp)
            self._ins_cache = [table[k] for k in sorted(table)]
        return self._ins_cache

    def _all_groups(self) -> list[Group]:
        if self._all_cache is None:
            table: dict[GroupKey, Group] = {}
            for rec in self.symtable.all_breakpoints():
                ibp = self.inserted.get(rec.id)
                if ibp is None:
                    ibp = InsertedBreakpoint(
                        rec, expr_eval.parse(rec.enable) if rec.enable else None
                    )
                key = group_key(rec)
                table.setdefault(key, Group(key)).breakpoints.append(ibp)
            self._all_cache = [table[k] for k in sorted(table)]
        else:
            # Refresh condition ASTs for breakpoints inserted since caching.
            for g in self._all_cache:
                for i, bp in enumerate(g.breakpoints):
                    live = self.inserted.get(bp.rec.id)
                    if live is not None and live is not bp:
                        g.breakpoints[i] = live
                        g.compiled = None
        return self._all_cache
