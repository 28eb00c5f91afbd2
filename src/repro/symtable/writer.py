"""Symbol table generation — paper Algorithm 1.

:func:`symbol_table` builds the table of a compiled :class:`repro.Design`
(whose ``DebugInfo`` already survived the optimize-then-collect pipeline)
in memory; :func:`write_symbol_table` writes it as the SQLite file of
Fig. 3.  A module instantiated N times yields N breakpoints per source
statement — the concurrent hardware "threads" of Fig. 4B.
"""

from __future__ import annotations

import sqlite3
from operator import attrgetter

from ..ir.stmt import Circuit, DefInstance, GeneratorVar, walk_stmts
from .memory import MemorySymbolTable, Rows
from .query import BreakpointRec, InstanceRec, VarRec
from .schema import open_symbol_db

#: A debug entry's breakpoint fields, after its id and instance.
_ENTRY_FIELDS = attrgetter(
    "info.filename", "info.line", "info.column", "node", "sink", "enable", "enable_src"
)


def _instances(circuit: Circuit, path: str, module: str):
    """(hierarchical path, module name) of ``module`` at ``path`` and of
    every instance under it, depth first: rooted at the main module's name,
    the *partial view* the symbol table has (Sec. 3.4)."""
    yield path, module
    for s in walk_stmts(circuit.modules[module].body):
        if isinstance(s, DefInstance):
            yield from _instances(circuit, f"{path}.{s.name}", s.module)


def _rows(design) -> Rows:
    """Algorithm 1: the records of a compiled design's table, with
    instances and breakpoints numbered from 1 in traversal order."""
    circuit: Circuit = design.low
    top = circuit.main
    instances = [
        InstanceRec(iid, path, module)
        for iid, (path, module) in enumerate(_instances(circuit, top, top), 1)
    ]
    module_instances: dict[str, list[InstanceRec]] = {}
    for inst in instances:
        module_instances.setdefault(inst.module, []).append(inst)

    # Generator variables: one per (annotation, instance of module).
    generator_variables = [
        (inst.id, VarRec(ann.name, ann.value, ann.is_rtl))
        for ann in design.high.annotations
        if isinstance(ann, GeneratorVar)
        for inst in module_instances.get(ann.module, ())
    ]

    # Breakpoints + scope variables (a module optimized out of the
    # hierarchy has no instance, so no breakpoint).  A scope holds every
    # module-level source variable, with the entry's SSA ``var_map``
    # taking precedence (the context-dependent mapping of paper Listing 2).
    breakpoints: list[BreakpointRec] = []
    scope_variables: list[tuple[int, VarRec]] = []
    for module_name, mod_debug in design.debug_info.modules.items():
        module_vars = [
            VarRec(name, rtl, True)
            for name, rtl in mod_debug.variables.items()
            if not name.startswith("_")
        ]
        for entry in mod_debug.entries:
            scope = [VarRec(name, rtl, True) for name, rtl in entry.var_map.items()]
            scope += [var for var in module_vars if var.name not in entry.var_map]
            fields = _ENTRY_FIELDS(entry)
            for inst in module_instances.get(module_name, ()):
                bp_id = len(breakpoints) + 1
                breakpoints.append(BreakpointRec(bp_id, inst.id, inst.name, *fields))
                scope_variables += [(bp_id, var) for var in scope]

    attributes = {"top": top, "debug_mode": str(int(design.result.debug_mode))}
    return Rows(
        attributes, instances, breakpoints, generator_variables, scope_variables
    )


def symbol_table(design) -> MemorySymbolTable:
    """A compiled design's symbol table (it reads ``.low``,
    ``.debug_info`` and the High-form generator-variable annotations)."""
    return MemorySymbolTable(_rows(design))


def write_symbol_table(design, path: str = ":memory:") -> sqlite3.Connection:
    """Write a compiled design's symbol table to ``path`` (a file or
    ``":memory:"``) in the Fig. 3 schema."""
    return write_sqlite(_rows(design), path)


#: A breakpoint's values, in the ``breakpoint`` table's column order.
_BREAKPOINT_ROW = attrgetter(
    *"id instance_id filename line column node sink enable enable_src".split()
)


def write_sqlite(rows: Rows, path: str = ":memory:") -> sqlite3.Connection:
    """Write a table's records into the Fig. 3 schema, ids kept.  The
    ``variable`` rows are numbered from 1: generator variables first,
    then scope variables."""
    generators, scopes = rows.generator_variables, rows.scope_variables
    conn = open_symbol_db(path)
    with conn:
        conn.executemany("INSERT INTO attribute VALUES (?, ?)", rows.attributes.items())
        conn.executemany(
            "INSERT INTO instance VALUES (?, ?, ?)",
            [(i.id, i.name, i.module) for i in rows.instances],
        )
        conn.executemany(
            "INSERT INTO variable VALUES (?, ?, ?)",
            [
                (vid, var.value, int(var.is_rtl))  # an int binds faster than a bool
                for vid, (_, var) in enumerate(generators + scopes, 1)
            ],
        )
        conn.executemany(
            "INSERT INTO generator_variable VALUES (?, ?, ?)",
            [(iid, vid, var.name) for vid, (iid, var) in enumerate(generators, 1)],
        )
        conn.executemany(
            "INSERT INTO breakpoint VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            map(_BREAKPOINT_ROW, rows.breakpoints),
        )
        conn.executemany(
            "INSERT INTO scope_variable VALUES (?, ?, ?)",
            [
                (bp_id, vid, var.name)
                for vid, (bp_id, var) in enumerate(scopes, len(generators) + 1)
            ],
        )
    return conn
