"""repro.symtable — the hgdb symbol table.

SQLite schema per paper Fig. 3; generation from compiled designs (Algorithm
1); native and RPC-backed query interfaces (Fig. 1), and an in-memory copy
of either that threads share and forked processes inherit.
"""

from .json_format import JsonFormatError, dump_json, load_json, load_json_file
from .memory import MemorySymbolTable, in_memory
from .query import (
    BreakpointRec,
    InstanceRec,
    SQLiteSymbolTable,
    SymbolTableInterface,
    VarRec,
)
from .rpc import RPCSymbolTable, SymbolTableServer
from .schema import create_schema, open_symbol_db
from .writer import write_symbol_table

__all__ = [
    "BreakpointRec",
    "JsonFormatError",
    "dump_json",
    "load_json",
    "load_json_file",
    "InstanceRec",
    "MemorySymbolTable",
    "RPCSymbolTable",
    "SQLiteSymbolTable",
    "SymbolTableInterface",
    "SymbolTableServer",
    "VarRec",
    "create_schema",
    "in_memory",
    "open_symbol_db",
    "write_symbol_table",
]
