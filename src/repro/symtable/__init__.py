"""repro.symtable — the hgdb symbol table.

Algorithm 1 builds a design's table in memory, where threads share it and
forked processes inherit it; SQLite (the Fig. 3 schema) and JSON are its
file formats.  Query interfaces (Fig. 1): in memory, native SQLite, RPC.
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
from .writer import symbol_table, write_symbol_table

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
    "symbol_table",
    "write_symbol_table",
]
