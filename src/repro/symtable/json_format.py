"""JSON symbol table interchange format.

The real hgdb accepts symbol tables as JSON as well as SQLite, so hardware
generator frameworks can emit debug information without linking SQLite —
only the *interface* is fixed (paper Sec. 3.4: "a minimum set of primitives
that can be easily provided by each HGF").

Schema (one JSON object)::

    {
      "version": 1,
      "generator": "repro",
      "top": "FpuCmp",
      "debug_mode": false,
      "instances": [{"name": "FpuCmp", "module": "FpuCmp",
                     "variables": [{"name": "width", "value": "16", "rtl": false}]}],
      "breakpoints": [{"filename": "...", "line": 42, "column": 0,
                       "instance": "FpuCmp", "node": "_ssa_exc_0",
                       "sink": "exc", "enable": "...", "enable_src": "...",
                       "scope": [{"name": "rm", "value": "rm", "rtl": true}]}]
    }

``load_json`` builds a :class:`~repro.symtable.memory.MemorySymbolTable`
from it, and raises :class:`JsonFormatError`, naming the field, for a
document that does not follow the schema; ``dump_json`` exports any table.
Round-tripping is lossless — enforced by tests.
"""

from __future__ import annotations

import json

from .memory import MemorySymbolTable, Rows
from .query import BreakpointRec, InstanceRec, SymbolTableInterface, VarRec

FORMAT_VERSION = 1


def dump_json(table: SymbolTableInterface) -> str:
    """Serialize a symbol table into the JSON interchange format."""
    instances = []
    for inst in table.instances():
        instances.append(
            {
                "name": inst.name,
                "module": inst.module,
                "variables": [
                    {"name": v.name, "value": v.value, "rtl": v.is_rtl}
                    for v in table.generator_variables(inst.id)
                ],
            }
        )
    breakpoints = []
    for bp in table.all_breakpoints():
        breakpoints.append(
            {
                "filename": bp.filename,
                "line": bp.line,
                "column": bp.column,
                "instance": bp.instance_name,
                "node": bp.node,
                "sink": bp.sink,
                "enable": bp.enable,
                "enable_src": bp.enable_src,
                "scope": [
                    {"name": v.name, "value": v.value, "rtl": v.is_rtl}
                    for v in table.scope_variables(bp.id)
                ],
            }
        )
    doc = {
        "version": FORMAT_VERSION,
        "generator": "repro",
        "top": table.top_name(),
        "debug_mode": table.attribute("debug_mode") == "1",
        "instances": instances,
        "breakpoints": breakpoints,
    }
    return json.dumps(doc, indent=1)


class JsonFormatError(Exception):
    """Raised on malformed JSON symbol tables."""


_REQUIRED = object()
_KINDS = {str: "a string", int: "an integer", bool: "true or false", list: "a list"}


def _field(obj: dict, key: str, kind: type, at: str, default=_REQUIRED):
    """``obj[key]``, a JSON value of ``kind``, or ``default`` when it is
    absent or null.  ``at`` is ``obj``'s path in the document."""
    value = obj.get(key)
    if value is None and default is _REQUIRED:
        raise JsonFormatError(f"{at}{key} is missing")
    if value is None:
        return default
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise JsonFormatError(f"{at}{key} must be {_KINDS[kind]}, not {value!r}")
    return value


def _objects(obj: dict, key: str, at: str):
    """Each object listed at ``obj[key]``, if any, with its path."""
    for n, item in enumerate(_field(obj, key, list, at, [])):
        if not isinstance(item, dict):
            raise JsonFormatError(f"{at}{key}[{n}] must be an object, not {item!r}")
        yield f"{at}{key}[{n}].", item


def _variables(owner: int, obj: dict, key: str, at: str) -> list:
    """(``owner``, variable) for each variable listed at ``obj[key]``."""
    out = []
    for vat, var in _objects(obj, key, at):
        name, value = _field(var, "name", str, vat), _field(var, "value", str, vat)
        out.append((owner, VarRec(name, value, _field(var, "rtl", bool, vat, True))))
    return out


def load_json(text: str) -> MemorySymbolTable:
    """Build a queryable symbol table from the JSON interchange format.
    Instances and breakpoints are numbered from 1, in document order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "top" not in doc or "instances" not in doc:
        raise JsonFormatError("missing required keys (top, instances)")
    if _field(doc, "version", int, "", FORMAT_VERSION) > FORMAT_VERSION:
        raise JsonFormatError(f"unsupported format version {doc['version']}")
    debug_mode = int(_field(doc, "debug_mode", bool, "", False))
    attributes = {"top": _field(doc, "top", str, ""), "debug_mode": str(debug_mode)}

    instances: list[InstanceRec] = []
    generator_variables: list[tuple[int, VarRec]] = []
    for at, inst in _objects(doc, "instances", ""):
        iid = len(instances) + 1
        name = _field(inst, "name", str, at)
        instances.append(InstanceRec(iid, name, _field(inst, "module", str, at, "")))
        generator_variables += _variables(iid, inst, "variables", at)
    instance_ids = {inst.name: inst.id for inst in instances}

    breakpoints: list[BreakpointRec] = []
    scope_variables: list[tuple[int, VarRec]] = []
    for at, bp in _objects(doc, "breakpoints", ""):
        instance = _field(bp, "instance", str, at)
        if instance not in instance_ids:
            raise JsonFormatError(f"{at}instance names unknown instance {instance!r}")
        bp_id = len(breakpoints) + 1
        breakpoints.append(
            BreakpointRec(
                id=bp_id,
                instance_id=instance_ids[instance],
                instance_name=instance,
                filename=_field(bp, "filename", str, at),
                line=_field(bp, "line", int, at),
                column=_field(bp, "column", int, at, 0),
                node=_field(bp, "node", str, at, ""),
                sink=_field(bp, "sink", str, at, ""),
                enable=_field(bp, "enable", str, at, None),
                enable_src=_field(bp, "enable_src", str, at, None),
            )
        )
        scope_variables += _variables(bp_id, bp, "scope", at)
    return MemorySymbolTable(
        Rows(attributes, instances, breakpoints, generator_variables, scope_variables)
    )


def load_json_file(path: str) -> MemorySymbolTable:
    """Load a JSON symbol table from disk."""
    with open(path) as f:
        return load_json(f.read())
