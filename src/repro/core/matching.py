"""Locating the generated IP inside the full simulated design (Sec. 3.4).

"Developers rarely use an HGF to generate the entire design and test bench
... hgdb only has a partial view of the final design and it needs a method
to locate the generated IP in the complete system during simulation."

The symbol table's instance tree is a subtree of the simulated hierarchy
with unchanged *relative* structure, so we search the simulator hierarchy
for a node whose descendants cover all symbol table instance paths, and
verify candidates by checking that known signal names actually exist.
"""

from __future__ import annotations

import weakref

from ..sim.interface import HierNode
from ..symtable.query import SymbolTableInterface


class MatchError(Exception):
    """Raised when the generated IP cannot be located in the design."""


def _relative_paths(symtable: SymbolTableInterface) -> list[str]:
    """Instance paths relative to the symbol table's top ('' = the top)."""
    top = symtable.top_name()
    out = []
    for inst in symtable.instances():
        if inst.name == top:
            out.append("")
        elif inst.name.startswith(top + "."):
            out.append(inst.name[len(top) + 1 :])
        else:
            out.append(inst.name)
    return out


def _signal_samples(symtable: SymbolTableInterface, limit: int = 32) -> list[tuple[str, str]]:
    """(relative instance path, local signal name) pairs for verification,
    drawn from breakpoint scope variables."""
    top = symtable.top_name()
    samples: list[tuple[str, str]] = []
    for bp in symtable.all_breakpoints()[:limit]:
        rel = ""
        if bp.instance_name.startswith(top + "."):
            rel = bp.instance_name[len(top) + 1 :]
        elif bp.instance_name != top:
            rel = bp.instance_name
        samples.append((rel, bp.node))
        if len(samples) >= limit:
            break
    return samples


def locate_instance(
    symtable: SymbolTableInterface, hierarchy: HierNode
) -> dict[str, str]:
    """Map symbol table instance names to simulator hierarchical paths.

    Returns e.g. ``{"FPU": "TestHarness.dut.fpu", "FPU.dcmp": "...": ...}``.
    Raises :class:`MatchError` when no consistent placement exists.
    """
    rel_paths = _relative_paths(symtable)
    samples = _signal_samples(symtable)
    top = symtable.top_name()

    def signal_exists(node: HierNode, local: str) -> bool:
        return any(s.name == local for s in node.signals)

    best: tuple[int, int, HierNode] | None = None  # (score, -depth, node)
    for candidate in hierarchy.walk():
        # Structural check: every relative instance path must exist.
        ok = True
        for rel in rel_paths:
            target = candidate.path if not rel else f"{candidate.path}.{rel}"
            if hierarchy.find(target) is None:
                ok = False
                break
        if not ok:
            continue
        # Verification: count how many sampled signals resolve.
        score = 0
        for rel, local in samples:
            target = candidate.path if not rel else f"{candidate.path}.{rel}"
            node = hierarchy.find(target)
            if node is not None and signal_exists(node, local):
                score += 1
        depth = candidate.path.count(".")
        key = (score, -depth, candidate)
        if best is None or (key[0], key[1]) > (best[0], best[1]):
            best = key

    if best is None:
        raise MatchError(
            f"could not locate generated IP {top!r} in the simulated design"
        )
    score, _, node = best
    if samples and score == 0:
        raise MatchError(
            f"hierarchy shape matched at {node.path!r} but no symbol table "
            "signals resolved there; wrong design?"
        )

    mapping: dict[str, str] = {}
    for inst in symtable.instances():
        if inst.name == top:
            mapping[inst.name] = node.path
        else:
            tail = (
                inst.name[len(top) + 1 :]
                if inst.name.startswith(top + ".")
                else inst.name
            )
            mapping[inst.name] = f"{node.path}.{tail}"
    return mapping


def instance_map(symtable: SymbolTableInterface, hierarchy: HierNode) -> dict[str, str]:
    """:func:`locate_instance`, matched once per hierarchy for a table that
    keeps its answers (a :class:`~repro.symtable.memory.MemorySymbolTable`'s
    ``located``) and every time for any other.  Each call returns a copy,
    so no caller can change the next one's map."""
    located = getattr(symtable, "located", None)
    if located is None:
        return locate_instance(symtable, hierarchy)
    key = id(hierarchy)
    found = located.get(key)
    # The weak reference proves the entry is this hierarchy's, not a
    # collected one's whose id it reuses; the entry goes with it.
    if found is None or found[0]() is not hierarchy:

        def forget(ref, key=key) -> None:
            if located.get(key, (None,))[0] is ref:
                del located[key]

        found = (weakref.ref(hierarchy, forget), locate_instance(symtable, hierarchy))
        located[key] = found
    return dict(found[1])
