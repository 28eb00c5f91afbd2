"""Watchpoints: pause when a signal's value changes.

hgdb's breakpoint emulation checks state at every clock posedge; the same
hook supports *data* breakpoints — watch a source-level variable (resolved
through the symbol table, instance mapping applied) or a raw hierarchical
signal, with an optional condition on the old/new value.

Two per-cycle costs are compiled away (the same treatment breakpoint
conditions got in ``core/runtime.py``):

* the watched path is resolved to a value-table index at ``add()`` time on
  a live simulator, so each cycle reads ``values[idx]`` instead of hashing
  a hierarchical path through ``sim.get_value``;
* conditions are exec-compiled once into ``fn(old, new) -> int`` via
  :func:`repro.core.expr_eval.to_python` instead of tree-walked per change.

A condition that fails (an unknown name, a bad runtime value) no longer
silently drops hits forever: the watchpoint is marked *errored* — the error
is surfaced once through the debugger event path — and subsequent changes
report unconditionally, gdb-style.

Reverse execution: ``WatchStore.rewound`` re-primes every watchpoint's
``last`` value against the restored state after a ``set_time`` jump
(wired from the simulator's set-time callback through the runtime), so
rewinds neither report phantom changes nor miss real ones on re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.interface import SimulatorError
from . import expr_eval


@dataclass(slots=True)
class Watchpoint:
    """One watched signal."""

    id: int
    path: str                      # full simulator hierarchical path
    label: str                     # what the user asked to watch
    condition_ast: object | None = None
    condition_src: str | None = None
    last: int | None = None
    hit_count: int = 0
    index: int | None = None       # value-table index on a live simulator
    condition_fn: object | None = None   # compiled (old, new) -> int
    error: str | None = None       # first condition failure, surfaced once
    error_reported: bool = False


def _compile_condition(ast):
    """Compile a watch condition into ``fn(old, new) -> int``.

    Conditions may reference ``old``, ``new``, and ``value`` (an alias of
    ``new``); any other name is an :class:`~repro.core.expr_eval.ExprError`
    at compile time — the interpreter only discovered it on the first
    change.
    """

    def bind(name: str) -> str:
        if name in ("old", "new"):
            return name
        if name == "value":
            return "new"
        raise expr_eval.ExprError(f"unknown name {name!r}")

    return expr_eval.compile_fn(ast, bind, arg="old, new")


class WatchStore:
    """Owns watchpoints and detects value changes each cycle.

    ``sim`` (optional) enables the compiled fast path: on a live simulator
    watch paths resolve to value-table indices once, at :meth:`add` time,
    and per-cycle reads bind the value store's raw buffers (the narrow
    64-bit lanes, or the wide overflow dict for >64-bit signals).
    Backends without a value store (trace replay) fall back to per-cycle
    ``get_value`` lookups.
    """

    def __init__(self, sim=None):
        self._watch: dict[int, Watchpoint] = {}
        self._next_id = 1
        store = getattr(sim, "store", None)
        self._values = store.narrow if store is not None else None
        self._wide = store.wide if store is not None else None
        design = getattr(sim, "design", None)
        self._signal_index = getattr(design, "signal_index", None)

    def add(self, path: str, label: str, condition: str | None = None) -> Watchpoint:
        wp = Watchpoint(self._next_id, path, label)
        if condition:
            wp.condition_src = condition
            wp.condition_ast = expr_eval.parse(condition)  # parse errors raise
            try:
                wp.condition_fn = _compile_condition(wp.condition_ast)
            except expr_eval.ExprError as exc:
                wp.error = (
                    f"watchpoint condition {condition!r} failed: {exc}"
                )
        if self._signal_index is not None:
            wp.index = self._signal_index.get(path)
        self._watch[wp.id] = wp
        self._next_id += 1
        return wp

    def remove(self, wp_id: int) -> bool:
        return self._watch.pop(wp_id, None) is not None

    def clear(self) -> None:
        self._watch.clear()

    def __len__(self) -> int:
        return len(self._watch)

    def __iter__(self):
        return iter(self._watch.values())

    def _read(self, sim, wp: Watchpoint):
        if wp.index is not None and self._values is not None:
            if self._wide and wp.index in self._wide:
                return self._wide[wp.index]
            return self._values[wp.index]
        return sim.get_value(wp.path)

    def changed(self, sim) -> list[tuple[Watchpoint, int, int]]:
        """(watchpoint, old, new) for every watched signal that changed.

        The first observation primes ``last`` without reporting a change.
        A condition failure marks the watchpoint errored (reported once by
        the runtime) and the change is still delivered; later changes on an
        errored watchpoint report unconditionally.
        """
        out: list[tuple[Watchpoint, int, int]] = []
        for wp in self._watch.values():
            value = self._read(sim, wp)
            last = wp.last
            if last is None:
                wp.last = value
                continue
            if value != last:
                wp.last = value
                if wp.condition_fn is not None and wp.error is None:
                    try:
                        if not wp.condition_fn(last, value):
                            continue
                    except (expr_eval.ExprError, ValueError, OverflowError) as exc:
                        wp.error = (
                            f"watchpoint condition {wp.condition_src!r} "
                            f"failed: {exc}"
                        )
                wp.hit_count += 1
                out.append((wp, last, value))
        return out

    def rewound(self, sim) -> None:
        """Re-prime every ``last`` value after a time jump.

        Called (via the runtime's set-time callback) once the backend has
        restored state: comparing the restored value against a pre-jump
        ``last`` would report a phantom change — or mask a real one on
        re-execution.
        """
        for wp in self._watch.values():
            try:
                wp.last = self._read(sim, wp)
            except SimulatorError:
                wp.last = None
