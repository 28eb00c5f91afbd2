"""Compile a Low-form circuit into executable Python.

The design hierarchy is flattened into one global signal table (hierarchical
paths like ``Top.fpu.dcmp.io_a``), combinational assignments are
topologically sorted, and two Python functions are generated with ``exec``:

* ``comb(v, w, m)``  — settle all combinational logic (one pass, zero-delay);
* ``tick(v, w, m)``  — fire stops/printfs, apply memory writes, then update
  all registers two-phase.

``v`` is the *narrow* value buffer — one 64-bit lane per signal, pluggable
storage (``repro.sim.store``); ``w`` is the overflow dict for signals wider
than one lane, selected statically per signal at codegen time so the common
all-narrow design never touches it; ``m`` is the list of memory arrays.

A *journaling* ``tick`` variant additionally reports every memory word it
writes (delta snapshots).  Both the reference and the fast engine path run
the same ``tick``; after an edge the fast path re-settles only the
design's precomputed *tick cone* — every register's fanout plus every
memory-reading assignment — instead of the whole ``comb``.

This mirrors how compiled simulators (Verilator) work and keeps the
per-cycle cost low enough that the hgdb callback overhead (paper Fig. 5) is
measurable against realistic simulation work.  ``Simulator.run()`` goes
further when nothing observes single cycles: :mod:`repro.sim.native`
translates the same IR, which the design retains, into one C function
that runs many ticks and tick cones per call.  Clock callbacks still fire
from the next posedge: adding one sets the break flag that function
polls every cycle.

The generated code must agree with ``repro.ir.eval.eval_prim`` — property
tests enforce it.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field

try:
    import numpy as _np
except ImportError:  # the vector kernels are optional, like NumpyStore
    _np = None

from ..ir.eval import literal_raw
from ..ir.expr import Expr, Literal, MemRead, PrimOp, Ref, SubField
from ..ir.stmt import (
    Circuit,
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    MemWrite,
    Printf,
    Stop,
)
from ..ir.types import SIntType
from .interface import HierNode, SignalInfo, SimulationFinished, SimulatorError
from .store import LANE_BITS


class CombLoopError(SimulatorError):
    """Raised when the design contains a combinational cycle."""


def _lane_expr(index: int, wide_indices) -> str:
    """The buffer expression a signal is stored in: one 64-bit lane of the
    narrow buffer (``v``), or the wide overflow dict (``w``) for signals
    wider than one lane.  The single source of truth for the lane layout —
    every code generator goes through it."""
    return f"w[{index}]" if index in wide_indices else f"v[{index}]"


@dataclass(slots=True)
class RegisterSpec:
    index: int
    width: int
    next_code: str | None
    reset_index: int | None
    init_code: str | None
    # The IR behind the codes, resolved in the instance at ``path``.
    path: str = ""
    next_expr: Expr | None = None
    init_expr: Expr | None = None


@dataclass(slots=True)
class MemSpec:
    index: int
    path: str
    width: int
    depth: int
    init: tuple[int, ...] | None


@dataclass(slots=True)
class CompiledDesign:
    """Everything the engine needs to run the flattened design.

    Beyond the monolithic ``comb``/``tick`` functions (the reference path),
    the design carries enough per-assignment metadata — levelized topo order,
    dependency sets — to compile *fanout cones*: for any set of changed
    signals, a function that re-evaluates only the affected assignments in
    topo order.  Cones are computed and compiled lazily and cached, so a
    poke-heavy testbench pays for each distinct stimulus signal once.
    """

    circuit: Circuit
    signal_index: dict[str, int]
    signals: list[SignalInfo]
    mems: list[MemSpec]
    registers: list[RegisterSpec]
    comb: object                 # comb(v, w, m) -> None
    tick: object                 # tick(v, w, m, time) -> None
    comb_source: str
    tick_source: str
    hierarchy: HierNode
    clock_index: int
    reset_index: int
    top_inputs: dict[str, int]   # local input name -> signal index
    printf_specs: list[tuple[str, int]] = field(default_factory=list)
    mem_index: dict[str, int] = field(default_factory=dict)
    # Signals wider than one 64-bit storage lane: generated code reads and
    # writes them through the wide overflow dict (``w``), never ``v``.
    wide_indices: frozenset = frozenset()
    # journaling tick variant: tick_journal(v, w, m, time, _jw) additionally
    # calls _jw((mem_index, addr)) for every memory word it writes.
    tick_journal: object = None
    tick_journal_source: str = ""
    # Per-assignment metadata, aligned with the levelized topo order.
    order_targets: list[int] = field(default_factory=list)
    order_code: list[str] = field(default_factory=list)
    # The IR behind the generated code, as (instance path, IR) pairs for
    # the other code generators (:func:`compile_vector`,
    # :mod:`repro.sim.native`): the expression at every schedule position,
    # then the memory writes and the stops/printfs in statement order.
    order_exprs: list[tuple[str, Expr]] = field(default_factory=list)
    mem_writes: list[tuple[str, MemWrite]] = field(default_factory=list)
    effects: list[tuple[str, Stop | Printf]] = field(default_factory=list)
    order_deps: list[frozenset] = field(default_factory=list)
    order_reads_mem: list[bool] = field(default_factory=list)
    state_indices: tuple[int, ...] = ()
    namespace: dict = field(default_factory=dict)
    _pos_of_target: dict[int, int] = field(default_factory=dict)
    _tick_cone: object = False   # False = not yet built (None = empty cone)
    # Merged-cone machinery: per-seed fanout bitmasks over schedule
    # positions, a mask-keyed cache of compiled merged cones, and the
    # tick cone's mask.
    _seed_masks: dict = field(default_factory=dict)
    _mask_cones: dict = field(default_factory=dict)
    _tick_mask: int = -1         # -1 = not yet computed
    _pos_fns: list | None = None
    # Always-on cone-cache stats: plain ints bumped on the hot path (one
    # increment per settle — cheaper than any enabled-guard) and read
    # lazily by repro.obs collectors / Simulator.stats().
    stat_cone_hits: int = 0
    stat_cone_misses: int = 0
    stat_cone_fallbacks: int = 0
    # Many-worlds vector kernels, cached per world count (see
    # :func:`compile_vector`).
    _vector_kernels: dict = field(default_factory=dict)
    # The native free-run kernel (:mod:`repro.sim.native`), or why the
    # design runs in Python; None until the first eligible ``run()``.
    _native: object = None

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def lane_target(self, index: int) -> str:
        """Storage expression for a signal (see :func:`_lane_expr`)."""
        return _lane_expr(index, self.wide_indices)

    def initial_mems(self) -> list:
        """Fresh memory contents: an ``array('Q')`` per memory of at most
        64-bit words (the native kernel works on it in place), a list of
        ints per wider one."""
        out: list = []
        for spec in self.mems:
            data = [0] * spec.depth
            if spec.init:
                data[: len(spec.init)] = list(spec.init)
            out.append(array("Q", data) if spec.width <= LANE_BITS else data)
        return out

    # -- fanout cones (the dirty-set fast path) ---------------------------

    def cone_positions(
        self, seeds, include_mem_reads: bool = False
    ) -> tuple[int, ...]:
        """Topo-ordered assignment positions affected when ``seeds`` change.

        A seed that is itself combinationally driven includes its own driver
        (matching the reference path, where a forced value is recomputed —
        and thus restored — by the very next full ``comb``).  With
        ``include_mem_reads`` every memory-reading assignment is included as
        well (memory contents may have changed under it).
        """
        affected = set(seeds)
        pos_of = self._pos_of_target
        forced = {pos_of[s] for s in affected if s in pos_of}
        targets, deps = self.order_targets, self.order_deps
        reads_mem = self.order_reads_mem
        out = []
        for p in range(len(targets)):
            if (
                p in forced
                or (include_mem_reads and reads_mem[p])
                or not affected.isdisjoint(deps[p])
            ):
                out.append(p)
                affected.add(targets[p])
        return tuple(out)

    def compile_cone(self, positions) -> object:
        """Compile a cone (topo-ordered positions) into ``fn(v, w, m)``.

        Positions index into the levelized schedule, so emitting them in
        order yields a faithful subset of ``comb``.  Returns None for an
        empty cone.
        """
        if not positions:
            return None
        lines = ["def cone(v, w, m):"]
        lines.extend(
            f"    {self.lane_target(self.order_targets[p])} = {self.order_code[p]}"
            for p in positions
        )
        ns = dict(self.namespace)
        exec(compile("\n".join(lines), "<repro-sim-cone>", "exec"), ns)
        return ns["cone"]

    def tick_mask(self) -> int:
        """Bitmask (over schedule positions) of the tick cone: everything
        a clock edge can change — every register's fanout plus every
        memory-reading assignment.  Computed once per design; 0 when the
        design has neither registers nor memory reads."""
        if self._tick_mask < 0:
            regs = {spec.index for spec in self.registers}
            mask = 0
            for p in self.cone_positions(regs, include_mem_reads=True):
                mask |= 1 << p
            self._tick_mask = mask
        return self._tick_mask

    def tick_settle(self, v, w, m) -> None:
        """Re-settle after a clock edge: run the compiled tick cone.

        The whole cone, not just the changed registers' fanout: on the
        paper's RV32 suite 99.95% of edges change enough state to need
        all of it (``docs/performance.md`` §1)."""
        fn = self._tick_cone
        if fn is False:
            fn = self.compile_cone(self._mask_positions(self.tick_mask()))
            self._tick_cone = fn
        if fn is not None:
            fn(v, w, m)

    # -- merged cones (the lazy dirty-set fast path) ------------------------

    #: Distinct merged-cone functions cached before falling back to
    #: sequential per-seed cones (bounds exec-compile cost on designs whose
    #: per-cycle poke patterns never repeat).
    MASK_CONE_CAP = 512

    def seed_mask(self, seed: int) -> int:
        """Bitmask (over schedule positions) of one signal's fanout cone."""
        mask = self._seed_masks.get(seed)
        if mask is None:
            mask = 0
            for p in self.cone_positions((seed,)):
                mask |= 1 << p
            self._seed_masks[seed] = mask
        return mask

    def settle_seeds(self, v, w, m, seeds, after_tick: bool = False) -> None:
        """Re-settle the *union* cone of every changed seed in one pass.

        N driven inputs cost one levelized cone evaluation: the per-seed
        fanout masks are OR-ed and the merged mask keys a cache of
        compiled cone functions.  The union of per-seed cones is exactly
        the cone of the seed set (transitive fanout is monotone), and
        ascending positions remain a valid topo order.  With
        ``after_tick`` the tick cone joins the union, so a clock edge and
        the pokes that followed it settle as one merged cone.
        """
        mask = self.tick_mask() if after_tick else 0
        for s in seeds:
            mask |= self.seed_mask(s)
        self._run_mask(v, w, m, mask)

    def _run_mask(self, v, w, m, mask: int) -> None:
        if not mask:
            return
        fn = self._mask_cones.get(mask)
        if fn is not None:
            self.stat_cone_hits += 1
            fn(v, w, m)
            return
        if len(self._mask_cones) < self.MASK_CONE_CAP:
            self.stat_cone_misses += 1
            fn = self.compile_cone(self._mask_positions(mask))
            self._mask_cones[mask] = fn
            fn(v, w, m)
            return
        # Cache saturated (pathological poke variety that never
        # repeats): execute the merged cone through per-statement thunks —
        # one-time setup, no recurring exec-compiles, cost still linear in
        # the cone size rather than the full schedule.
        self.stat_cone_fallbacks += 1
        fns = self._pos_fns
        if fns is None:
            fns = self._build_pos_fns()
        p = 0
        while mask:
            if mask & 1:
                fns[p](v, w, m)
            mask >>= 1
            p += 1

    def _build_pos_fns(self) -> list:
        src = []
        ordered = zip(self.order_targets, self.order_code, strict=False)
        for i, (t, code) in enumerate(ordered):
            src.append(f"def _p{i}(v, w, m):\n    {self.lane_target(t)} = {code}")
        ns = dict(self.namespace)
        exec(compile("\n".join(src), "<repro-sim-pos>", "exec"), ns)
        fns = [ns[f"_p{i}"] for i in range(len(self.order_targets))]
        self._pos_fns = fns
        return fns

    @staticmethod
    def _mask_positions(mask: int) -> tuple[int, ...]:
        out = []
        p = 0
        while mask:
            if mask & 1:
                out.append(p)
            mask >>= 1
            p += 1
        return tuple(out)


def _sg(x: int, w: int) -> int:
    return x - (1 << w) if x & (1 << (w - 1)) else x


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _mins(x: int) -> int:
    return x if x < 256 else 256


class _Codegen:
    """Generates the raw/interpreted value code for IR expressions within
    one flattened instance context."""

    def __init__(
        self,
        path: str,
        signal_index: dict[str, int],
        mem_index: dict[str, int],
        mems: list[MemSpec],
        wide: frozenset,
    ):
        self.path = path
        self.signal_index = signal_index
        self.mem_index = mem_index
        self.mems = mems
        self.wide = wide

    def sig(self, local: str) -> int:
        key = f"{self.path}.{local}"
        idx = self.signal_index.get(key)
        if idx is None:
            raise SimulatorError(f"unknown signal {key}")
        return idx

    def lane(self, idx: int) -> str:
        """Storage expression for a signal (see :func:`_lane_expr`)."""
        return _lane_expr(idx, self.wide)

    def raw(self, e: Expr) -> str:
        if isinstance(e, Ref):
            return self.lane(self.sig(e.name))
        if isinstance(e, Literal):
            return str(literal_raw(e))
        if isinstance(e, SubField):
            inst = e.expr.name  # type: ignore[union-attr]
            return self.lane(self.sig(f"{inst}.{e.name}"))
        if isinstance(e, MemRead):
            mi = self.mem_index[f"{self.path}.{e.mem}"]
            depth = self.mems[mi].depth
            return f"m[{mi}][{self.raw(e.addr)} % {depth}]"
        if isinstance(e, PrimOp):
            return self._prim(e)
        raise SimulatorError(f"cannot compile expression {e!r}")

    def interp(self, e: Expr) -> str:
        if isinstance(e, Literal):
            return str(e.value)  # SInt literals are stored signed already
        if isinstance(e.typ, SIntType):
            return f"_sg({self.raw(e)}, {e.typ.width})"
        return self.raw(e)

    def _mask(self, code: str, e: PrimOp) -> str:
        return f"(({code}) & {(1 << e.typ.bit_width()) - 1})"

    def _prim(self, e: PrimOp) -> str:
        op = e.op
        rw = e.typ.bit_width()
        M = (1 << rw) - 1
        a = e.args
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            return f"(({self.interp(a[0])} {sym} {self.interp(a[1])}) & {M})"
        if op == "div":
            return f"(_div({self.interp(a[0])}, {self.interp(a[1])}) & {M})"
        if op == "rem":
            return f"(_rem({self.interp(a[0])}, {self.interp(a[1])}) & {M})"
        if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
            sym = {"lt": "<", "leq": "<=", "gt": ">", "geq": ">=", "eq": "==", "neq": "!="}[op]
            return f"(1 if {self.interp(a[0])} {sym} {self.interp(a[1])} else 0)"
        if op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            return f"(({self.interp(a[0])} {sym} {self.interp(a[1])}) & {M})"
        if op == "not":
            return f"((~{self.interp(a[0])}) & {M})"
        if op == "neg":
            return f"((-{self.interp(a[0])}) & {M})"
        if op == "andr":
            w = a[0].typ.bit_width()
            return f"(1 if {self.raw(a[0])} == {(1 << w) - 1} else 0)"
        if op == "orr":
            return f"(1 if {self.raw(a[0])} != 0 else 0)"
        if op == "xorr":
            return f"(({self.raw(a[0])}).bit_count() & 1)"
        if op == "cat":
            wb = a[1].typ.bit_width()
            return f"(({self.raw(a[0])} << {wb}) | {self.raw(a[1])})"
        if op == "bits":
            hi, lo = e.params
            m = (1 << (hi - lo + 1)) - 1
            if lo == 0:
                return f"({self.raw(a[0])} & {m})"
            return f"(({self.raw(a[0])} >> {lo}) & {m})"
        if op == "pad":
            return f"({self.interp(a[0])} & {M})"
        if op == "shl":
            return f"(({self.interp(a[0])} << {e.params[0]}) & {M})"
        if op == "shr":
            return f"(({self.interp(a[0])} >> {e.params[0]}) & {M})"
        if op == "dshl":
            return f"(({self.interp(a[0])} << _mins({self.raw(a[1])})) & {M})"
        if op == "dshr":
            return f"(({self.interp(a[0])} >> _mins({self.raw(a[1])})) & {M})"
        if op == "mux":
            t = f"({self.interp(a[1])} & {M})"
            f_ = f"({self.interp(a[2])} & {M})"
            return f"({t} if {self.raw(a[0])} else {f_})"
        if op in ("as_uint", "as_sint"):
            return self.raw(a[0])
        raise SimulatorError(f"cannot compile op {op!r}")


def _expr_reads_mem(e: Expr) -> bool:
    """Whether an expression reads any memory (its value can change on a
    clock edge even when no dependency signal changed)."""
    if isinstance(e, MemRead):
        return True
    if isinstance(e, PrimOp):
        return any(_expr_reads_mem(a) for a in e.args)
    return False


def _expr_dep_keys(e: Expr, path: str) -> set[str]:
    """Full-path signal names an expression reads (memories excluded —
    their content is state, but read addresses are dependencies)."""
    out: set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, Ref):
            out.add(f"{path}.{x.name}")
        elif isinstance(x, SubField):
            inst = x.expr.name  # type: ignore[union-attr]
            out.add(f"{path}.{inst}.{x.name}")
        elif isinstance(x, MemRead):
            walk(x.addr)
        elif isinstance(x, PrimOp):
            for a in x.args:
                walk(a)

    walk(e)
    return out


def compile_design(circuit: Circuit, top_path: str | None = None) -> CompiledDesign:
    """Flatten and compile a Low-form circuit for execution.

    ``top_path`` overrides the root instance name (defaults to the main
    module's name) — wrapping the design under a testbench-style prefix
    exercises the hierarchy-matching logic of paper Sec. 3.4.
    """
    root = top_path or circuit.main
    signal_index: dict[str, int] = {}
    signals: list[SignalInfo] = []
    mems: list[MemSpec] = []
    mem_index: dict[str, int] = {}
    assignments: list[tuple[int, str, str]] = []  # (target, code, target_path)
    registers: list[RegisterSpec] = []
    stop_lines: list[str] = []
    mem_ops: list[tuple[str, str, str, int, int]] = []  # (en, addr, data, mi, depth)
    printf_specs: list[tuple[str, int]] = []
    reads_mem: dict[int, bool] = {}
    expr_of: dict[int, tuple[str, Expr]] = {}
    mem_writes: list[tuple[str, MemWrite]] = []
    effects: list[tuple[str, Stop | Printf]] = []

    def add_signal(path: str, width: int, kind: str, signed: bool, local: str) -> int:
        idx = len(signals)
        signal_index[path] = idx
        signals.append(SignalInfo(local, path, width, kind, signed))
        return idx

    # Pass 1: declare all signals instance by instance (so cross-hierarchy
    # connects resolve), building the hierarchy tree as we go.
    instances: list[tuple[str, str]] = []

    def declare(path: str, mod_name: str) -> HierNode:
        instances.append((path, mod_name))
        m = circuit.modules[mod_name]
        node = HierNode(path.rsplit(".", 1)[-1], path, mod_name)
        for p in m.ports:
            kind = p.direction
            signed = isinstance(p.typ, SIntType)
            idx = add_signal(f"{path}.{p.name}", p.typ.bit_width(), kind, signed, p.name)
            node.signals.append(signals[idx])
        for s in m.body:
            if isinstance(s, DefWire):
                idx = add_signal(
                    f"{path}.{s.name}", s.typ.bit_width(), "wire",
                    isinstance(s.typ, SIntType), s.name,
                )
                node.signals.append(signals[idx])
            elif isinstance(s, DefRegister):
                idx = add_signal(
                    f"{path}.{s.name}", s.typ.bit_width(), "reg",
                    isinstance(s.typ, SIntType), s.name,
                )
                node.signals.append(signals[idx])
            elif isinstance(s, DefNode):
                idx = add_signal(
                    f"{path}.{s.name}", s.value.typ.bit_width(), "node",
                    isinstance(s.value.typ, SIntType), s.name,
                )
                node.signals.append(signals[idx])
            elif isinstance(s, DefMemory):
                mi = len(mems)
                mems.append(
                    MemSpec(mi, f"{path}.{s.name}", s.typ.bit_width(), s.depth, s.init)
                )
                mem_index[f"{path}.{s.name}"] = mi
        for s in m.body:
            if isinstance(s, DefInstance):
                node.children.append(declare(f"{path}.{s.name}", s.module))
        return node

    hierarchy = declare(root, circuit.main)

    # Signals wider than one storage lane live in the wide overflow dict;
    # the split is static, decided here once for all generated code.
    wide_indices = frozenset(
        i for i, s in enumerate(signals) if s.width > LANE_BITS
    )

    def lane(idx: int) -> str:
        return _lane_expr(idx, wide_indices)

    # Pass 2: generate assignments / register specs / tick effects.
    dep_map: dict[int, set[int]] = {}
    assigned: set[int] = set()

    for path, mod_name in instances:
        m = circuit.modules[mod_name]
        cg = _Codegen(path, signal_index, mem_index, mems, wide_indices)
        reg_names = {s.name for s in m.body if isinstance(s, DefRegister)}
        reg_decl = {s.name: s for s in m.body if isinstance(s, DefRegister)}
        reg_next: dict[str, Expr] = {}

        for s in m.body:
            if isinstance(s, DefNode):
                target = cg.sig(s.name)
                assignments.append((target, cg.raw(s.value), path))
                expr_of[target] = (path, s.value)
                assigned.add(target)
                reads_mem[target] = _expr_reads_mem(s.value)
                dep_map[target] = {
                    signal_index[k]
                    for k in _expr_dep_keys(s.value, path)
                    if k in signal_index
                }
            elif isinstance(s, Connect):
                if isinstance(s.loc, Ref) and s.loc.name in reg_names:
                    reg_next[s.loc.name] = s.expr
                    continue
                if isinstance(s.loc, Ref):
                    target = cg.sig(s.loc.name)
                else:  # SubField -> instance input port
                    inst = s.loc.expr.name  # type: ignore[union-attr]
                    target = cg.sig(f"{inst}.{s.loc.name}")
                assignments.append((target, cg.raw(s.expr), path))
                expr_of[target] = (path, s.expr)
                assigned.add(target)
                reads_mem[target] = _expr_reads_mem(s.expr)
                dep_map[target] = {
                    signal_index[k]
                    for k in _expr_dep_keys(s.expr, path)
                    if k in signal_index
                }
            elif isinstance(s, MemWrite):
                mi = mem_index[f"{path}.{s.mem}"]
                depth = mems[mi].depth
                mem_ops.append((cg.raw(s.en), cg.raw(s.addr), cg.raw(s.data), mi, depth))
                mem_writes.append((path, s))
            elif isinstance(s, Stop):
                effects.append((path, s))
                stop_lines.append(
                    f"    if {cg.raw(s.cond)}: "
                    f"raise SimulationFinished({s.exit_code}, time)"
                )
            elif isinstance(s, Printf):
                effects.append((path, s))
                pi = len(printf_specs)
                printf_specs.append((s.fmt, len(s.args)))
                args = "".join(f", {cg.raw(a)}" for a in s.args)
                stop_lines.append(f"    if {cg.raw(s.cond)}: _pf({pi}{args})")

        for name, nxt in reg_next.items():
            decl = reg_decl[name]
            reset_idx = None
            init = None
            if decl.reset is not None and decl.init is not None:
                reset_idx = signal_index[next(iter(_expr_dep_keys(decl.reset, path)))]
                init = decl.init
            registers.append(
                RegisterSpec(
                    cg.sig(name), decl.typ.bit_width(), cg.raw(nxt), reset_idx,
                    None if init is None else cg.raw(init), path, nxt, init,
                )
            )
        for name, decl in reg_decl.items():
            if name not in reg_next and decl.reset is not None and decl.init is not None:
                reset_idx = signal_index[next(iter(_expr_dep_keys(decl.reset, path)))]
                registers.append(
                    RegisterSpec(
                        cg.sig(name), decl.typ.bit_width(),
                        None, reset_idx, cg.raw(decl.init), path, None, decl.init,
                    )
                )

    # Topological sort of combinational assignments, then sort by level:
    # each assignment's level is one past the deepest combinational input
    # it reads.  Re-ordering by level is still a valid topo order (same-level
    # assignments are independent).
    order = _topo_sort(assignments, dep_map, assigned, signals)
    level_of: dict[int, int] = {}
    for target, _code, _path in order:
        comb_deps = [d for d in dep_map[target] if d in assigned and d != target]
        level_of[target] = 1 + max((level_of[d] for d in comb_deps), default=-1)
    order.sort(key=lambda a: level_of[a[0]])

    order_targets = [t for t, _c, _p in order]
    order_code = [c for _t, c, _p in order]
    order_deps = [frozenset(dep_map[t]) for t in order_targets]
    order_reads_mem = [reads_mem[t] for t in order_targets]

    comb_lines = ["def comb(v, w, m):"]
    if not order:
        comb_lines.append("    pass")
    for target, code, _path in order:
        comb_lines.append(f"    {lane(target)} = {code}")
    comb_source = "\n".join(comb_lines)

    def _mem_block(journal: bool) -> list[str]:
        out = []
        for wi, (en, addr, data, mi, depth) in enumerate(mem_ops):
            if journal:
                lines = [
                    f"    if {en}:",
                    f"        _ja{wi} = {addr} % {depth}",
                    f"        _jw(({mi}, _ja{wi}))",
                    f"        m[{mi}][_ja{wi}] = {data}",
                ]
                out.append("\n".join(lines))
            else:
                out.append(f"    if {en}: m[{mi}][{addr} % {depth}] = {data}")
        return out

    def _tick_source(header: str, journal: bool) -> str:
        body = [header]
        # Order matters: stops/printfs observe the stable pre-edge state;
        # register next-values are computed before memory writes so they
        # read pre-edge memory contents; stores happen last (two-phase
        # update).
        body.extend(stop_lines)
        for i, spec in enumerate(registers):
            if spec.next_code is not None:
                body.append(f"    _t{i} = {spec.next_code}")
        body.extend(_mem_block(journal))
        for i, spec in enumerate(registers):
            slot = lane(spec.index)
            if spec.next_code is not None:
                if spec.reset_index is not None:
                    body.append(
                        f"    {slot} = {spec.init_code} "
                        f"if {lane(spec.reset_index)} else _t{i}"
                    )
                else:
                    body.append(f"    {slot} = _t{i}")
            elif spec.reset_index is not None:
                body.append(
                    f"    if {lane(spec.reset_index)}: {slot} = {spec.init_code}"
                )
        if len(body) == 1:
            body.append("    pass")
        return "\n".join(body)

    tick_source = _tick_source("def tick(v, w, m, time):", False)
    tick_journal_source = _tick_source(
        "def tick_journal(v, w, m, time, _jw):", True
    )

    namespace = {
        "_sg": _sg,
        "_div": _div,
        "_rem": _rem,
        "_mins": _mins,
        "SimulationFinished": SimulationFinished,
        "_pf": None,  # patched by the engine with its printf handler
    }
    exec(compile(comb_source, "<repro-sim-comb>", "exec"), namespace)
    exec(compile(tick_source, "<repro-sim-tick>", "exec"), namespace)
    exec(
        compile(tick_journal_source, "<repro-sim-tick-journal>", "exec"),
        namespace,
    )

    main_mod = circuit.modules[circuit.main]
    top_inputs = {
        p.name: signal_index[f"{root}.{p.name}"]
        for p in main_mod.ports
        if p.direction == "input"
    }

    state_indices = tuple(
        i for i in range(len(signals)) if i not in assigned
    )

    return CompiledDesign(
        circuit=circuit,
        signal_index=signal_index,
        signals=signals,
        mems=mems,
        registers=registers,
        comb=namespace["comb"],
        tick=namespace["tick"],
        comb_source=comb_source,
        tick_source=tick_source,
        hierarchy=hierarchy,
        clock_index=signal_index[f"{root}.clock"],
        reset_index=signal_index[f"{root}.reset"],
        top_inputs=top_inputs,
        printf_specs=printf_specs,
        mem_index=mem_index,
        wide_indices=wide_indices,
        tick_journal=namespace["tick_journal"],
        tick_journal_source=tick_journal_source,
        order_targets=order_targets,
        order_code=order_code,
        order_exprs=[expr_of[t] for t in order_targets],
        mem_writes=mem_writes,
        effects=effects,
        order_deps=order_deps,
        order_reads_mem=order_reads_mem,
        state_indices=state_indices,
        namespace=namespace,
        _pos_of_target={t: p for p, t in enumerate(order_targets)},
    )


def _topo_sort(assignments, dep_map, assigned, signals):
    """Kahn's algorithm over the comb assignment graph."""
    by_target = {t: (t, code, path) for t, code, path in assignments}
    if len(by_target) != len(assignments):
        raise SimulatorError("duplicate combinational drivers (internal)")
    indeg: dict[int, int] = {}
    fanout: dict[int, list[int]] = {}
    for t, deps in dep_map.items():
        comb_deps = [d for d in deps if d in assigned and d != t]
        indeg[t] = len(comb_deps)
        for d in comb_deps:
            fanout.setdefault(d, []).append(t)
    ready = [t for t, n in indeg.items() if n == 0]
    order: list[tuple[int, str, str]] = []
    while ready:
        t = ready.pop()
        order.append(by_target[t])
        for u in fanout.get(t, ()):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != len(assignments):
        stuck = [signals[t].path for t, n in indeg.items() if n > 0]
        raise CombLoopError(
            "combinational loop involving: " + ", ".join(sorted(stuck)[:10])
        )
    return order


# -- many-worlds vector kernels (repro.sim.manyworlds) -----------------------
#
# compile_vector() compiles one design for N scenario "worlds" at once: the
# narrow value table widens to an (n_signals, worlds) uint64 matrix and every
# levelized cone statement becomes one numpy ufunc chain over whole rows, so
# a single vcomb/vtick call advances all N worlds in lockstep.
#
# Correctness rests on a mod-2**64 representation: each operand column is
# congruent (mod 2**64) to the value the scalar path's unbounded-int code
# computes, so wraparound uint64 arithmetic followed by the result-width mask
# is bit-identical to the scalar result.  Sign-sensitive ops (ordered
# compares, arithmetic shifts) reinterpret lanes as int64.  Statements that
# touch anything wider than one lane — wide signals, wide memories, >64-bit
# intermediates, signed div/rem — fall back to the *original* scalar code
# run once per world through tiny per-world adapter views, preserving exact
# parity at scalar speed for just those statements.

_FULL64 = (1 << LANE_BITS) - 1
_BARE_ROW_RE = re.compile(r"v\[\d+\]")
_DIGITS_RE = re.compile(r"\d+")
# A vector-code fragment made only of these characters is a pure python
# integer expression: every column/memory reference or helper call would
# contribute a letter or a bracket.  Such fragments are folded at codegen
# time so every surviving expression provably touches an ndarray.
_CONSTEXPR_RE = re.compile(r"^[0-9+\-*&|^~()<> ]+$")


class _NeedScalar(Exception):
    """Statement cannot be vectorized; fall back to per-world scalar code."""


@dataclass(slots=True)
class VectorKernels:
    """Compiled many-worlds kernels for one (design, worlds) pair.

    ``v`` is the (n_signals, worlds) uint64 matrix, ``w`` the flat wide
    overflow dict keyed ``signal_index * worlds + world``, ``m`` the list of
    memories — (worlds, depth) uint64 arrays for narrow memories, lists of
    per-world python lists for wide ones.

    ``vtick(v, w, m, time, _act, _stop)`` takes the active-world bool mask
    and a stop callback ``_stop(exit_code, mask, time)``; memory writes and
    stop/printf effects are masked by ``_act`` so finished worlds freeze,
    while register/comb columns keep advancing (the simulator archives a
    finished world's state at stop time).
    """

    worlds: int
    vcomb: object
    vtick: object
    vtick_journal: object
    vcomb_source: str
    vtick_source: str
    vtick_journal_source: str
    namespace: dict
    n_vector: int
    n_scalar: int


class _VecCodegen(_Codegen):
    """Vector twin of :class:`_Codegen`: emits numpy column expressions in
    mod-2**64 representation, raising :class:`_NeedScalar` for anything that
    cannot be carried in one 64-bit lane per world.

    Three per-op overheads dominate small-world kernels, so the emitter
    works to avoid them: integer literals and result masks are pre-bound as
    ``np.uint64`` namespace constants (skipping numpy's per-op python-int
    coercion), literal-only subtrees are folded at codegen time, and masks
    that are provably no-ops on canonical lanes are elided outright.
    """

    _ARITH_SYM = {"add": "+", "sub": "-", "mul": "*",
                  "and": "&", "or": "|", "xor": "^"}

    def __init__(
        self,
        path: str,
        signal_index: dict[str, int],
        mem_index: dict[str, int],
        mems: list[MemSpec],
        wide: frozenset,
        consts: dict[int, str],
    ):
        super().__init__(path, signal_index, mem_index, mems, wide)
        self.consts = consts  # shared value -> namespace-name pool

    def const(self, value: int) -> str:
        name = self.consts.get(value)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[value] = name
        return name

    @staticmethod
    def _arrayish(code: str) -> bool:
        # Contains a column or memory read somewhere: every helper and
        # ufunc is elementwise, so the runtime value is an ndarray and
        # uint64 arithmetic wraps mod 2**64 natively.
        return "v[" in code or "m[" in code

    def _operand(self, code: str, other: str) -> str:
        """Pre-bind an integer-literal operand of an infix numpy op as a
        ``np.uint64`` constant when the other side is a column expression
        (both-literal operands stay python ints and fold)."""
        if _DIGITS_RE.fullmatch(code) and not _CONSTEXPR_RE.fullmatch(other):
            return self.const(int(code))
        return code

    def _mask_to(self, code: str, mask: int, elide: bool = False) -> str:
        if _CONSTEXPR_RE.fullmatch(code):
            return str(eval(code) & mask)  # fold literal-only subtrees
        if elide:
            return code
        return f"(({code}) & {self.const(mask)})"

    def _arith_core(self, e: Expr):
        """Unmasked ``(a op b)`` core of a two-operand arithmetic op, or
        None.  Returns ``(code, canonical)`` where ``canonical`` means the
        unmasked result already fits the op's width (bitwise ops over
        unsigned canonical lanes)."""
        if not isinstance(e, PrimOp):
            return None
        sym = self._ARITH_SYM.get(e.op)
        if sym is None or e.typ.bit_width() > LANE_BITS:
            return None
        a = e.args
        x, y = self.interp(a[0]), self.interp(a[1])
        code = f"(({self._operand(x, y)}) {sym} ({self._operand(y, x)}))"
        signed = (isinstance(a[0].typ, SIntType)
                  or isinstance(a[1].typ, SIntType))
        canonical = e.op in ("and", "or", "xor") and not signed
        return code, canonical

    def lane(self, idx: int) -> str:
        if idx in self.wide:
            raise _NeedScalar("wide signal")
        return f"v[{idx}]"

    def raw(self, e: Expr) -> str:
        if isinstance(e, Ref):
            return self.lane(self.sig(e.name))
        if isinstance(e, Literal):
            value = literal_raw(e)
            if value > _FULL64:
                raise _NeedScalar("wide literal")
            return str(value)
        if isinstance(e, SubField):
            inst = e.expr.name  # type: ignore[union-attr]
            return self.lane(self.sig(f"{inst}.{e.name}"))
        if isinstance(e, MemRead):
            mi = self.mem_index[f"{self.path}.{e.mem}"]
            spec = self.mems[mi]
            if spec.width > LANE_BITS:
                raise _NeedScalar("wide memory")
            return f"m[{mi}][_RW, ({self.raw(e.addr)}) % {spec.depth}]"
        if isinstance(e, PrimOp):
            return self._prim(e)
        raise _NeedScalar(type(e).__name__)

    def interp(self, e: Expr) -> str:
        if isinstance(e, Literal):
            return str(e.value & _FULL64)
        if isinstance(e.typ, SIntType):
            w = e.typ.width
            if w > LANE_BITS:
                raise _NeedScalar("wide signed")
            if w == LANE_BITS:
                return self.raw(e)
            return f"_vsx({self.raw(e)}, {1 << (w - 1)})"
        return self.raw(e)

    def _prim(self, e: PrimOp) -> str:
        op = e.op
        rw = e.typ.bit_width()
        if rw > LANE_BITS:
            raise _NeedScalar(op)
        M = (1 << rw) - 1
        a = e.args
        core = self._arith_core(e)
        if core is not None:
            code, canonical = core
            # 64-bit lanes wrap mod 2**64 natively once an ndarray is in
            # the expression, so the full-lane mask is a no-op.
            elide = canonical or (rw == LANE_BITS and self._arrayish(code))
            return self._mask_to(code, M, elide)
        if op in ("div", "rem"):
            if isinstance(a[0].typ, SIntType) or isinstance(a[1].typ, SIntType):
                raise _NeedScalar(op)  # sign-sensitive trunc division
            fn = "_vdivu" if op == "div" else "_vremu"
            return self._mask_to(
                f"{fn}({self.raw(a[0])}, {self.raw(a[1])})", M
            )
        if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
            sym = {"lt": "<", "leq": "<=", "gt": ">", "geq": ">=",
                   "eq": "==", "neq": "!="}[op]
            if isinstance(a[0].typ, SIntType) or isinstance(a[1].typ, SIntType):
                for arg in a:
                    if (not isinstance(arg.typ, SIntType)
                            and arg.typ.bit_width() > LANE_BITS - 1):
                        raise _NeedScalar(op)  # 64-bit UInt vs SInt compare
                return (f"_vb(_vs64({self.interp(a[0])}) {sym} "
                        f"_vs64({self.interp(a[1])}))")
            x, y = self.raw(a[0]), self.raw(a[1])
            return (f"_vb(({self._operand(x, y)}) {sym} "
                    f"({self._operand(y, x)}))")
        if op == "not":
            code = f"(~({self.interp(a[0])}))"
            return self._mask_to(
                code, M, rw == LANE_BITS and self._arrayish(code)
            )
        if op == "neg":
            code = f"(0 - ({self.interp(a[0])}))"
            return self._mask_to(
                code, M, rw == LANE_BITS and self._arrayish(code)
            )
        if op == "andr":
            w = a[0].typ.bit_width()
            if w > LANE_BITS:
                raise _NeedScalar(op)
            x = self.raw(a[0])
            return f"_vb(({x}) == ({self._operand(str((1 << w) - 1), x)}))"
        if op == "orr":
            return f"_vb(({self.raw(a[0])}) != 0)"
        if op == "xorr":
            return f"_vxorr({self.raw(a[0])})"
        if op == "cat":
            wb = a[1].typ.bit_width()
            x, y = self.raw(a[0]), self.raw(a[1])
            return f"((({x}) << {self._operand(str(wb), x)}) | ({y}))"
        if op == "bits":
            hi, lo = e.params
            m_ = (1 << (hi - lo + 1)) - 1
            if lo == 0:
                if hi >= a[0].typ.bit_width() - 1:
                    return self.raw(a[0])  # full-width slice of a canonical lane
                inner = self._arith_core(a[0])
                if inner is not None:
                    # (x & M_inner) & m_ == x & m_ for m_ within M_inner:
                    # skip the arith op's own mask and apply the slice's.
                    return self._mask_to(inner[0], m_)
                return self._mask_to(self.raw(a[0]), m_)
            if lo >= LANE_BITS:
                raise _NeedScalar(op)
            src = self.raw(a[0])
            sh = self._operand(str(lo), src)
            return self._mask_to(f"(({src}) >> {sh})", m_)
        if op == "pad":
            if isinstance(a[0].typ, SIntType):
                code = self.interp(a[0])
                return self._mask_to(
                    code, M, rw == LANE_BITS and self._arrayish(code)
                )
            return self.interp(a[0])  # widening a canonical lane is a no-op
        if op == "shl":
            x = self.interp(a[0])
            code = f"(({x}) << {self._operand(str(e.params[0]), x)})"
            return self._mask_to(
                code, M, rw == LANE_BITS and self._arrayish(code)
            )
        if op == "shr":
            c = e.params[0]
            if isinstance(a[0].typ, SIntType):
                code = f"_vsra({self.interp(a[0])}, {min(c, 63)})"
                return self._mask_to(
                    code, M, rw == LANE_BITS and self._arrayish(code)
                )
            if c >= LANE_BITS:
                return "0"
            x = self.interp(a[0])
            # A canonical lane shifted right always fits the result width.
            return f"(({x}) >> {self._operand(str(c), x)})"
        if op == "dshl":
            code = f"_vdshl({self.interp(a[0])}, {self.raw(a[1])})"
            return self._mask_to(
                code, M, rw == LANE_BITS and self._arrayish(code)
            )
        if op == "dshr":
            if isinstance(a[0].typ, SIntType):
                code = f"_vdshrs({self.interp(a[0])}, {self.raw(a[1])})"
                return self._mask_to(
                    code, M, rw == LANE_BITS and self._arrayish(code)
                )
            # Unsigned dynamic shr of a canonical lane fits the width.
            return f"_vdshru({self.raw(a[0])}, {self.raw(a[1])})"
        if op == "mux":
            t, f_ = self.interp(a[1]), self.interp(a[2])
            if isinstance(a[1].typ, SIntType):
                t = self._mask_to(t, M, rw == LANE_BITS and self._arrayish(t))
            if isinstance(a[2].typ, SIntType):
                f_ = self._mask_to(
                    f_, M, rw == LANE_BITS and self._arrayish(f_)
                )
            tb, fb = self._operand(t, f_), self._operand(f_, t)
            return f"_vsel({self.raw(a[0])}, ({tb}), ({fb}))"
        if op in ("as_uint", "as_sint"):
            return self.raw(a[0])
        raise _NeedScalar(op)


class _WorldLanes:
    """Scalar-code view of one world's column: python ints in and out."""

    __slots__ = ("mat", "k")

    def __init__(self, mat, k):
        self.mat = mat
        self.k = k

    def __getitem__(self, i):
        return int(self.mat[i, self.k])

    def __setitem__(self, i, value):
        self.mat[i, self.k] = value


class _WorldWide:
    """One world's slice of the flat wide dict (key = index*worlds + k)."""

    __slots__ = ("wide", "k", "stride")

    def __init__(self, wide, k, stride):
        self.wide = wide
        self.k = k
        self.stride = stride

    def __getitem__(self, i):
        return self.wide[i * self.stride + self.k]

    def __setitem__(self, i, value):
        self.wide[i * self.stride + self.k] = value

    def __contains__(self, i):
        return i * self.stride + self.k in self.wide


class _WorldMemRow:
    """Scalar-code view of one world's row of a (worlds, depth) memory."""

    __slots__ = ("mem", "k")

    def __init__(self, mem, k):
        self.mem = mem
        self.k = k

    def __getitem__(self, a):
        return int(self.mem[self.k, a])

    def __setitem__(self, a, value):
        self.mem[self.k, a] = value


class _WorldMems:
    __slots__ = ("mems", "k")

    def __init__(self, mems, k):
        self.mems = mems
        self.k = k

    def __getitem__(self, mi):
        mem = self.mems[mi]
        if isinstance(mem, list):  # wide memory: list of per-world lists
            return mem[self.k]
        return _WorldMemRow(mem, self.k)


def _mkjw(mi, k, jw):
    def rec(a):
        jw((mi, (k, a)))
    return rec


def _vector_helpers(worlds: int) -> dict:
    """Build the exec namespace for one world count: numpy helper functions
    closed over ``worlds`` plus the scalar-fallback machinery."""
    np = _np
    u64 = np.uint64
    i64 = np.int64
    allt = np.ones(worlds, dtype=bool)
    zw = np.zeros(worlds, dtype=bool)

    def _as64(x):
        return np.ascontiguousarray(x).view(i64)

    def _vsx(x, c):
        # sign-extend a w-bit lane into mod-2**64 representation; c = 2**(w-1)
        if isinstance(x, int):
            return ((x ^ c) - c) & _FULL64
        return (x ^ c) - c

    def _vs64(x):
        if isinstance(x, int):
            return x - (1 << 64) if x >= (1 << 63) else x
        return _as64(x)

    def _vb(x):
        if isinstance(x, np.ndarray):
            return x.astype(u64)
        return 1 if x else 0

    def _vsel(c, t, f):
        if not isinstance(c, np.ndarray) or c.ndim == 0:
            return t if c else f
        if not (isinstance(t, np.ndarray) or isinstance(f, np.ndarray)):
            t = np.full(worlds, t, dtype=u64)
        return np.where(c != 0, t, f)

    def _scalarize(b):
        # np.uint64 scalars leak in from pre-bound constants; collapse
        # them (and 0-d arrays) to python ints so the scalar fast paths
        # and shape-dependent code below stay correct.
        if not isinstance(b, np.ndarray) or b.ndim == 0:
            return int(b)
        return b

    def _vdivu(a, b):
        b = _scalarize(b)
        if isinstance(b, int):
            if not isinstance(a, np.ndarray):
                return a // b if b else 0
            if b == 0:
                return np.zeros(worlds, dtype=u64)
            return a // b
        if isinstance(a, int):
            a = np.full(b.shape, a, dtype=u64)
        out = np.zeros(b.shape, dtype=u64)
        np.floor_divide(a, b, out=out, where=b != 0)
        return out

    def _vremu(a, b):
        b = _scalarize(b)
        if isinstance(b, int):
            if not isinstance(a, np.ndarray):
                return a % b if b else 0
            if b == 0:
                return np.zeros(worlds, dtype=u64)
            return a % b
        if isinstance(a, int):
            a = np.full(b.shape, a, dtype=u64)
        out = np.zeros(b.shape, dtype=u64)
        np.remainder(a, b, out=out, where=b != 0)
        return out

    def _vsra(x, c):
        # arithmetic shift right of a mod-2**64 lane, 0 <= c <= 63
        if isinstance(x, int):
            xs = x - (1 << 64) if x >= (1 << 63) else x
            return (xs >> c) & _FULL64
        return (_as64(x) >> c).view(u64)

    def _vdshl(a, b):
        b = _scalarize(b)
        if isinstance(b, int):
            if b >= 64:
                return 0 if isinstance(a, int) else np.zeros(worlds, dtype=u64)
            return a << b
        ok = b < 64
        out = a << np.where(ok, b, 0).astype(u64)
        return np.where(ok, out, 0).astype(u64)

    def _vdshru(a, b):
        b = _scalarize(b)
        if isinstance(b, int):
            if b >= 64:
                return 0 if isinstance(a, int) else np.zeros(worlds, dtype=u64)
            return a >> b
        ok = b < 64
        out = a >> np.where(ok, b, 0).astype(u64)
        return np.where(ok, out, 0).astype(u64)

    def _vdshrs(a, b):
        b = _scalarize(b)
        if isinstance(b, int):
            return _vsra(a, min(b, 63))
        safe = np.minimum(b, 63).astype(i64)
        if isinstance(a, int):
            a = np.full(b.shape, a, dtype=u64)
        return (_as64(a) >> safe).view(u64)

    def _vxorr(x):
        if isinstance(x, int):
            return x.bit_count() & 1
        y = x ^ (x >> 32)
        y = y ^ (y >> 16)
        y = y ^ (y >> 8)
        y = y ^ (y >> 4)
        y = y ^ (y >> 2)
        y = y ^ (y >> 1)
        return y & 1

    def _vmask(x):
        # condition value -> bool hit mask, or None when no world fired
        if not isinstance(x, np.ndarray) or x.ndim == 0:
            return allt.copy() if x else None
        m = x != 0
        return m if m.any() else None

    def _vidx(x, ks):
        if isinstance(x, np.ndarray) and x.ndim:
            return x[ks]
        return x

    def _vjw(ks, addrs):
        kl = ks.tolist()
        if isinstance(addrs, np.ndarray):
            return zip(kl, addrs.tolist(), strict=True)
        return zip(kl, [int(addrs)] * len(kl), strict=True)

    def _mkadp(v, w, m):
        return [
            (_WorldLanes(v, k), _WorldWide(w, k, worlds), _WorldMems(m, k))
            for k in range(worlds)
        ]

    return {
        "_vsx": _vsx, "_vs64": _vs64, "_vb": _vb, "_vsel": _vsel,
        "_vdivu": _vdivu, "_vremu": _vremu, "_vsra": _vsra,
        "_vdshl": _vdshl, "_vdshru": _vdshru, "_vdshrs": _vdshrs,
        "_vxorr": _vxorr, "_vmask": _vmask, "_vidx": _vidx, "_vjw": _vjw,
        "_mkadp": _mkadp, "_mkjw": _mkjw,
        "_RW": np.arange(worlds), "_RWL": range(worlds), "_ZW": zw,
        "_sg": _sg, "_div": _div, "_rem": _rem, "_mins": _mins,
        "_pfv": None,  # patched by ManyWorldsSimulator: _pfv(pi, mask, *cols)
        "_pfk": None,  # patched by ManyWorldsSimulator: _pfk(pi, k, args)
    }


def compile_vector(design: CompiledDesign, worlds: int) -> VectorKernels:
    """Compile ``design`` into fused many-worlds column kernels for ``worlds``
    scenarios, cached on the design per world count.

    Statement-level fallback keeps parity total: anything the vector codegen
    cannot express in one lane per world reuses the already-generated scalar
    code, executed per world through adapter views of the matrix.
    """
    if _np is None:
        raise SimulatorError(
            "many-worlds vector kernels require numpy (not installed)"
        )
    if worlds < 1:
        raise SimulatorError("worlds must be >= 1")
    cached = design._vector_kernels.get(worlds)
    if cached is not None:
        return cached

    wide = design.wide_indices
    mems = design.mems
    consts: dict[int, str] = {}  # np.uint64 constant pool, all instances
    gens: dict[str, tuple[_Codegen, _VecCodegen]] = {}

    def gen(path: str) -> tuple[_Codegen, _VecCodegen]:
        if path not in gens:
            args = (path, design.signal_index, design.mem_index, mems, wide)
            gens[path] = (_Codegen(*args), _VecCodegen(*args, consts))
        return gens[path]

    def scalar(path: str, e: Expr) -> str:
        return gen(path)[0].raw(e)

    def vec(path: str, e: Expr) -> str | None:
        try:
            return gen(path)[1].raw(e)
        except _NeedScalar:
            return None

    # Translate the IR compile_design retained: a vector expression per
    # statement, or None = per-world scalar fallback.
    order_vec = [
        None if target in wide else vec(path, e)
        for target, (path, e) in zip(
            design.order_targets, design.order_exprs, strict=True
        )
    ]
    reg_vec: list[tuple[str | None, str | None]] = []  # (next, init)
    for spec in design.registers:
        if spec.index in wide:
            reg_vec.append((None, None))
            continue
        reg_vec.append(tuple(
            None if e is None else vec(spec.path, e)
            for e in (spec.next_expr, spec.init_expr)
        ))
    effects: list[dict] = []
    n_printf = 0
    for path, s in design.effects:
        if isinstance(s, Stop):
            effects.append({
                "kind": "stop",
                "vec": vec(path, s.cond),
                "scalar": scalar(path, s.cond),
                "code": s.exit_code,
            })
            continue
        cond_v = vec(path, s.cond)
        args_v = [vec(path, arg) for arg in s.args]
        if cond_v is None or None in args_v:
            cond_v = None
        effects.append({
            "kind": "printf", "pi": n_printf,
            "vec": cond_v, "vec_args": args_v,
            "scalar": scalar(path, s.cond),
            "scalar_args": [scalar(path, arg) for arg in s.args],
        })
        n_printf += 1
    mem_entries: list[dict] = []
    for path, s in design.mem_writes:
        mi = design.mem_index[f"{path}.{s.mem}"]
        trip = None
        if mems[mi].width <= LANE_BITS:
            parts = (vec(path, s.en), vec(path, s.addr), vec(path, s.data))
            if None not in parts:
                trip = parts
        mem_entries.append({
            "vec": trip,
            "scalar": tuple(scalar(path, x) for x in (s.en, s.addr, s.data)),
            "mi": mi, "depth": mems[mi].depth,
        })

    sfn_src: list[str] = []
    n_vector = 0
    n_scalar = 0

    # Combinational settle.
    comb_body: list[str] = []
    comb_fallback = False
    for p, (target, code) in enumerate(zip(design.order_targets, order_vec)):
        if code is None:
            comb_fallback = True
            n_scalar += 1
            sfn_src.append(
                f"def _sc{p}(v, w, m):\n"
                f"    {design.lane_target(target)} = {design.order_code[p]}"
            )
            comb_body.append(f"    for _k in _RWL: _sc{p}(*_A[_k])")
        else:
            n_vector += 1
            comb_body.append(f"    v[{target}] = {code}")
    comb_lines = ["def vcomb(v, w, m):"]
    if comb_fallback:
        comb_lines.append("    _A = _mkadp(v, w, m)")
    comb_lines.extend(comb_body or ["    pass"])
    vcomb_source = "\n".join(comb_lines)

    # Effects: shared per-world scalar condition/arg functions.
    for si, eff in enumerate(effects):
        if eff["vec"] is not None:
            n_vector += 1
            continue
        n_scalar += 1
        if eff["kind"] == "stop":
            sfn_src.append(
                f"def _scond{si}(v, w, m):\n    return {eff['scalar']}"
            )
        else:
            sfn_src.append(
                f"def _spfc{si}(v, w, m):\n    return {eff['scalar']}"
            )
            args = ", ".join(eff["scalar_args"])
            tail = f"({args},)" if args else "()"
            sfn_src.append(f"def _spfa{si}(v, w, m):\n    return {tail}")

    # Registers: decide vector vs fallback per register as one unit.
    reg_vec_ok: list[bool] = []
    for i, (spec, (next_v, init_v)) in enumerate(
        zip(design.registers, reg_vec, strict=True)
    ):
        ok = spec.index not in wide
        if spec.next_code is not None and next_v is None:
            ok = False
        if spec.reset_index is not None and init_v is None:
            ok = False
        reg_vec_ok.append(ok)
        if ok:
            n_vector += 1
            continue
        n_scalar += 1
        slot = design.lane_target(spec.index)
        if spec.next_code is not None:
            sfn_src.append(f"def _sr{i}(v, w, m):\n    return {spec.next_code}")
            if spec.reset_index is not None:
                sfn_src.append(
                    f"def _ss{i}(v, w, m, _t):\n"
                    f"    {slot} = {spec.init_code} "
                    f"if {design.lane_target(spec.reset_index)} else _t"
                )
            else:
                sfn_src.append(f"def _ss{i}(v, w, m, _t):\n    {slot} = _t")
        else:
            sfn_src.append(
                f"def _ss{i}(v, w, m):\n"
                f"    if {design.lane_target(spec.reset_index)}: "
                f"{slot} = {spec.init_code}"
            )

    # Memory writes.
    for wi, me in enumerate(mem_entries):
        if me["vec"] is not None:
            n_vector += 1
            continue
        n_scalar += 1
        en, addr, data = me["scalar"]
        mi, depth = me["mi"], me["depth"]
        sfn_src.append(
            f"def _smw{wi}(v, w, m):\n"
            f"    if {en}: m[{mi}][{addr} % {depth}] = {data}"
        )
        sfn_src.append(
            f"def _smwj{wi}(v, w, m, _rec):\n"
            f"    if {en}:\n"
            f"        _ja = {addr} % {depth}\n"
            f"        _rec(_ja)\n"
            f"        m[{mi}][_ja] = {data}"
        )

    need_adapters = (
        any(e["vec"] is None for e in effects)
        or any(not ok for ok in reg_vec_ok)
        or any(me["vec"] is None for me in mem_entries)
    )

    def build_tick(name: str, journal: bool) -> str:
        extra = ", _jw" if journal else ""
        body = [f"def {name}(v, w, m, time, _act, _stop{extra}):"]
        if need_adapters:
            body.append("    _A = _mkadp(v, w, m)")
        # Same phase order as the scalar tick: stops/printfs observe the
        # stable pre-edge state, register next-values are computed before
        # memory writes, stores happen last.  Effects and memory writes are
        # masked by _act; _stop mutates _act in place so a world that
        # finishes at this edge is frozen for the rest of the tick.
        for si, eff in enumerate(effects):
            if eff["kind"] == "stop":
                if eff["vec"] is not None:
                    body += [
                        f"    _sm{si} = _vmask({eff['vec']})",
                        f"    if _sm{si} is not None:",
                        f"        _sm{si} &= _act",
                        f"        if _sm{si}.any(): "
                        f"_stop({eff['code']}, _sm{si}, time)",
                    ]
                else:
                    body += [
                        f"    _sm{si} = _ZW.copy()",
                        "    for _k in _RWL:",
                        f"        if _act[_k] and _scond{si}(*_A[_k]): "
                        f"_sm{si}[_k] = True",
                        f"    if _sm{si}.any(): "
                        f"_stop({eff['code']}, _sm{si}, time)",
                    ]
            elif eff["vec"] is not None:
                args = "".join(f", ({c})" for c in eff["vec_args"])
                body += [
                    f"    _pm{si} = _vmask({eff['vec']})",
                    f"    if _pm{si} is not None:",
                    f"        _pm{si} &= _act",
                    f"        if _pm{si}.any(): _pfv({eff['pi']}, _pm{si}{args})",
                ]
            else:
                body += [
                    "    for _k in _RWL:",
                    f"        if _act[_k] and _spfc{si}(*_A[_k]): "
                    f"_pfk({eff['pi']}, _k, _spfa{si}(*_A[_k]))",
                ]
        for i, (spec, (next_v, _init_v)) in enumerate(
            zip(design.registers, reg_vec, strict=True)
        ):
            if spec.next_code is None:
                continue
            if reg_vec_ok[i]:
                code = next_v
                if _BARE_ROW_RE.fullmatch(code):
                    code = f"({code}).copy()"  # defer: row mutates in stores
                body.append(f"    _t{i} = {code}")
            else:
                body.append(f"    _t{i} = [_sr{i}(*_A[_k]) for _k in _RWL]")
        for wi, me in enumerate(mem_entries):
            mi, depth = me["mi"], me["depth"]
            if me["vec"] is not None:
                en, addr, data = me["vec"]
                body += [
                    f"    _wm{wi} = _vmask({en})",
                    f"    if _wm{wi} is not None:",
                    f"        _wm{wi} &= _act",
                    f"        if _wm{wi}.any():",
                    f"            _wk{wi} = _wm{wi}.nonzero()[0]",
                    f"            _wa{wi} = _vidx(({addr}) % {depth}, _wk{wi})",
                ]
                if journal:
                    body.append(
                        f"            for _kk, _aa in _vjw(_wk{wi}, _wa{wi}): "
                        f"_jw(({mi}, (_kk, _aa)))"
                    )
                body.append(
                    f"            m[{mi}][_wk{wi}, _wa{wi}] = "
                    f"_vidx({data}, _wk{wi})"
                )
            elif journal:
                body += [
                    "    for _k in _RWL:",
                    f"        if _act[_k]: "
                    f"_smwj{wi}(*_A[_k], _mkjw({mi}, _k, _jw))",
                ]
            else:
                body += [
                    "    for _k in _RWL:",
                    f"        if _act[_k]: _smw{wi}(*_A[_k])",
                ]
        # Register stores.  Reset is low for virtually every tick of a
        # run, so runs of vector registers sharing one reset row are
        # guarded by a single hoisted ``.any()``: the common path does a
        # plain row store per register instead of a np.where.  Hoisting
        # is skipped for a reset row that is itself a register target
        # this tick (the per-store read stays, matching the scalar tick).
        reg_rows = {spec.index for spec in design.registers}
        run_rst: int | None = None
        run_hot: list[str] = []
        run_cold: list[str] = []
        hoisted: set[int] = set()

        def flush_run() -> None:
            nonlocal run_rst
            if run_rst is None:
                return
            if run_rst not in hoisted:
                hoisted.add(run_rst)
                body.append(f"    _rr{run_rst} = v[{run_rst}]")
                body.append(f"    _rb{run_rst} = _rr{run_rst}.any()")
            body.append(f"    if _rb{run_rst}:")
            body.extend(f"        {line}" for line in run_hot)
            body.append("    else:")
            body.extend(f"        {line}" for line in (run_cold or ["pass"]))
            run_rst = None
            run_hot.clear()
            run_cold.clear()

        for i, (spec, (_next_v, init_v)) in enumerate(
            zip(design.registers, reg_vec, strict=True)
        ):
            if reg_vec_ok[i]:
                ridx = spec.reset_index
                if ridx is None:
                    flush_run()
                    if spec.next_code is not None:
                        body.append(f"    v[{spec.index}] = _t{i}")
                    continue
                if ridx in reg_rows:
                    flush_run()
                    if spec.next_code is not None:
                        body.append(
                            f"    v[{spec.index}] = _vsel(v[{ridx}], "
                            f"({init_v}), _t{i})"
                        )
                    else:
                        body.append(
                            f"    v[{spec.index}] = _vsel(v[{ridx}], "
                            f"({init_v}), v[{spec.index}])"
                        )
                    continue
                if run_rst is not None and run_rst != ridx:
                    flush_run()
                run_rst = ridx
                if spec.next_code is not None:
                    run_hot.append(
                        f"v[{spec.index}] = _vsel(_rr{ridx}, "
                        f"({init_v}), _t{i})"
                    )
                    run_cold.append(f"v[{spec.index}] = _t{i}")
                else:
                    run_hot.append(
                        f"v[{spec.index}] = _vsel(_rr{ridx}, "
                        f"({init_v}), v[{spec.index}])"
                    )
            elif spec.next_code is not None:
                flush_run()
                body.append(f"    for _k in _RWL: _ss{i}(*_A[_k], _t{i}[_k])")
            else:
                flush_run()
                body.append(f"    for _k in _RWL: _ss{i}(*_A[_k])")
        flush_run()
        if len(body) == 1:
            body.append("    pass")
        return "\n".join(body)

    vtick_source = build_tick("vtick", False)
    vtick_journal_source = build_tick("vtick_journal", True)

    namespace = _vector_helpers(worlds)
    for value, cname in consts.items():
        namespace[cname] = _np.uint64(value)
    if sfn_src:
        exec(compile("\n".join(sfn_src), "<repro-mw-scalar>", "exec"), namespace)
    exec(compile(vcomb_source, "<repro-mw-comb>", "exec"), namespace)
    exec(compile(vtick_source, "<repro-mw-tick>", "exec"), namespace)
    exec(
        compile(vtick_journal_source, "<repro-mw-tick-journal>", "exec"),
        namespace,
    )

    kernels = VectorKernels(
        worlds=worlds,
        vcomb=namespace["vcomb"],
        vtick=namespace["vtick"],
        vtick_journal=namespace["vtick_journal"],
        vcomb_source=vcomb_source,
        vtick_source=vtick_source,
        vtick_journal_source=vtick_journal_source,
        namespace=namespace,
        n_vector=n_vector,
        n_scalar=n_scalar,
    )
    design._vector_kernels[worlds] = kernels
    return kernels
