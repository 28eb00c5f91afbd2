"""Compile a Low-form circuit into executable Python.

The design hierarchy is flattened into one global signal table (hierarchical
paths like ``Top.fpu.dcmp.io_a``), combinational assignments are
topologically sorted, and two Python functions are generated with ``exec``:

* ``comb(v, w, m)``  — settle all combinational logic (one pass, zero-delay);
* ``tick(v, w, m)``  — fire stops/printfs, apply memory writes, then update
  all registers two-phase.

``v`` is the *narrow* value list — one 64-bit lane per signal
(``repro.sim.store``); ``w`` is the overflow dict for signals wider
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

from array import array
from dataclasses import dataclass, field

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
    # the native code generator (:mod:`repro.sim.native`): the expression
    # at every schedule position, then the memory writes and the
    # stops/printfs in statement order.
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
    # Always-on cone-cache stats: plain ints bumped on the hot path (one
    # increment per settle — cheaper than any enabled-guard) and read
    # lazily by repro.obs collectors / Simulator.stats().
    stat_cone_hits: int = 0
    stat_cone_misses: int = 0
    stat_cone_fallbacks: int = 0
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

    #: Distinct merged-cone functions cached before falling back to the
    #: full comb (bounds exec-compile cost on designs whose per-cycle poke
    #: patterns never repeat).
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
        elif len(self._mask_cones) < self.MASK_CONE_CAP:
            self.stat_cone_misses += 1
            fn = self._mask_cones[mask] = self.compile_cone(self._mask_positions(mask))
        else:
            # Cache saturated (pathological poke variety that never
            # repeats): the full comb, a superset of the cone in topological
            # order, settles the same values with no further exec-compile.
            self.stat_cone_fallbacks += 1
            fn = self.comb
        fn(v, w, m)

    @staticmethod
    def _mask_positions(mask: int) -> tuple[int, ...]:
        return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


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
