"""The native free-run tier: one C kernel per design shape.

When nothing observes single cycles (``fast=True``, no trace sink, and
no clock callback without a wake), ``Simulator.run()`` hands its budget
to a C function emitted from the design's IR; under a ``snapshots=N``
timeline the engine re-executes each segment's last cycles into the
window.  ``Simulator.run_cycles`` hands it a stimulus *tape* instead of
poking from Python: per cycle the kernel first draws the next row from the
tape's MT19937 state, as ``Random.getrandbits`` would, into the input
lanes and settles their fanout cone.  Per cycle it then checks the break
flag, the callbacks' combined wake predicate (a postfix program the
prelude interprets, see :func:`wake_program`) and every stop/printf
condition, returning *before* the tick of a cycle where one holds (Python
runs that cycle).  A callback that only collects hits registers a *record
program* instead of a wake (:func:`record_program`): on every cycle the
kernel is about to tick, after those checks, it tests each member's term
and appends the hit's values to a buffer bounded per call, and keeps
running; the engine hands the rows back as soon as the call returns.
Then it runs the tick and the tick cone exactly as the
Python fast path does.  Values sit in 64-bit lanes, 65-128-bit ones in
``unsigned __int128``, computed modulo 2**64 or 2**128 in unsigned types;
anything wider than 128 bits makes a design ineligible.  A memory of at
most 64-bit words is an ``array('Q')`` the kernel works on in place; the
value table and wider memories are copied in and back around each call.
The source holds only indices and integer constants, so designs
differing only in memory init share one library, built once
with ``$CC`` (else ``cc``) into a per-user cache and loaded with ctypes.
Any failure warns once per design (:class:`NativeWarning`) and leaves the
design in Python.  See ``docs/performance.md`` §7 and §12.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
import time
import warnings
from array import array

from ..ir.eval import literal_raw
from ..ir.expr import Literal, MemRead, PrimOp, Ref, SubField
from ..ir.types import SIntType
from .interface import WAKE_BINARY_OPS, SimulatorError

#: Compiler flags (part of the cache key).  Everything is computed in
#: unsigned types; ``-fwrapv`` is a second guard against signed overflow.
FLAGS = ("-O1", "-pipe", "-fPIC", "-shared", "-fwrapv")
#: Cycles per kernel call: a long run returns to Python this often, so
#: Ctrl-C and other signals are handled within milliseconds.  Under a
#: timeline the engine checkpoints this often too, which bounds how much
#: of a segment it re-executes.
SLICE = 1 << 16
#: Words a record program's hit buffer holds (512 KiB): a kernel call
#: runs at most as many cycles as fit if every member held on every one.
RECORD_WORDS = 1 << 16
_M64 = (1 << 64) - 1
_COMPARE = dict(lt="<", leq="<=", gt=">", geq=">=", eq="==", neq="!=")
_RING = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
#: Depth of the wake interpreter's stack: a deeper program cannot run.
WAKE_STACK = 32
#: Wake opcodes; the interpreter below numbers them the same way.
_WAKE_CODE = {op: k for k, op in enumerate(("sig", "num", "!", *WAKE_BINARY_OPS))}

_PRELUDE = """\
#include <stdint.h>
typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;
typedef __int128 i128;
#define K128(hi, lo) (((u128)(hi) << 64) | (u128)(lo))
#define LD(p, i) (((u128)(p)[2 * (i) + 1] << 64) | (u128)(p)[2 * (i)])
#define ST(p, i, x) do { u128 x_ = (x); (p)[2 * (i)] = (u64)x_; \\
    (p)[2 * (i) + 1] = (u64)(x_ >> 64); } while (0)
#define SAT(s) ((s) >> 64 ? ~0ULL : (u64)(s))
/* Truncating division on N-bit lanes; a zero divisor gives 0. */
#define DIVS(N, U, I) \\
static inline U u##N##div(U a, U b) { return b ? a / b : 0; } \\
static inline U u##N##rem(U a, U b) { return b ? a % b : 0; } \\
static inline U s##N##div(U a, U b) { if (!b) return 0; \\
    U q = ((I)a < 0 ? -a : a) / ((I)b < 0 ? -b : b); \\
    return (I)(a ^ b) < 0 ? -q : q; } \\
static inline U s##N##rem(U a, U b) { if (!b) return 0; \\
    U r = ((I)a < 0 ? -a : a) % ((I)b < 0 ? -b : b); \\
    return (I)a < 0 ? -r : r; }
/* Dynamic shifts; the amount saturates, so past the width gives 0 (or the
   sign fill). */
#define SHIFTS(N, U, I) \\
static inline U shl##N(U x, u64 s, u64 w) { return s >= w ? 0 : x << s; } \\
static inline U shr##N(U x, u64 s, u64 w) { return s >= w ? 0 : x >> s; } \\
static inline U sra##N(U x, u64 s) { return (U)((I)x >> (s < N ? s : N - 1)); }
DIVS(64, u64, i64)
DIVS(128, u128, i128)
SHIFTS(64, u64, i64)
SHIFTS(128, u128, i128)
/* CPython's MT19937 (Modules/_randommodule.c): mt is Random.getstate()'s
   624 state words, then the index of the next one to temper. */
static uint32_t mt_next(uint32_t *mt)
{
    uint32_t y;
    if (mt[624] >= 624) {
        for (int k = 0; k < 624; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % 624] & 0x7fffffffU);
            mt[k] = mt[(k + 397) % 624] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        }
        mt[624] = 0;
    }
    y = mt[mt[624]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}
/* Random.getrandbits(width) for a width of 1 to 64: 32-bit outputs, least
   significant first, the last shifted down to the bits it still needs. */
static inline u64 draw(uint32_t *mt, u64 width)
{
    u64 lo = mt_next(mt);
    if (width <= 32) return lo >> (32 - width);
    return lo | (u64)(mt_next(mt) >> (64 - width)) << 32;
}
"""
_WAKE_CASES = "".join(
    f"        case {_WAKE_CODE[op]}: st[k - 1] = st[k - 1] {op} b; break;\n"
    for op in WAKE_BINARY_OPS
)
_WAKE_C = f"""\
/* The wake interpreter: p[0] words of postfix code over the narrow lanes
   follow (see wake_program); 1 when the predicate holds. */
static int woke(const u64 *s, const u64 *p)
{{
    u64 st[{WAKE_STACK}], b;
    int k = 0;
    const u64 *end = p + 1 + p[0];
    for (p++; p < end; p++) {{
        switch (*p) {{
        case 0: st[k++] = s[*++p]; continue;
        case 1: st[k++] = *++p; continue;
        case 2: st[k - 1] = !st[k - 1]; continue;
        }}
        b = st[--k];
        switch (*p) {{
{_WAKE_CASES}        }}
    }}
    return st[0] != 0;
}}

/* The record interpreter: r is [program, buffer, words written, rows
   left] (see Recording).  For each group, then each member, whose term
   holds it appends [cycle, member, the member's lanes]; a group with a
   member that held is one row.  When the cycle's rows would use up the
   rows left it keeps nothing and returns 1: Python runs that cycle. */
static int recorded(const u64 *s, u64 *r, u64 cycle)
{{
    const u64 *p = (const u64 *)(uintptr_t)r[0];
    u64 *out = (u64 *)(uintptr_t)r[1];
    u64 at = r[2], rows = 0, k = 0;
    for (u64 g = *p++; g > 0; g--) {{
        int held = 0;
        for (u64 m = *p++; m > 0; m--, k++) {{
            const u64 *term = p;
            p += 1 + p[0];
            u64 n = *p++;
            if (woke(s, term)) {{
                out[at++] = cycle;
                out[at++] = k;
                for (u64 j = 0; j < n; j++) out[at++] = s[p[j]];
                held = 1;
            }}
            p += n;
        }}
        rows += held;
    }}
    if (rows && rows >= r[3]) return 1;
    r[2] = at;
    r[3] -= rows;
    return 0;
}}
"""


class NativeWarning(RuntimeWarning):
    """The native tier cannot run a design; it runs in Python instead."""


class _Ineligible(Exception):
    """The design holds something the kernel cannot represent."""


def _ctype(width: int) -> int:
    """Lane bits for a value of ``width`` bits: 64 or 128."""
    if width > 128:
        raise _Ineligible(f"a {width}-bit value is wider than 128 bits")
    return 64 if width <= 64 else 128


def _const(value: int, n: int) -> str:
    value &= (1 << n) - 1
    lo = f"{value & _M64:#x}ULL"
    if value >> 64:
        return f"K128({value >> 64:#x}ULL, {lo})"
    return lo if n == 64 else f"(u128){lo}"


def _mask(code: str, width: int, n: int) -> str:
    return code if width == n else f"({code} & {_const((1 << width) - 1, n)})"


def _cast(code: str, have: int, want: int) -> str:
    return code if have == want else f"(u{want})({code})"


class _CGen:
    """C expressions for one flattened instance.  ``raw`` is the
    canonical value in its own lane type; ``val`` is ``_Codegen.interp``
    modulo 2**n."""

    def __init__(self, path: str, design, wide_slot: dict[int, int]):
        self.path = path
        self.design = design
        self.wide_slot = wide_slot

    def sig(self, local: str) -> int:
        return self.design.signal_index[f"{self.path}.{local}"]

    def lane(self, idx: int) -> str:
        slot = self.wide_slot.get(idx)
        return f"s[{idx}]" if slot is None else f"LD(w, {slot})"

    def store(self, idx: int, code: str, width: int) -> str:
        slot = self.wide_slot.get(idx)
        if slot is None:
            if _ctype(width) > 64:
                raise _Ineligible("a wide value is stored into a 64-bit lane")
            return f"s[{idx}] = {code};"
        return f"ST(w, {slot}, {_cast(code, _ctype(width), 128)});"

    def raw(self, e) -> str:
        if isinstance(e, Ref):
            return self.lane(self.sig(e.name))
        if isinstance(e, SubField):
            return self.lane(self.sig(f"{e.expr.name}.{e.name}"))
        if isinstance(e, Literal):
            return _const(literal_raw(e), _ctype(e.typ.bit_width()))
        if isinstance(e, MemRead):
            mi = self.design.mem_index[f"{self.path}.{e.mem}"]
            spec = self.design.mems[mi]
            addr = f"(u64)({self.raw(e.addr)} % {_const(spec.depth, 64)})"
            if _ctype(spec.width) == 64:
                return f"m{mi}[{addr}]"
            return f"LD(m{mi}, {addr})"
        if isinstance(e, PrimOp):
            return self._prim(e)
        raise _Ineligible(f"no C for expression {e!r}")

    def val(self, e, n: int) -> str:
        width = e.typ.bit_width()
        if isinstance(e, Literal):
            return _const(e.value, n)
        code = _cast(self.raw(e), _ctype(width), n)
        if isinstance(e.typ, SIntType) and width < n:
            sign = _const(1 << (width - 1), n)
            code = f"(({code} ^ {sign}) - {sign})"
        return code

    def _prim(self, e: PrimOp) -> str:
        op, a = e.op, e.args
        rw = e.typ.bit_width()
        n = _ctype(rw)
        if op in _RING:
            x, y = self.val(a[0], n), self.val(a[1], n)
            return _mask(f"({x} {_RING[op]} {y})", rw, n)
        if op in ("div", "rem") or op in _COMPARE:
            # Sign-sensitive: widen until every operand fits exactly.
            signed = any(isinstance(x.typ, SIntType) for x in a)
            exact = max(
                x.typ.bit_width() + (signed and not isinstance(x.typ, SIntType))
                for x in a
            )
            cw = _ctype(max(exact, rw if op in ("div", "rem") else 1))
            x, y = self.val(a[0], cw), self.val(a[1], cw)
            if op in _COMPARE:
                if signed:
                    x, y = f"(i{cw}){x}", f"(i{cw}){y}"
                return f"(u64)({x} {_COMPARE[op]} {y})"
            code = f"{'s' if signed else 'u'}{cw}{op}({x}, {y})"
            return _cast(_mask(code, rw, cw), cw, n)
        if op == "not":
            return _mask(f"~{self.val(a[0], n)}", rw, n)
        if op == "neg":
            return _mask(f"-{self.val(a[0], n)}", rw, n)
        wa = a[0].typ.bit_width()
        na = _ctype(wa)
        if op == "andr":
            return f"(u64)({self.raw(a[0])} == {_const((1 << wa) - 1, na)})"
        if op == "orr":
            return f"(u64)({self.raw(a[0])} != 0)"
        if op == "xorr":
            x = self.raw(a[0])
            if na == 128:
                x = f"((u64){x} ^ (u64)({x} >> 64))"
            return f"(u64)__builtin_parityll({x})"
        if op == "cat":
            wb = a[1].typ.bit_width()
            hi = _cast(self.raw(a[0]), na, n)
            lo = _cast(self.raw(a[1]), _ctype(wb), n)
            return f"(({hi} << {wb}) | {lo})"
        if op == "bits":
            hi, lo = e.params
            code = self.raw(a[0])
            if lo:
                code = f"({code} >> {lo})"
            return _cast(_mask(code, hi - lo + 1, na), na, n)
        if op == "shr":
            # The low max(wa - k, 1) bits of interp(a) >> k are raw bits
            # k.. of a; past the width only the sign bit (SInt) remains.
            k = e.params[0]
            if k >= wa and not isinstance(a[0].typ, SIntType):
                return "0ULL"
            return _cast(f"({self.raw(a[0])} >> {min(k, wa - 1)})", na, n)
        if op in ("pad", "shl"):
            code = self.val(a[0], n)
            if op == "shl":
                code = f"({code} << {e.params[0]})"
            return _mask(code, rw, n)
        if op in ("dshl", "dshr"):
            sh = self.raw(a[1])
            if _ctype(a[1].typ.bit_width()) == 128:
                sh = f"SAT({sh})"
            if op == "dshl":
                return _mask(f"shl{n}({self.val(a[0], n)}, {sh}, {rw})", rw, n)
            if isinstance(a[0].typ, SIntType):
                return _mask(f"sra{n}({self.val(a[0], n)}, {sh})", rw, n)
            return f"shr{n}({self.raw(a[0])}, {sh}, {rw})"
        if op == "mux":
            t, f = (_mask(self.val(x, n), rw, n) for x in a[1:])
            return f"({self.raw(a[0])} ? {t} : {f})"
        if op in ("as_uint", "as_sint"):
            return self.raw(a[0])
        raise _Ineligible(f"no C for op {op!r}")


def c_source(design) -> str:
    """The kernel source for ``design``; raises :class:`_Ineligible`."""
    _ctype(max([sig.width for sig in design.signals] + [m.width for m in design.mems]))
    wide_slot = {idx: k for k, idx in enumerate(sorted(design.wide_indices))}

    def cg(path: str) -> _CGen:
        return _CGen(path, design, wide_slot)

    # compile_design's tick, in its order, then the tick cone.  The record
    # program runs once no stop or printf holds: the cycle is the kernel's.
    conds = [cg(path).raw(s.cond) for path, s in design.effects]
    body = [f"if ({' || '.join(conds)}) break;"] if conds else []
    body.append("if (rec && recorded(s, rec, base + i)) { prog[1] = 1; break; }")
    for i, spec in enumerate(design.registers):
        if spec.next_expr is not None:
            ty = _ctype(spec.next_expr.typ.bit_width())
            body.append(f"u{ty} t{i} = {cg(spec.path).raw(spec.next_expr)};")
    for path, s in design.mem_writes:
        g = cg(path)
        mi = design.mem_index[f"{path}.{s.mem}"]
        spec = design.mems[mi]
        addr = f"(u64)({g.raw(s.addr)} % {_const(spec.depth, 64)})"
        width = _ctype(s.data.typ.bit_width())
        if _ctype(spec.width) == 64:
            if width > 64:
                raise _Ineligible("a wide value is written to a 64-bit memory")
            put = f"m{mi}[a_] = {g.raw(s.data)};"
        else:
            # Mark the written 64-word block: only those are copied back.
            data = _cast(g.raw(s.data), width, 128)
            put = f"ST(m{mi}, a_, {data}); d{mi}[a_ >> 6] = 1;"
        body.append(f"if ({g.raw(s.en)}) {{ u64 a_ = {addr}; {put} }}")
    for i, spec in enumerate(design.registers):
        g, expr, init = cg(spec.path), spec.next_expr, spec.init_expr
        if expr is None:
            put = g.store(spec.index, g.raw(init), init.typ.bit_width())
            body.append(f"if ({g.lane(spec.reset_index)}) {put}")
            continue
        width = expr.typ.bit_width()
        value = f"t{i}"
        if init is not None:
            n = _ctype(max(width, init.typ.bit_width()))
            iw = _ctype(init.typ.bit_width())
            value = (
                f"({g.lane(spec.reset_index)} ? {_cast(g.raw(init), iw, n)}"
                f" : {_cast(value, _ctype(width), n)})"
            )
            width = max(width, init.typ.bit_width())
        body.append(g.store(spec.index, value, width))
    for p in design._mask_positions(design.tick_mask()):
        path, expr = design.order_exprs[p]
        g, width = cg(path), expr.typ.bit_width()
        body.append(g.store(design.order_targets[p], g.raw(expr), width))

    # A drawn row lands in the input lanes; then the merged fanout cone of
    # every non-clock top input settles, as a Python poke's would.
    seeds = 0
    for idx in design.top_inputs.values():
        if idx != design.clock_index:
            seeds |= design.seed_mask(idx)
    poke = []
    for p in design._mask_positions(seeds):
        path, expr = design.order_exprs[p]
        g, width = cg(path), expr.typ.bit_width()
        poke.append(g.store(design.order_targets[p], g.raw(expr), width))

    n_sig = len(design.signals)
    layout = [(spec.width, spec.depth) for spec in design.mems]
    head = [
        f"/* signals {n_sig}, wide {sorted(wide_slot)}, memories {layout} */",
        "int64_t repro_run(u64 *restrict s, u64 *const *mp, int64_t n,",
        "                  const int64_t *brk, int64_t *prog, const u64 *wake,",
        "                  u64 *tape, u64 *rec)",
        "{",
        f"    u64 *restrict w = s + {n_sig};",
        "    (void)w;",
        *(f"    u64 *restrict m{mi} = mp[{mi}];" for mi in range(len(layout))),
        *(
            f"    uint8_t *restrict d{mi} = (uint8_t *)mp[{len(layout) + mi}];"
            for mi, (width, _depth) in enumerate(layout)
            if width > 64
        ),
        "    const u64 nc = tape ? tape[0] : 0, *col = tape ? tape + 3 : 0;",
        "    uint32_t *mt = tape ? (uint32_t *)(uintptr_t)tape[1] : 0;",
        "    int64_t base = *prog, i;",
        "    for (i = 0; i < n; i++) {",
        "        if (tape) {",
        "            for (u64 c = 0; c < nc; c++) s[col[c]] = draw(mt, col[nc + c]);",
        *(f"            {x}" for x in poke),
        "        }",
        "        if (__atomic_load_n(brk, __ATOMIC_RELAXED)) break;",
        "        if (wake[0] && woke(s, wake)) { prog[1] = 1; break; }",
    ]
    tail = [
        "        __atomic_store_n(prog, base + i + 1, __ATOMIC_RELAXED);",
        "    }",
        "    if (tape) tape[2] += i + (i < n);",
        "    return i;",
        "}",
    ]
    return "\n".join(
        [_PRELUDE, _WAKE_C, *head, *(f"        {x}" for x in body), *tail, ""]
    )


class Kernel:
    """A loaded kernel and the buffer layout it expects."""

    __slots__ = ("fn", "n_signals", "wide", "mems", "depths")

    def __init__(self, fn, design):
        self.fn = fn
        self.n_signals = len(design.signals)
        self.wide = sorted(design.wide_indices)
        self.mems = [spec.width > 64 for spec in design.mems]
        self.depths = [spec.depth for spec in design.mems]

    def run(
        self, v, w, mems, n: int, brk: array, prog: array, wake: array,
        tape: Tape | None = None, record: Recording | None = None,
    ) -> None:
        """Run up to ``n`` cycles on the values ``v``/``w`` and memories
        ``mems``, stopping before a cycle where the :func:`wake_program`
        ``wake`` holds.  A memory of at most 64-bit words is the kernel's
        own buffer: its ``array('Q')`` is shared in place, never copied.
        The value table and each wider memory are copied in and back in
        place (a wide memory only in the 64-word blocks written).
        ``prog[0]`` counts the cycles run, also when the run is
        interrupted; ``prog[1]`` is set to 1 when the wake stopped it.

        ``tape`` (a :class:`Tape`) pokes every cycle: the kernel draws its
        next row into the input lanes and their cone settles before the
        cycle's break, wake and stop/printf checks, so a run that stops
        before a cycle leaves that cycle's row applied.  The kernel
        counts every row it applied in the tape's header.

        ``record`` (see :func:`record_program`, made ready for ``n``
        cycles by :meth:`Recording.prepare`) runs after those checks, on
        every cycle the kernel is about to tick, and appends its hits; a
        cycle whose rows would use up the rows left stops the run as a
        wake does."""
        # The kernel indexes these buffers by the design's layout, and
        # dereferences a narrow memory's buffer directly.
        if len(v) != self.n_signals or len(mems) != len(self.depths):
            raise SimulatorError("native kernel: buffers do not match the design")
        if record is not None and len(record.out) < n * record.words:
            raise SimulatorError("native kernel: the record buffer is too small")
        if tape is not None:
            head, mt = tape.header, tape.state
            columns, widths = head[3 : 3 + head[0]], head[3 + head[0] :]
            if (
                len(widths) != len(columns)
                or len(mt) != 625
                or mt.typecode != "I"
                or mt[624] > 624
                or any(not 0 <= c < self.n_signals or c in self.wide for c in columns)
                or any(not 1 <= x <= 64 for x in widths)
            ):
                raise SimulatorError(
                    "native kernel: a tape needs a narrow lane and a width of 1 to "
                    "64 bits per column, and an MT19937 state of 624 words and an "
                    "index of at most 624"
                )
        bufs, marks = [], []
        for wide, depth, mem in zip(self.mems, self.depths, mems, strict=True):
            narrow = isinstance(mem, array) and mem.typecode == "Q"
            if len(mem) != depth or not (wide or narrow):
                raise SimulatorError(
                    f"native kernel: a {type(mem).__name__} of {len(mem)} words "
                    f"for a {depth}-word memory (one of <= 64-bit words must be "
                    "an array('Q'))"
                )
            if wide:
                bufs.append(array("Q", (h for x in mem for h in (x & _M64, x >> 64))))
            else:
                bufs.append(mem)
            marks.append(array("B", bytes((depth + 63) >> 6) if wide else b""))
        state = array("Q", v)
        for i in self.wide:
            state.extend((w[i] & _M64, w[i] >> 64))
        ptrs = array("Q", [b.buffer_info()[0] for b in (*bufs, *marks)] or [0])
        s, mp = state.buffer_info()[0], ptrs.buffer_info()[0]
        flag, done = brk.buffer_info()[0], prog.buffer_info()[0]
        code = wake.buffer_info()[0]
        header = None if tape is None else tape.header.buffer_info()[0]
        rec = None if record is None else record.header.buffer_info()[0]
        try:
            while n > 0:
                k = min(n, SLICE)
                ran = self.fn(s, mp, k, flag, done, code, header, rec)
                n -= ran
                if ran < k:
                    break
        finally:
            # A tape run changed the inputs even when it stopped before
            # finishing its first cycle.
            if prog[0] or tape is not None:
                v[:] = state[: self.n_signals] if self.wide else state
                base = self.n_signals
                for k, i in enumerate(self.wide):
                    w[i] = state[base + 2 * k] | state[base + 2 * k + 1] << 64
                for mem, buf, mark in zip(mems, bufs, marks, strict=True):
                    for blk in (b for b, hit in enumerate(mark) if hit):
                        lo, hi = blk << 6, min((blk + 1) << 6, len(mem))
                        pairs = range(2 * lo, 2 * hi, 2)
                        mem[lo:hi] = [buf[j] | buf[j + 1] << 64 for j in pairs]


class Tape:
    """A stimulus tape in kernel form.  Each cycle the kernel draws
    ``getrandbits(width)`` per column, in column order, from ``state``
    (``Random.getstate()``'s 624 MT19937 words and index, an
    ``array('I')`` it advances in place) into the column's lane.

    ``header`` is ``[column count, the state's address, rows applied,
    each column's signal index, each column's width]``."""

    __slots__ = ("state", "header")

    def __init__(self, columns, widths, state: array):
        self.state = state  # the header holds its address
        self.header = array(
            "Q", [len(columns), state.buffer_info()[0], 0, *columns, *widths]
        )


# -- wake programs ------------------------------------------------------------


def wake_program(wakes, design) -> array | None:
    """The kernel's program for the OR of ``wakes`` (predicates in the
    format of ``SimulatorInterface.add_clock_callback``): a length word,
    then postfix code, one word per op or operand.  No wakes give the empty
    program, which never wakes.  None when a wake is None or the program is
    deeper than :data:`WAKE_STACK`; a malformed wake raises
    :class:`SimulatorError`."""
    code: list[int] = []
    depth = 0
    for k, wake in enumerate(wakes):
        if wake is None:
            return None
        depth = max(depth, _emit(wake, code, design) + (k > 0))
        if k:
            code.append(_WAKE_CODE["||"])
    return array("Q", [len(code), *code]) if depth <= WAKE_STACK else None


def _emit(node, code: list[int], design) -> int:
    """Append ``node``'s postfix code; returns the stack depth it needs."""
    op, *args = node if isinstance(node, tuple) and node else (None,)
    if op in ("sig", "num") and len(args) == 1 and isinstance(args[0], int):
        x = args[0]
        narrow = x < len(design.signals) and x not in design.wide_indices
        if x >= 0 and (narrow if op == "sig" else x <= _M64):
            code += (_WAKE_CODE[op], x)
            return 1
    elif (op == "!" and len(args) == 1) or (op in WAKE_BINARY_OPS and len(args) == 2):
        depth = max(k + _emit(x, code, design) for k, x in enumerate(args))
        code.append(_WAKE_CODE[op])
        return depth
    raise SimulatorError(f"malformed wake predicate {node!r}")


# -- record programs -----------------------------------------------------------


def record_program(program, design) -> Recording | None:
    """The kernel's form of ``program`` (a
    :class:`~repro.sim.interface.RecordProgram`): the group count, then
    per group its member count, then per member its term as a
    :func:`wake_program` and its lanes, counted.  None when a term is
    deeper than :data:`WAKE_STACK`; a member without a wake or with a lane
    that is not narrow raises :class:`SimulatorError`."""
    code, members = [len(program.groups)], []
    for g, group in enumerate(program.groups):
        code.append(len(group))
        for key, wake, lanes in group:
            if wake is None:
                raise SimulatorError("a record program member needs a wake")
            term = wake_program((wake,), design)
            if term is None:
                return None
            for x in lanes:
                if not (0 <= x < len(design.signals)) or x in design.wide_indices:
                    raise SimulatorError(f"record lane {x!r} is not a narrow lane")
            code += (*term, len(lanes), *lanes)
            members.append((g, key, len(lanes)))
    return Recording(array("Q", code), members)


class Recording:
    """A record program in kernel form, and the buffer its hits go to.

    ``members[k]`` is the ``k``-th member's (group, key, value count), and
    ``words`` the most one cycle can append.  A kernel call appends
    ``[cycle, k, values...]`` per member that held, where ``cycle`` counts
    from the segment's start (the kernel's ``prog[0]``)."""

    __slots__ = ("code", "members", "words", "out", "header")

    def __init__(self, code: array, members: list):
        self.code = code  # the header holds its address
        self.members = members
        self.words = sum(2 + n for _g, _key, n in members)
        self.out = array("Q")
        # [program, buffer, words written, rows left]
        self.header = array("Q", [code.buffer_info()[0], 0, 0, 0])

    def prepare(self, cycles: int, rows: int | None) -> int:
        """Make room for a kernel call of up to ``cycles`` cycles that may
        record ``rows`` rows (None: any number); returns how many cycles
        the call may run, at most what :data:`RECORD_WORDS` holds."""
        cycles = max(1, min(cycles, RECORD_WORDS // max(self.words, 1)))
        need = cycles * self.words
        if len(self.out) < need:
            self.out = array("Q", [0]) * need
        header = self.header
        header[1] = self.out.buffer_info()[0]
        header[2] = 0
        header[3] = _M64 if rows is None else max(rows, 0)
        return cycles

    def take(self, t0: int) -> list:
        """The rows the last call recorded, as ``[time, [[key, values],
        ...]]`` per group and cycle, for a segment that began at ``t0``."""
        used = self.header[2]
        if not used:
            return []
        words, members = self.out[:used].tolist(), self.members
        self.header[2] = 0
        rows: list = []
        cycle = group = -1
        p = 0
        while p < used:
            g, key, n = members[words[p + 1]]
            if words[p] != cycle or g != group:
                cycle, group = words[p], g
                frames: list = []
                rows.append([t0 + cycle, frames])
            frames.append([key, words[p + 2 : p + 2 + n]])
            p += 2 + n
        return rows


# -- build, cache and load ---------------------------------------------------

_LOCK = threading.Lock()
_COMPILERS: dict[str, tuple] = {}  # $CC -> (argv, version line or None)
_LOADED: dict[str, object] = {}  # cache key -> ctypes function or reason
_TMPDIR: list[str] = []


def _compiler() -> tuple[list[str], str | None]:
    """``$CC`` (else ``cc``) as argv, and its version line (None when it
    does not run)."""
    cc = os.environ.get("CC") or "cc"
    if cc not in _COMPILERS:
        argv, version = [cc], None
        try:
            argv = shlex.split(cc)
            out = subprocess.run(
                [*argv, "--version"],
                capture_output=True,
                stdin=subprocess.DEVNULL,
                timeout=60,
            )
            if out.returncode == 0:
                version = out.stdout.decode(errors="replace").partition("\n")[0]
        except (OSError, ValueError, subprocess.SubprocessError):
            pass
        _COMPILERS[cc] = (argv, version or None)
    return _COMPILERS[cc]


def cache_dir() -> str:
    """The per-user library cache: ``$XDG_CACHE_HOME/repro-native`` (else
    ``~/.cache``), a 0700 directory this user owns; otherwise a private
    temporary directory removed at exit."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
        if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid():
            if st.st_mode & 0o077:
                os.chmod(path, 0o700)
            if os.access(path, os.W_OK | os.X_OK):
                return path
    except OSError:
        pass
    if not _TMPDIR:
        tmp = tempfile.mkdtemp(prefix="repro-native-")
        pid = os.getpid()
        atexit.register(lambda: os.getpid() == pid and shutil.rmtree(tmp, True))
        _TMPDIR.append(tmp)
    return _TMPDIR[0]


def _load(path: str):
    fn = ctypes.CDLL(path).repro_run
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.restype, fn.argtypes = i64, (ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr)
    return fn


def _build(cc: list[str], source: str, path: str) -> None:
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        out = subprocess.run(
            [*cc, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=source.encode(),
            capture_output=True,
            timeout=300,
        )
        if out.returncode != 0:
            err = out.stderr.decode(errors="replace").strip().splitlines()
            raise OSError(f"{cc[0]} exited {out.returncode}: {(err or [''])[0]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library_path(version: str, source: str) -> str:
    """Where the library for ``source`` built by compiler ``version`` is
    cached: the key is sha256 of both and of the flags."""
    key = hashlib.sha256("\n".join((version, " ".join(FLAGS), source)).encode())
    return os.path.join(cache_dir(), key.hexdigest() + ".so")


def _resolve(source: str) -> tuple[object, str]:
    """(ctypes function or failure reason, how it was found: ``memo``,
    ``hit`` or ``miss``).  Callers hold ``_LOCK``."""
    cc, version = _compiler()
    if version is None:
        return f"no working C compiler ({' '.join(cc)})", "miss"
    path = library_path(version, source)
    key = os.path.basename(path)
    if key in _LOADED:
        return _LOADED[key], "memo"
    how = "hit"
    try:
        try:
            fn = _load(path)
        except (OSError, AttributeError):
            # Missing, truncated or foreign: (re)build it atomically.
            how = "miss"
            _build(cc, source, path)
            fn = _load(path)
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        fn = f"build failed: {exc}"
    _LOADED[key] = fn
    return fn, how


def kernel_for(design, obs=None) -> Kernel | None:
    """The design's kernel, built or loaded on first use and cached on the
    design; None (after one :class:`NativeWarning`) when it cannot run."""
    found = design._native
    if found is None:
        with _LOCK:
            found = design._native
            if found is None:
                found = design._native = _kernel(design, obs)
    return found if isinstance(found, Kernel) else None


def _kernel(design, obs):
    try:
        source = c_source(design)
    except _Ineligible as exc:
        return f"ineligible: {exc}"
    wall, t0 = time.time(), time.perf_counter()
    fn, how = _resolve(source)
    dur = time.perf_counter() - t0
    if obs is not None and obs.tracer is not None:
        obs.tracer.record_span(
            "sim.native_build",
            wall=wall,
            dur=dur,
            args={"design": design.circuit.name, "cache": how, "ms": dur * 1e3},
        )
    if isinstance(fn, str):
        warnings.warn(
            f"native free-run tier off for {design.circuit.name}: {fn}; "
            "running in Python",
            NativeWarning,
            stacklevel=5,
        )
        return fn
    return Kernel(fn, design)


def status(design) -> str:
    """``"on"``, or ``"off (<why>)"``: building or loading if need be."""
    if kernel_for(design) is not None:
        return "on"
    return f"off ({design._native})"
