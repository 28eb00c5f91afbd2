"""Shared test designs and utilities.

Breakpoint-oriented tests need stable source locations; instead of
hardcoding line numbers we look them up from debug info by sink name via
:func:`line_of`.
"""

from __future__ import annotations

import socket
import time

import repro
import repro.hgf as hgf


class Counter(hgf.Module):
    """En-gated counter with an overflow flag."""

    def __init__(self, width: int = 8):
        super().__init__()
        self.width = width
        self.en = self.input("en", 1)
        self.out = self.output("out", width)
        self.wrapped = self.output("wrapped", 1)
        count = self.reg("count", width, init=0)
        with self.when(self.en == 1):
            count <<= count + 1
        self.out <<= count
        self.wrapped <<= count == (1 << width) - 1


class Accumulator(hgf.Module):
    """Conditional accumulator used by runtime/breakpoint tests."""

    def __init__(self, width: int = 16):
        super().__init__()
        self.width = width
        self.en = self.input("en", 1)
        self.d = self.input("d", 8)
        self.total = self.output("total", width)
        acc = self.reg("acc", width, init=0)
        with self.when(self.en == 1):
            acc <<= acc + self.d
        self.total <<= acc


class AluLike(hgf.Module):
    """Small comb block exercising when/elsewhen/otherwise chains."""

    def __init__(self):
        super().__init__()
        self.a = self.input("a", 8)
        self.b = self.input("b", 8)
        self.op = self.input("op", 2)
        self.res = self.output("res", 8)
        out = self.wire("out", 8)
        with self.when(self.op == 0):
            out <<= (self.a + self.b)[7:0]
        with self.elsewhen(self.op == 1):
            out <<= (self.a - self.b)[7:0]
        with self.elsewhen(self.op == 2):
            out <<= self.a & self.b
        with self.otherwise():
            out <<= self.a ^ self.b
        self.res <<= out


class TwoLeaves(hgf.Module):
    """Two instances of the same child: the concurrent-threads case."""

    def __init__(self):
        super().__init__()
        self.x = self.input("x", 4)
        self.y = self.output("y", 8)
        a = self.instance("a", AluLeaf())
        b = self.instance("b", AluLeaf())
        a.i <<= self.x
        b.i <<= self.x ^ 5
        self.y <<= hgf.cat(a.o, b.o)


class AluLeaf(hgf.Module):
    def __init__(self):
        super().__init__()
        self.i = self.input("i", 4)
        self.o = self.output("o", 4)
        with self.when(self.i > 2):
            self.o <<= self.i - 1
        with self.otherwise():
            self.o <<= self.i


class SumLoop(hgf.Module):
    """Paper Listing 1: a for-loop accumulating into ``sum`` under a
    hardware condition — the SSA multi-line-mapping example."""

    def __init__(self, n: int = 2):
        super().__init__()
        self.n = n
        self.data = self.input("data", typ=hgf.Vec(n, hgf.UInt(8)))
        self.result = self.output("result", 16)
        total = self.var("sum", self.lit(0, 16))
        for i in range(n):
            with self.when(self.data[i] % 2 != 0):
                total.set((total.value + self.data[i])[15:0])
        self.result <<= total.value


def line_of(design: repro.Design, sink: str, module: str | None = None) -> tuple[str, int]:
    """(filename, line) of the first debug entry assigning ``sink``."""
    for entry in design.debug_info.all_entries():
        if entry.sink == sink and (module is None or entry.module == module):
            return entry.info.filename, entry.info.line
    raise AssertionError(f"no debug entry for sink {sink!r}")


def make_runtime(design, sim, on_hit=None):
    from repro.core import Runtime
    from repro.symtable import SQLiteSymbolTable, write_symbol_table

    st = SQLiteSymbolTable(write_symbol_table(design))
    return Runtime(sim, st, on_hit)


def fresh_frame(table, sim, instance_map, bp, time):
    """A frame from fresh symbol-table queries and live values, assembled
    by ``build_variable_tree``: the per-hit path that frame plans replace,
    kept as the reference they are checked against."""
    from repro.core.frames import Frame, build_variable_tree
    from repro.sim import SimulatorError

    base = instance_map.get(bp.instance_name, bp.instance_name)

    def tree(variables):
        bindings = []
        for var in variables:
            if not var.is_rtl:
                bindings.append((var.name, var.value, None))
                continue
            try:
                value = sim.get_value(f"{base}.{var.value}")
            except SimulatorError:
                value = None
            bindings.append((var.name, value, var.value))
        return build_variable_tree(bindings)

    return Frame(
        bp,
        base,
        time,
        tree(table.scope_variables(bp.id)),
        tree(table.generator_variables(bp.instance_id)),
    )


def slowest_connect(address, connects: int = 60) -> float:
    """Seconds the slowest of ``connects`` back-to-back connect-and-close
    cycles to ``address`` took."""
    worst = 0.0
    for _ in range(connects):
        t0 = time.perf_counter()
        socket.create_connection(address, timeout=10).close()
        worst = max(worst, time.perf_counter() - t0)
    return worst
