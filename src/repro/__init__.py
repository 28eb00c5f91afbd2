"""hgdb-py: source-level debugging for hardware generators.

Reproduction of "Bringing Source-Level Debugging Frameworks to Hardware
Generators" (Zhang, Asgar, Horowitz — DAC 2022).

Packages:
    repro.hgf       Chisel-like generator frontend (the HGF).
    repro.ir        FIRRTL-like IR, passes, Verilog emission.
    repro.sim       zero-delay RTL simulator with a VPI-like interface.
    repro.trace     VCD writer/parser and trace replay engine.
    repro.symtable  symbol table, in memory; SQLite and JSON files; RPC.
    repro.core      the hgdb runtime: breakpoints, scheduler, frames, RPC.
    repro.client    gdb-like console debugger and DAP-style IDE adapter.
    repro.cpu       RV32I CPU substrate + assembler + benchmark programs.
    repro.fpu       FP comparison unit for the paper's bug case study.

Top-level helper::

    import repro
    design = repro.compile(MyModule())          # or debug=True for -O0
    sim = repro.sim.Simulator(design.low)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hgf, ir
from .ir.compiler import CompileResult, compile_circuit


@dataclass(slots=True)
class Design:
    """A compiled design: everything the simulator and debugger need."""

    result: CompileResult
    name: str

    @property
    def high(self):
        return self.result.high

    @property
    def low(self):
        return self.result.low

    @property
    def debug_info(self):
        return self.result.debug

    @property
    def annotations(self):
        return self.result.high.annotations

    def verilog(self) -> str:
        """Emit the generated (Low-form) Verilog — the "assembly" a designer
        would otherwise debug (paper Listing 4)."""
        from .ir.verilog import emit_verilog

        return emit_verilog(self.result.low)

    def lint(self, *, rules=None):
        """Run the static-analysis engine (``repro.lint``) over the
        elaborated High form and return all diagnostics, sorted by source
        location.  See ``docs/lint.md`` for the rule catalog."""
        from .lint import lint_circuit

        return lint_circuit(self.high, rules=rules, form="high")


def compile(top: hgf.Module, debug: bool = False, name: str | None = None) -> Design:
    """Elaborate and compile a generator module down to executable RTL.

    ``debug=True`` is debug mode (paper Sec. 4.1): all signals are protected
    from optimization so the symbol table keeps every source-level variable.
    """
    circuit = hgf.elaborate(top, name)
    result = compile_circuit(circuit, debug_mode=debug)
    return Design(result=result, name=circuit.name)


__version__ = "0.1.0"
__all__ = ["Design", "compile", "compile_circuit", "hgf", "ir"]
