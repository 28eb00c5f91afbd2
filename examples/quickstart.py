"""Quickstart: write a generator, simulate it, debug it at source level.

Run:  python examples/quickstart.py
"""

import repro
import repro.hgf as hgf
from repro.client import ConsoleDebugger
from repro.core import Runtime
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table


class PacketFilter(hgf.Module):
    """Counts packets whose length falls inside a configured window."""

    def __init__(self, min_len=4, max_len=64):
        super().__init__()
        self.min_len = min_len          # generator variables: visible in
        self.max_len = max_len          # the debugger's variable panel
        self.valid = self.input("valid", 1)
        self.length = self.input("length", 8)
        self.accepted = self.output("accepted", 16)
        self.rejected = self.output("rejected", 16)

        n_ok = self.reg("n_ok", 16, init=0)
        n_bad = self.reg("n_bad", 16, init=0)
        in_window = self.node(
            "in_window", (self.length >= min_len) & (self.length <= max_len)
        )
        with self.when((self.valid & in_window) == 1):
            n_ok <<= (n_ok + 1)[15:0]               # <- set a breakpoint here
        with self.elsewhen(self.valid == 1):
            n_bad <<= (n_bad + 1)[15:0]
        self.accepted <<= n_ok
        self.rejected <<= n_bad


def main() -> None:
    # 1. Elaborate + compile.  This lowers the generator to RTL and builds
    #    the hgdb debug metadata (SSA temps, enable conditions, line table).
    design = repro.compile(PacketFilter())
    print("modules:", list(design.low.modules))

    # 2. The generated Verilog is what you'd otherwise debug (paper
    #    Listing 4) — flattened muxes and compiler temporaries:
    print("\n--- generated RTL (excerpt) ---")
    print("\n".join(design.verilog().splitlines()[:16]))

    # 3. Simulate with the hgdb runtime attached.
    sim = Simulator(design.low, options=SessionOptions(snapshots=128))
    symtable = SQLiteSymbolTable(write_symbol_table(design))
    runtime = Runtime(sim, symtable)

    # 4. Source-level debugging: breakpoint on the accept statement, with a
    #    user condition.  Find the line of the `n_ok <<=` statement.
    accept = next(e for e in design.debug_info.all_entries() if e.sink == "n_ok")
    debugger = ConsoleDebugger(
        runtime,
        script=[
            "info threads",
            "locals",
            "gen",
            "p n_ok + 1",
            "c",
            "q",
        ],
        echo=True,
    )
    runtime.attach()
    debugger.execute(f"b quickstart.py:{accept.info.line} if length > 10")

    # 5. Drive stimulus (any testbench works — hgdb is orthogonal to it).
    sim.reset()
    for length in (2, 12, 80, 33, 5):
        sim.poke("valid", 1)
        sim.poke("length", length)
        sim.step()
    sim.poke("valid", 0)

    print("\naccepted:", sim.peek("accepted"), "rejected:", sim.peek("rejected"))


if __name__ == "__main__":
    main()
