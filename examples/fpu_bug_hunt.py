"""The paper's Sec. 4.2 case study: hunting the RocketChip FPU bug.

A floating-point comparison unit disagrees with its functional model.
Instead of staring at generated RTL and waveforms (paper Listing 4), we set
a source-level breakpoint inside the ``when (in.wflags)`` block, inspect
the ``dcmp.io`` bundle, and find ``signaling`` permanently asserted.

Run:  python examples/fpu_bug_hunt.py
"""

import repro
from repro.client import ConsoleDebugger
from repro.core import Runtime
from repro.fpu import (
    FpuCmp,
    QNAN,
    RM_FEQ,
    compare_op,
    float_to_bits,
)
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table


def main() -> None:
    # --- 1. the testbench notices a mismatch -----------------------------
    design = repro.compile(FpuCmp(buggy=True))
    sim = Simulator(design.low, options=SessionOptions(snapshots=32))

    a, b, rm = QNAN, float_to_bits(1.0), RM_FEQ  # feq(qNaN, 1.0)
    sim.reset()
    sim.poke("in1", a)
    sim.poke("in2", b)
    sim.poke("rm", rm)
    sim.poke("wflags", 1)
    sim.step()

    got = (sim.peek("toint"), sim.peek("exc"))
    want = compare_op(a, b, rm)
    print(f"RTL:   toint={got[0]}, exc={got[1]:#07b}")
    print(f"model: toint={want[0]}, exc={want[1]:#07b}")
    assert got != want, "expected the seeded bug to be visible"
    print("=> toint is correct but the exception flags are wrong (NV set)\n")

    # --- 2. debug at source level ----------------------------------------
    symtable = SQLiteSymbolTable(write_symbol_table(design))
    runtime = Runtime(sim, symtable)

    # Breakpoint inside the `when (wflags)` block — the paper sets it on
    # the flag assignment, "since this is the condition where
    # floating-point comparison is enabled".
    exc_stmt = next(e for e in design.debug_info.all_entries() if e.sink == "exc")
    print(f"breakpoint target: fcmp.py:{exc_stmt.info.line}")
    print(f"enable condition:  {exc_stmt.enable_src}\n")

    debugger = ConsoleDebugger(
        runtime,
        script=[
            "info threads",
            "locals",      # shows rm == 2 (feq: a *quiet* compare)
            "q",
        ],
        echo=True,
    )
    runtime.attach()
    debugger.execute(f"b fcmp.py:{exc_stmt.info.line}")
    sim.step(2)  # re-trigger the comparison; the breakpoint hits

    # --- 3. inspect the dcmp instance's reconstructed bundle --------------
    dcmp_bp = [
        bp for bp in symtable.all_breakpoints() if bp.instance_name == "FpuCmp.dcmp"
    ][0]
    frame = runtime.frames.build(dcmp_bp, sim.get_time())
    io = next(v for v in frame.local_vars if v.name == "io")
    print("\ndcmp.io (reconstructed PortBundle, paper Sec. 4.2):")
    for field in io.children:
        print(f"    .{field.name} = {field.value}")

    signaling = io.child("signaling").value
    assert signaling == 1
    print(
        "\n=> dcmp.io.signaling is permanently asserted although rm==2 "
        "requested a quiet compare: the Listing 3 bug."
    )

    # --- 4. the fix --------------------------------------------------------
    fixed = repro.compile(FpuCmp(buggy=False))
    sim2 = Simulator(fixed.low)
    sim2.reset()
    sim2.poke("in1", a)
    sim2.poke("in2", b)
    sim2.poke("rm", rm)
    sim2.poke("wflags", 1)
    sim2.step()
    assert (sim2.peek("toint"), sim2.peek("exc")) == want
    print("fixed build matches the functional model. bug closed.")


if __name__ == "__main__":
    main()
