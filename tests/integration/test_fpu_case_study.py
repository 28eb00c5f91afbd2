"""The paper's Sec. 4.2 case study as an integration test.

Script: the testbench notices the buggy FPU's output mismatching the
functional model on a floating-point comparison; the engineer sets a
breakpoint inside the ``when (in.wflags)`` block, inspects the ``dcmp.io``
bundle (reconstructed from flattened RTL signals), and discovers
``signaling`` permanently asserted.
"""

import pytest

import repro
from repro.client import ConsoleDebugger
from repro.core import DETACH, Runtime
from repro.fpu import FpuCmp, QNAN, RM_FEQ, compare_op, float_to_bits
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table


def _mismatching_stimulus():
    """(a, b, rm) where the buggy FPU disagrees with the golden model."""
    return QNAN, float_to_bits(1.0), RM_FEQ


@pytest.fixture()
def buggy():
    design = repro.compile(FpuCmp(buggy=True))
    sim = Simulator(design.low, options=SessionOptions(snapshots=16))
    st = SQLiteSymbolTable(write_symbol_table(design))
    return design, sim, st


class TestCaseStudy:
    def test_mismatch_detected_by_testbench(self, buggy):
        design, sim, _st = buggy
        a, b, rm = _mismatching_stimulus()
        sim.reset()
        sim.poke("in1", a)
        sim.poke("in2", b)
        sim.poke("rm", rm)
        sim.poke("wflags", 1)
        sim.step()
        got = (sim.peek("toint"), sim.peek("exc"))
        want = compare_op(a, b, rm)
        assert got != want, "testbench must observe the bug"
        assert got[0] == want[0]  # value fine; flags wrong (paper: 'the
        # final output toint seems to be correct but the exception flags
        # are incorrectly set')

    def test_breakpoint_in_wflags_block(self, buggy):
        design, sim, st = buggy
        hits = []

        def on_hit(h):
            hits.append(h)
            return DETACH

        rt = Runtime(sim, st, on_hit)
        rt.attach()
        # The when(wflags) block: find the entry assigning `exc`.
        entry = next(
            e for e in design.debug_info.all_entries() if e.sink == "exc"
        )
        assert entry.enable_src == "(wflags == 1)"
        rt.add_breakpoint(entry.info.filename, entry.info.line)
        a, b, rm = _mismatching_stimulus()
        sim.poke("in1", a)
        sim.poke("in2", b)
        sim.poke("rm", rm)
        sim.poke("wflags", 1)
        sim.reset()
        sim.step(2)
        assert hits, "breakpoint inside when(wflags) must hit"

    def test_bundle_inspection_reveals_signaling(self, buggy):
        """hgdb 'has the ability to reconstruct structured variables from a
        list of flattened RTL signals' — dcmp.io shows signaling == 1."""
        design, sim, st = buggy
        found = {}

        def on_hit(h):
            # evaluate dcmp's io bundle in the FCmp child frame:
            fcmp_bp = [
                b for b in st.all_breakpoints()
                if b.instance_name == "FpuCmp.dcmp"
            ]
            frame = rt.frames.build(fcmp_bp[0], h.time)
            io = next(v for v in frame.local_vars if v.name == "io")
            found["io"] = {c.name: c.value for c in io.children}
            return DETACH

        rt = Runtime(sim, st, on_hit)
        rt.attach()
        entry = next(e for e in design.debug_info.all_entries() if e.sink == "exc")
        rt.add_breakpoint(entry.info.filename, entry.info.line)
        a, b, rm = _mismatching_stimulus()
        sim.poke("in1", a)
        sim.poke("in2", b)
        sim.poke("rm", rm)
        sim.poke("wflags", 1)
        sim.reset()
        sim.step(2)
        io = found["io"]
        # The smoking gun: quiet compare requested (rm==FEQ) yet signaling=1.
        assert io["signaling"] == 1
        assert io["a"] == a and io["b"] == b
        assert io["exceptionFlags"] == 0b10000

    def test_fix_eliminates_mismatch(self):
        """Correcting the signaling assignment fixes all stimuli — 'It can
        be easily fixed by correcting dcmp.io.signaling assignment.'"""
        design = repro.compile(FpuCmp(buggy=False))
        sim = Simulator(design.low)
        sim.reset()
        a, b, rm = _mismatching_stimulus()
        sim.poke("in1", a)
        sim.poke("in2", b)
        sim.poke("rm", rm)
        sim.poke("wflags", 1)
        sim.step()
        assert (sim.peek("toint"), sim.peek("exc")) == compare_op(a, b, rm)

    def test_full_console_walkthrough(self, buggy):
        """The complete IDE/console session of the case study."""
        design, sim, st = buggy
        entry = next(e for e in design.debug_info.all_entries() if e.sink == "exc")
        rt = Runtime(sim, st)
        dbg = ConsoleDebugger(
            rt,
            script=[
                "info threads",
                "locals",
                "p rm",
                "q",
            ],
        )
        rt.attach()
        a, b, rm = _mismatching_stimulus()
        sim.poke("in1", a)
        sim.poke("in2", b)
        sim.poke("rm", rm)
        sim.poke("wflags", 1)
        sim.reset()
        dbg.execute(f"b fcmp.py:{entry.info.line}")
        sim.step(2)
        joined = "\n".join(dbg.transcript)
        assert "stopped at fcmp.py" in joined
        assert "p rm" in joined and "rm = 2" in joined

    def test_generated_verilog_is_obscure(self, buggy):
        """Listing 4's point: the generated RTL hides the intent — muxes
        and SSA temporaries instead of the when-block structure."""
        design, _sim, _st = buggy
        verilog = design.verilog()
        assert "_ssa_" in verilog          # compiler temporaries
        assert "? " in verilog              # flattened control flow (muxes)
        assert "when" not in verilog        # source structure gone
