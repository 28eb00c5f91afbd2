"""Debug protocol tests: TCP server + client round trips, stop events,
control commands (paper Sec. 3.5 RPC debugging protocol)."""

import threading
import time

import pytest

import repro
from repro.core import DebuggerError, Runtime
from repro.core.protocol import DebugClient, DebugServer
from repro.sim import Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator, line_of


@pytest.fixture()
def served():
    d = repro.compile(Accumulator())
    sim = Simulator(d.low, snapshots=32)
    st = SQLiteSymbolTable(write_symbol_table(d))
    rt = Runtime(sim, st)
    server = DebugServer(rt)
    server.start()
    client = DebugClient(*server.address)
    yield d, sim, rt, server, client
    client.close()
    server.stop()


class TestHandshake:
    def test_welcome_event(self, served):
        d, _sim, _rt, _srv, client = served
        assert client.welcome["top"] == "Accumulator"
        assert client.welcome["files"]
        assert client.welcome["can_set_time"] is True

    def test_info_requests(self, served):
        _d, sim, _rt, _srv, client = served
        assert client.request("info", what="time")["time"] == sim.get_time()
        files = client.request("info", what="files")["files"]
        assert files and files[0].endswith("helpers.py")

    def test_unknown_command(self, served):
        _d, _sim, _rt, _srv, client = served
        with pytest.raises(DebuggerError, match="unknown command"):
            client.request("frobnicate")


class TestBreakpointFlow:
    def test_full_session(self, served):
        d, sim, rt, server, client = served
        rt.attach()
        _f, line = line_of(d, "acc")
        result = client.add_breakpoint("helpers.py", line)
        assert len(result["breakpoints"]) == 1
        assert result["breakpoints"][0]["enable"] == "(en == 1)"

        # Drive the simulation from a background thread (the testbench);
        # the runtime blocks inside the clock callback on each stop.
        def drive():
            sim.reset()
            sim.poke("en", 1)
            sim.poke("d", 5)
            sim.step(3)

        t = threading.Thread(target=drive, daemon=True)
        t.start()

        stop1 = client.wait_event("stopped", timeout=10)
        assert stop1["payload"]["line"] == line
        frames = stop1["payload"]["frames"]
        assert frames[0]["instance"] == "Accumulator"

        # Evaluate in the stopped scope, then continue.
        value = client.evaluate("acc + d", breakpoint_id=result["breakpoints"][0]["id"])
        assert value == 5  # acc=0, d=5 at first stop
        client.cont()
        stop2 = client.wait_event("stopped", timeout=10)
        assert stop2["payload"]["time"] == stop1["payload"]["time"] + 1
        client.cont()
        client.wait_event("stopped", timeout=10)
        client.cont()
        t.join(timeout=10)
        assert not t.is_alive()
        assert sim.peek("total") == 15

    def test_control_rejected_when_running(self, served):
        _d, _sim, rt, _srv, client = served
        rt.attach()
        with pytest.raises(DebuggerError, match="only valid while stopped"):
            client.cont()

    def test_list_and_remove(self, served):
        d, _sim, rt, _srv, client = served
        _f, line = line_of(d, "acc")
        added = client.add_breakpoint("helpers.py", line, condition="acc > 3")
        listed = client.request("list_breakpoints")["breakpoints"]
        assert listed[0]["condition"] == "acc > 3"
        client.request("remove_breakpoint", id=added["breakpoints"][0]["id"])
        assert client.request("list_breakpoints")["breakpoints"] == []

    def test_set_value(self, served):
        _d, sim, _rt, _srv, client = served
        sim.reset()
        client.request("set_value", path="Accumulator.d", value=9)
        assert sim.peek("d") == 9

    def test_step_back_over_protocol(self, served):
        d, sim, rt, _srv, client = served
        rt.attach()
        _f, line = line_of(d, "acc")
        client.add_breakpoint("helpers.py", line)

        def drive():
            sim.reset()
            sim.poke("en", 1)
            sim.poke("d", 1)
            sim.step(3)

        t = threading.Thread(target=drive, daemon=True)
        t.start()
        client.wait_event("stopped", timeout=10)
        client.cont()
        s2 = client.wait_event("stopped", timeout=10)
        client.reverse_continue()
        s_back = client.wait_event("stopped", timeout=10)
        assert s_back["payload"]["time"] == s2["payload"]["time"] - 1
        client.request("detach")
        t.join(timeout=10)
        assert not t.is_alive()


class TestClientClose:
    def test_close_returns_promptly_and_stops_the_reader(self, served):
        _d, _sim, _rt, _srv, client = served
        t0 = time.monotonic()
        client.close()
        assert time.monotonic() - t0 < 2
        client._reader.join(timeout=2)
        assert not client._reader.is_alive()
