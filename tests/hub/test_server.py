"""Debug hub server: wire round-trips, re-attach, eviction, the lint
gate, the shared symbol table, the shard endpoint, and hub-side
observability."""

import contextlib
import json
import os
import socket
import tempfile
import threading
import time

import pytest

import repro
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.hub import DebugHub, HubClient, LocalSession, SessionError, SessionOptions
from repro.hub.server import MAX_REQUEST_LINE, PROTOCOL_VERSION, HubError
from repro.lint import LintError
from repro.sim import Simulator, native
from repro.symtable import MemorySymbolTable
from tests.helpers import (
    Accumulator,
    Counter,
    line_of,
    make_runtime,
    slowest_connect,
)
from tests.lint.broken_designs import Loopy, Sloppy

needs_cc = pytest.mark.skipif(
    native._compiler()[1] is None, reason="needs a working C compiler ($CC or cc)"
)


def _serve(mod_cls=Counter, **kw):
    design = repro.compile(mod_cls())
    hub = DebugHub(design, **kw)
    host, port = hub.serve_background()
    return design, hub, host, port


class TestWire:
    def test_hello(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            info = client.hello()
            assert info["protocol"] == 2
            assert info["design"] == design.name
            assert info["sessions"] == 0

    def test_attach_break_run_evaluate(self):
        design, hub, host, port = _serve()
        _f, line = line_of(design, "count")
        with hub, HubClient(host, port) as client:
            session = client.attach(name="alice")
            session.poke("en", 1)
            session.reset(1)
            bps = session.add_breakpoint("helpers.py", line)
            assert bps and bps[0]["line"] == line
            assert bps[0]["enable"] == "(en == 1)"
            stop = session.run(10)
            assert stop.reason == "breakpoint"
            assert stop.stopped
            frame = stop.frames[0]
            assert frame["instance"] == "Counter"
            local = {v["name"]: v.get("value") for v in frame["local"]}
            assert local["en"] == 1
            got = session.evaluate(
                "count + 1", breakpoint_id=frame["breakpoint_id"]
            )
            assert got == local["count"] + 1
            after = session.cont()
            assert after.reason == "breakpoint"
            assert after.time == stop.time + 1
            # Let the run finish: the session's own loop ran every cycle.
            session.clear_breakpoints()
            done = session.cont()
            assert done.reason == "done"
            assert session.peek("out") == 10

    def test_state_machine_enforced_over_the_wire(self):
        # The protocol contract: resume commands only make sense at a
        # stop, and the error crosses the wire as a SessionError.
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            session = client.attach()
            with pytest.raises(SessionError, match="cannot resume"):
                session.cont()

    def test_attach_describes_the_session(self):
        design, hub, host, port = _serve(
            Accumulator, options=SessionOptions(snapshots=32)
        )
        with hub, HubClient(host, port) as client:
            info = client.call("attach", {"protocol": PROTOCOL_VERSION})
            assert info["top"] == "Accumulator"
            assert info["can_set_time"] is True

    def test_files_and_time_over_the_wire(self):
        design, hub, host, port = _serve(Accumulator)
        with hub, HubClient(host, port) as client:
            session = client.attach()
            files = session.files()
            assert files and files[0].endswith("helpers.py")
            start = session.get_time()
            stop = session.run(3)
            assert stop.reason == "done"
            assert session.get_time() == stop.time == start + 3

    def test_list_and_remove_breakpoints(self):
        design, hub, host, port = _serve(Accumulator)
        _f, line = line_of(design, "acc")
        with hub, HubClient(host, port) as client:
            session = client.attach()
            added = session.add_breakpoint("helpers.py", line, "acc > 3")
            listed = session.breakpoints()
            assert [bp["condition"] for bp in listed] == ["acc > 3"]
            assert session.remove_breakpoint(added[0]["id"]) is True
            assert session.breakpoints() == []

    def test_poke_by_full_path(self):
        design, hub, host, port = _serve(Accumulator)
        with hub, HubClient(host, port) as client:
            session = client.attach()
            session.reset(1)
            session.poke("Accumulator.d", 9)
            assert session.peek("d") == 9

    def test_reverse_cont_over_the_wire(self):
        design, hub, host, port = _serve(
            Accumulator, options=SessionOptions(snapshots=32)
        )
        _f, line = line_of(design, "acc")
        with hub, HubClient(host, port) as client:
            session = client.attach()
            session.poke("en", 1)
            session.poke("d", 1)
            session.reset(1)
            session.add_breakpoint("helpers.py", line)
            first = session.run(3)
            assert first.reason == "breakpoint"
            second = session.cont()
            assert second.time == first.time + 1
            back = session.reverse_cont()
            assert back.reason == "breakpoint"
            assert back.time == second.time - 1
            assert session.detach() is not None

    def test_reattach_by_sid_preserves_state(self):
        design, hub, host, port = _serve()
        with hub:
            first = HubClient(host, port)
            session = first.attach(name="alice")
            session.poke("en", 1)
            session.reset(1)
            stop = session.run(5)
            assert stop.reason == "done"
            sid = session.sid
            first.close()  # dropped connection != detach
            assert hub.session_count == 1

            with HubClient(host, port) as second:
                again = second.attach(sid=sid)
                assert again.sid == sid
                assert again.name == "alice"
                assert again.get_time() == stop.time  # state survived
                assert again.detach() is None  # idle: nothing in flight
            assert hub.session_count == 0

    def test_list_sessions(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as c1, HubClient(host, port) as c2:
            c1.attach(name="alice", seed=3)
            c2.attach(name="bob")
            listed = {s["name"]: s for s in c1.list_sessions()}
            assert set(listed) == {"alice", "bob"}
            assert listed["alice"]["seed"] == 3
            assert listed["alice"]["state"] == "idle"

    def test_unknown_methods_are_wire_errors(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            with pytest.raises(SessionError, match="unknown hub method"):
                client.call("frobnicate")
            with pytest.raises(SessionError, match="no session bound"):
                client.call("s.run", {"cycles": 1})
            client.attach()
            with pytest.raises(SessionError, match="unknown session method"):
                client.call("s._sim")  # allowlist, not getattr-anything

    def test_pause_during_cont_with_nothing_armed(self):
        # The session's runtime is idle (no callback registered) while it
        # runs; a pause from a second connection must still stop it.  The
        # budget is far more than a Python session steps within the 30 s
        # join below, so only the pause can end the cont in time, however
        # late it lands.
        design, hub, host, port = _serve()
        _f, line = line_of(design, "count")
        with hub, HubClient(host, port) as first, HubClient(host, port) as second:
            session = first.attach()
            session.poke("en", 1)
            session.reset(1)
            bp = session.add_breakpoint("helpers.py", line)[0]
            stop = session.run(10**9)
            assert stop.reason == "breakpoint"
            session.remove_breakpoint(bp["id"])
            result = {}
            runner = threading.Thread(
                target=lambda: result.update(stop=session.cont()), daemon=True
            )
            runner.start()
            other = second.attach(sid=session.sid)
            deadline = time.monotonic() + 10
            while other.get_time() < stop.time + 100 and time.monotonic() < deadline:
                time.sleep(0.01)
            other.pause()
            runner.join(timeout=30)
            assert not runner.is_alive()
            paused = result["stop"]
            assert paused.reason == "breakpoint"
            assert stop.time + 100 <= paused.time
            assert session.detach() is not None

    def _raw(self, host, port, lines: list[bytes]) -> list[dict]:
        """Send each line on one raw connection; one response per line."""
        with socket.create_connection((host, port), timeout=10) as sock:
            with sock.makefile("rb") as f:
                out = []
                for line in lines:
                    sock.sendall(line)
                    reply = f.readline()
                    assert reply, f"connection closed after {line!r}"
                    out.append(json.loads(reply))
                return out

    @pytest.mark.parametrize(
        "bad",
        [
            b"{not json\n",
            b'{"id": 3, "method": "attach", '
            b'"params": {"seed": {"__type__": "Nope"}}}\n',
        ],
        ids=["not-json", "unknown-tag"],
    )
    def test_undecodable_line_answered_with_null_id(self, bad):
        design, hub, host, port = _serve()
        hello = b'{"id": 4, "method": "hello", "params": {}}\n'
        with hub:
            err, ok = self._raw(host, port, [bad, hello])
        assert err["id"] is None
        assert err["kind"] == "WireError" and err["error"]
        assert ok["id"] == 4 and ok["result"]["protocol"] == 2

    def test_undecodable_line_never_reuses_the_previous_id(self):
        design, hub, host, port = _serve()
        with hub:
            first, err, ok = self._raw(host, port, [
                b'{"id": 7, "method": "hello", "params": {}}\n',
                b"{not json\n",
                b'{"id": 8, "method": "hello", "params": {}}\n',
            ])
        assert first["id"] == 7 and "result" in first
        assert err["id"] is None and "error" in err
        assert ok["id"] == 8 and "result" in ok

    def test_line_at_the_cap_is_served(self):
        """A request line of exactly MAX_REQUEST_LINE bytes, newline
        included, is an ordinary request: answered, and the connection
        keeps serving."""
        _design, hub, host, port = _serve()
        req = b'{"id": 5, "method": "hello", "params": {}}'
        longest = req + b" " * (MAX_REQUEST_LINE - len(req) - 1) + b"\n"
        hello = b'{"id": 6, "method": "hello", "params": {}}\n'
        with hub:
            first, second = self._raw(host, port, [longest, hello])
        assert first["id"] == 5 and first["result"]["protocol"] == 2
        assert second["id"] == 6 and "result" in second

    def test_connect_burst_waits_on_no_backlog(self):
        """60 back-to-back connect-and-close cycles: none waits for a TCP
        retry, which a backlog of socketserver's default 5 costs ~1 s."""
        _design, hub, host, port = _serve()
        with hub:
            assert slowest_connect((host, port)) < 0.5

    def test_needs_compiled_design(self):
        with pytest.raises(HubError, match="repro.compile"):
            DebugHub(Counter())


def _spin():
    """An RV32 core looping forever: a run ends only when it is stopped."""
    return RV32Core(assemble("loop:\n addi a0, a0, 1\n j loop\n").words, 64)


class TestNativeRuns:
    """A session without stimulus free-runs through ``Simulator.run()``,
    so the native kernel runs it, timeline or not."""

    def test_only_stimulus_free_sessions_run_natively(self):
        design, hub, host, port = _serve(options=SessionOptions(snapshots=16))
        with hub, HubClient(host, port) as client:
            free = client.attach()
            free.poke("en", 1)
            free.reset(1)
            stop = free.run(500)
            assert (stop.reason, stop.cycles, stop.time) == ("done", 500, 501)
            stats = free.stats()
            assert stats["timeline_entries"] == 16
            if native._compiler()[1] is not None:
                assert stats["native_cycles"] == 500
            seeded = client.attach(seed=3)
            seeded.reset(1)
            assert seeded.run(500).cycles == 500
            assert seeded.stats()["native_cycles"] == 0

    @needs_cc
    def test_pause_stops_an_endless_run_that_can_reverse(self):
        design, hub, host, port = _serve(_spin, options=SessionOptions(snapshots=64))
        with hub, HubClient(host, port) as first, HubClient(host, port) as second:
            session = first.attach()
            session.reset(1)
            result = {}
            runner = threading.Thread(
                target=lambda: result.update(stop=session.run(10**9)), daemon=True
            )
            runner.start()
            other = second.attach(sid=session.sid)
            deadline = time.monotonic() + 10
            while other.get_time() < 100_000 and time.monotonic() < deadline:
                time.sleep(0.01)
            seen = other.get_time()
            other.pause()
            runner.join(timeout=30)
            assert not runner.is_alive()
            paused = result["stop"]
            assert paused.reason == "breakpoint"
            assert 100_000 <= seen <= paused.time
            stats = session.stats()
            assert stats["native_cycles"] >= seen - 1
            assert stats["timeline_entries"] == 64
            back = session.reverse_step()
            assert back.reason == "breakpoint"
            assert back.time == paused.time - 1
            assert session.detach() is not None

    def test_run_to_completion_matches_a_stepped_simulator(self):
        bench = benchmark_by_name("vvadd")
        design = repro.compile(RV32Core(assemble(bench.source).words, 8192))
        options = SessionOptions(snapshots=64)
        ref = Simulator(design.low, options=options)
        ref.reset(1)
        while not ref.finished:
            ref.step(1)
        with DebugHub(design, options=options) as hub:
            host, port = hub.serve_background()
            with HubClient(host, port) as client:
                session = client.attach()
                session.reset(1)
                stop = session.run(200_000)
                assert (stop.reason, stop.exit_code) == ("done", 0)
                assert stop.cycles == ref.get_time() - 1
                assert session.state_digest() == ref.state_digest()
                # The 64 retained cycles, and the current one the walk adds.
                window = session.history("pc", limit=100)
                samples = ref.history(window["path"])
                assert window["samples"] == [list(x) for x in samples]
                now = ref.get_time()
                assert [t for t, _pc in samples] == list(range(now - 64, now + 1))
                assert session.peek("tohost") == bench.expected

    def test_a_failed_detach_leaves_the_session_runnable(self):
        """A detach whose wait for the stop fails still removes the abort
        callback it registered, so the session's next run is not cut
        short."""
        design = repro.compile(Counter())
        session = LocalSession(make_runtime(design, Simulator(design.low)))
        session.poke("en", 1)
        session.reset(1)
        session.stop_timeout = 0.01
        session._state = "running"  # a run whose stop never arrives
        with pytest.raises(SessionError, match="no stop"):
            session.detach()
        session._state = "idle"
        stop = session.run(500)
        assert (stop.reason, stop.cycles, stop.time) == ("done", 500, 501)

    @pytest.mark.parametrize("seed", [None, 3], ids=["free", "seeded"])
    def test_close_aborts_a_run_in_flight(self, seed):
        """Closing the hub detaches every session without waiting out a
        ``run`` that never ends on its own, native or stepped."""
        design, hub, host, port = _serve(_spin)
        with HubClient(host, port) as client:
            session = client.attach(seed=seed)
            session.reset(1)

            def run():
                with contextlib.suppress(SessionError):
                    session.run(10**9)  # the hub closes under it

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            (owned,) = hub._sessions.values()
            deadline = time.monotonic() + 10
            while owned.session._thread is None and time.monotonic() < deadline:
                time.sleep(0.01)
            pump = owned.session._thread
            assert owned.state == "running"
            closer = threading.Thread(target=hub.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "hub.close() waited for the run"
            pump.join(timeout=10)
            assert not pump.is_alive()
            runner.join(timeout=10)
            assert not runner.is_alive()

    def test_busy_sessions_leave_the_hub_answering(self):
        """Sessions blocked in endless runs hold no shared worker pool: a
        further connection gets its hello, attach and pause answered, and
        closing the hub ends every run."""
        n = (os.cpu_count() or 1) + 4
        design, hub, host, port = _serve(_spin)
        # A bounded timeout: a failing run of this test must not wait out
        # the 300 s default on each client.
        clients = [HubClient(host, port, timeout=30) for _ in range(n)]
        try:
            runners = []
            for client in clients:
                session = client.attach()
                session.reset(1)
                runner = threading.Thread(
                    target=_run_until_closed, args=(session,), daemon=True
                )
                runner.start()
                runners.append((session, runner))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                s["state"] != "running" for s in hub.list_sessions()
            ):
                time.sleep(0.01)
            assert [s["state"] for s in hub.list_sessions()] == ["running"] * n
            with HubClient(host, port, timeout=5) as other:
                t0 = time.monotonic()
                assert other.hello()["sessions"] == n
                first, first_runner = runners[0]
                other.attach(sid=first.sid).pause()
                assert time.monotonic() - t0 < 5
                first_runner.join(timeout=10)
                assert not first_runner.is_alive()
            closer = threading.Thread(target=hub.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "hub.close() waited for the runs"
            for _session, runner in runners:
                runner.join(timeout=10)
                assert not runner.is_alive()
            assert hub.session_count == 0
        finally:
            hub.close()
            for client in clients:
                client.close()


    def test_closing_a_client_wakes_its_call_in_flight(self):
        """A client closed while another thread waits on its endless run
        returns at once; the session keeps running on the hub."""
        design, hub, host, port = _serve(_spin)
        with hub:
            client = HubClient(host, port)
            session = client.attach()
            session.reset(1)
            runner = threading.Thread(
                target=_run_until_closed, args=(session,), daemon=True
            )
            runner.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and (
                hub.list_sessions()[0]["state"] != "running"
            ):
                time.sleep(0.01)
            closer = threading.Thread(target=client.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "HubClient.close() waited for the run"
            runner.join(timeout=10)
            assert not runner.is_alive()
            assert hub.list_sessions()[0]["state"] == "running"


def _run_until_closed(session) -> None:
    """Run an endless session until a pause or the hub's close ends it."""
    with contextlib.suppress(SessionError, OSError):
        session.run(10**9)


class TestEviction:
    def test_idle_sessions_evicted(self):
        design, hub, host, port = _serve(idle_ttl=0.1)
        with hub, HubClient(host, port) as client:
            session = client.attach()
            session.reset(1)
            deadline = time.monotonic() + 5.0
            while hub.session_count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert hub.session_count == 0
            with pytest.raises(SessionError, match="no session"):
                client.attach(sid=session.sid)

    def test_running_sessions_survive_the_sweep(self):
        design = repro.compile(Counter())
        with DebugHub(design, idle_ttl=0.01) as hub:
            ds = hub.attach()
            ds.last_used = 0.0  # ancient, but...
            ds.session._state = "running"  # ...busy: never evicted
            assert hub.evict_idle() == []
            ds.session._state = "idle"
            assert hub.evict_idle() == [ds.sid]
            assert hub.session_count == 0

    def test_evict_without_ttl_is_a_noop(self):
        design = repro.compile(Counter())
        with DebugHub(design) as hub:
            hub.attach()
            assert hub.evict_idle() == []
            assert hub.session_count == 1


class TestLintGate:
    def test_strict_defaults_to_error_at_the_hub(self):
        # A standalone Simulator defaults the gate off; a design served
        # to many engineers hardens to "error" unless told otherwise.
        design = repro.compile(Loopy())
        with pytest.raises(LintError) as exc_info:
            DebugHub(design)
        assert any(d.rule == "comb-cycle" for d in exc_info.value.diagnostics)

    def test_explicit_strict_off_wins(self):
        # With the gate explicitly off the comb loop reaches the code
        # generator (which also rejects it) — proving lint didn't run.
        from repro.sim.compiler import CombLoopError

        design = repro.compile(Loopy())
        with pytest.raises(CombLoopError):
            DebugHub(design, options=SessionOptions(strict="off"))

    def test_strict_warn_reports_without_blocking(self):
        from repro.lint import LintWarning

        design = repro.compile(Sloppy())
        with pytest.warns(LintWarning):
            hub = DebugHub(design, options=SessionOptions(strict="warn"))
        hub.close()

    def test_sessions_do_not_regate(self):
        # The hub vets the design once; per-session options carry
        # strict="off" so every attach skips the (already-paid) gate.
        design = repro.compile(Counter())
        with DebugHub(design, options=SessionOptions(strict="error")) as hub:
            assert hub.options.strict == "off"
            hub.attach()


class TestSymbolTable:
    def test_sessions_share_one_in_memory_table(self):
        design = repro.compile(Accumulator())
        with DebugHub(design) as hub:
            first, second = hub.attach(), hub.attach()
            table = first.session.runtime.symtable
            assert isinstance(table, MemorySymbolTable)
            assert second.session.runtime.symtable is table
            assert table is hub.symtable

    def test_a_hub_leaves_no_file_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with DebugHub(repro.compile(Counter())) as hub:
            hub.attach()
            assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.iterdir()) == []


class TestShardEndpoint:
    def test_sweep_through_a_hub_session(self):
        design, hub, host, port = _serve(Accumulator)
        _f, line = line_of(design, "acc")
        with hub, HubClient(host, port) as client:
            session = client.attach()
            with pytest.raises(SessionError, match="no breakpoints"):
                session.shard_sweep(shards=2, cycles=20)
            session.add_breakpoint("helpers.py", line)
            report = session.shard_sweep(shards=2, cycles=20)
            assert report["ok"] is True
            assert report["shards"] == 2
            assert "2 shard(s)" in report["summary"]


class TestObservability:
    def test_hub_metrics(self):
        design, hub, host, port = _serve(obs="metrics")
        with hub, HubClient(host, port) as client:
            session = client.attach(seed=1)
            session.reset(1)
            stop = session.run(25)
            assert stop.reason == "done"
            session.detach()
            m = hub.obs.metrics
            assert m.counter("hub_attaches_total").value == 1
            assert m.gauge("hub_sessions_active").value == 0
            assert m.histogram("hub_attach_seconds").count == 1
            assert m.counter("hub_requests_total").value >= 4
            assert m.counter("hub_session_cycles_total").value >= 25
