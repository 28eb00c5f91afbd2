"""DAP adapter tests: the four Fig. 4 panels as protocol data."""


import repro
from repro.client import DapAdapter, ScriptedDapSession
from repro.sim import SessionOptions, Simulator
from tests.helpers import Accumulator, TwoLeaves, line_of, make_runtime


def _adapter(mod_cls=Accumulator):
    d = repro.compile(mod_cls())
    sim = Simulator(d.low, options=SessionOptions(snapshots=32))
    rt = make_runtime(d, sim)
    adapter = DapAdapter(rt)
    return d, sim, rt, adapter


class TestRequests:
    def test_initialize_capabilities(self):
        _d, _sim, _rt, ad = _adapter()
        resp = ad.handle({"command": "initialize", "seq": 1})
        assert resp["success"]
        assert resp["body"]["supportsStepBack"]
        assert resp["body"]["supportsConditionalBreakpoints"]

    def test_set_breakpoints_verified(self):
        d, _sim, rt, ad = _adapter()
        _f, line = line_of(d, "acc")
        resp = ad.handle(
            {
                "command": "setBreakpoints",
                "arguments": {
                    "source": {"path": "helpers.py"},
                    "breakpoints": [{"line": line}, {"line": 1}],
                },
            }
        )
        results = resp["body"]["breakpoints"]
        assert results[0]["verified"] is True
        assert results[1]["verified"] is False  # line 1 maps to nothing
        assert len(rt.list_breakpoints()) == 1

    def test_set_breakpoints_replaces(self):
        d, _sim, rt, ad = _adapter()
        _f, line = line_of(d, "acc")
        _f, line2 = line_of(d, "total")
        for l in (line, line2):
            ad.handle(
                {
                    "command": "setBreakpoints",
                    "arguments": {
                        "source": {"path": "helpers.py"},
                        "breakpoints": [{"line": l}],
                    },
                }
            )
        # second call replaced the first set
        assert {bp.rec.line for bp in rt.list_breakpoints()} == {line2}

    def test_unsupported_command(self):
        _d, _sim, _rt, ad = _adapter()
        resp = ad.handle({"command": "gotoTargets"})
        assert not resp["success"]


class TestStoppedSession:
    def _scripted(self, mod_cls, pokes, bp_sink, at_stop, controls, cycles=3):
        d = repro.compile(mod_cls())
        sim = Simulator(d.low, options=SessionOptions(snapshots=32))
        rt = make_runtime(d, sim)
        ad = DapAdapter(rt)
        session = ScriptedDapSession(ad, at_stop, controls)
        rt.attach()
        _f, line = line_of(d, bp_sink)
        for k, v in pokes.items():
            sim.poke(k, v)
        sim.reset()
        ad.handle(
            {
                "command": "setBreakpoints",
                "arguments": {
                    "source": {"path": "helpers.py"},
                    "breakpoints": [{"line": line}],
                },
            }
        )
        sim.step(cycles)
        return ad, session

    def test_stopped_event_emitted(self):
        ad, session = self._scripted(
            Accumulator, {"en": 1, "d": 5}, "acc", [], ["continue", "continue", "continue"]
        )
        stopped = [e for e in ad.events if e["event"] == "stopped"]
        assert stopped and stopped[0]["body"]["reason"] == "breakpoint"
        assert stopped[0]["body"]["hgdbTime"] == 1

    def test_threads_panel_B(self):
        """Fig. 4B: concurrent hardware threads at one stop."""
        ad, session = self._scripted(
            TwoLeaves,
            {"x": 6},
            "o",
            [{"command": "threads"}],
            ["disconnect"],
            cycles=1,
        )
        threads = session.stops[0][0]["body"]["threads"]
        names = [t["name"] for t in threads]
        assert names == ["TwoLeaves.a", "TwoLeaves.b"]

    def test_variables_panel_A(self):
        """Fig. 4A: local and generator variables of the selected frame."""
        ad, session = self._scripted(
            Accumulator,
            {"en": 1, "d": 7},
            "acc",
            [
                {"command": "stackTrace", "arguments": {"threadId": 0}},
                {"command": "scopes", "arguments": {"frameId": 1}},
            ],
            ["disconnect"],
        )
        stack_resp, scopes_resp = session.stops[0]
        assert stack_resp["body"]["stackFrames"][0]["name"] == "Accumulator"
        scopes = scopes_resp["body"]["scopes"]
        assert [s["name"] for s in scopes] == ["Local", "Generator Variables"]
        local_ref = scopes[0]["variablesReference"]
        vars_resp = ad.handle(
            {"command": "variables", "arguments": {"variablesReference": local_ref}}
        )
        byname = {v["name"]: v["value"] for v in vars_resp["body"]["variables"]}
        assert byname["d"].startswith("7")

    def test_evaluate_at_stop(self):
        ad, session = self._scripted(
            Accumulator,
            {"en": 1, "d": 7},
            "acc",
            [{"command": "evaluate", "arguments": {"expression": "d * 2"}}],
            ["disconnect"],
        )
        assert session.stops[0][0]["body"]["result"] == "14"

    def test_step_back_panel_C(self):
        """Fig. 4C: reverse-step control."""
        ad, session = self._scripted(
            Accumulator,
            {"en": 1, "d": 5},
            "acc",
            [],
            ["next", "stepBack", "disconnect"],
        )
        stopped = [e["body"]["description"] for e in ad.events if e["event"] == "stopped"]
        # stop1 (acc line) -> next -> stop2 (total line) -> stepBack -> stop3 == stop1
        assert len(stopped) >= 3
        assert stopped[0] == stopped[2]

    def test_conditional_breakpoint_panel_D(self):
        """Fig. 4D: conditional breakpoints from the IDE."""
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        ad = DapAdapter(rt)
        ScriptedDapSession(ad, [], ["disconnect"])  # installs its on_hit hook
        rt.attach()
        _f, line = line_of(d, "acc")
        ad.handle(
            {
                "command": "setBreakpoints",
                "arguments": {
                    "source": {"path": "helpers.py"},
                    "breakpoints": [{"line": line, "condition": "acc >= 10"}],
                },
            }
        )
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 5)
        sim.step(4)
        stopped = [e for e in ad.events if e["event"] == "stopped"]
        assert stopped[0]["body"]["hgdbTime"] == 3  # acc first reaches 10
