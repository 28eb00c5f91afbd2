"""``evaluate(expr, breakpoint_id=N)`` scopes to breakpoint N on every
session handle, and an id the symbol table does not know is an error —
never a silent evaluation in the design's top scope."""

import contextlib

import pytest

import repro
from repro.hub import DebugHub, HubClient, LocalSession, SessionError
from repro.sim import Simulator
from tests.helpers import Counter, line_of, make_runtime


@contextlib.contextmanager
def _local(design):
    sim = Simulator(design.low)
    yield LocalSession(make_runtime(design, sim))


@contextlib.contextmanager
def _remote(design):
    with DebugHub(design) as hub:
        host, port = hub.serve_background()
        with HubClient(host, port) as client:
            yield client.attach()


@pytest.fixture(params=[_local, _remote], ids=["local", "hub"])
def session_and_design(request):
    design = repro.compile(Counter())
    with request.param(design) as session:
        session.poke("en", 1)
        session.reset(1)
        session.run(3)
        yield session, design


class TestEvaluateBreakpointScope:
    def test_unknown_breakpoint_id_raises(self, session_and_design):
        session, _design = session_and_design
        assert session.evaluate("count") == 3  # the top scope still works
        with pytest.raises(SessionError, match="unknown breakpoint id 999"):
            session.evaluate("count", breakpoint_id=999)

    def test_known_breakpoint_id_scopes(self, session_and_design):
        session, design = session_and_design
        _f, line = line_of(design, "count")
        bp_id = session.add_breakpoint("helpers.py", line)[0]["id"]
        assert session.evaluate("count + 1", breakpoint_id=bp_id) == 4
