"""SessionOptions: the one configuration record across Simulator,
ManyWorldsSimulator, ShardSession and the hub — and the only way to pass
session settings to them."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
import repro.hub
import repro.sim
from repro.hub import DebugHub
from repro.shard import ShardSession
from repro.sim import ManyWorldsSimulator, SessionOptions, Simulator
from tests.helpers import Accumulator, Counter

#: the four session fields, in declaration order, with their defaults
FIELDS = {
    "obs": None,
    "strict": None,
    "fast": True,
    "snapshots": 0,
}

#: timeline knobs that are gone: ``snapshots=N`` is the one way to keep
#: history
RETIRED = ("snapshot_bytes", "snapshot_codec", "keyframe_every")


class TestRecord:
    def test_sim_and_hub_export_one_class(self):
        assert repro.sim.SessionOptions is repro.hub.SessionOptions

    def test_fields_and_defaults(self):
        got = {f.name: f.default for f in dataclasses.fields(SessionOptions)}
        assert got == FIELDS
        assert list(got) == list(FIELDS)

    def test_store_is_a_constant_not_a_field(self):
        """There is one value store: ``store`` names it and sets nothing."""
        assert SessionOptions().store == SessionOptions.store == "list"
        assert repro.sim.resolve_store_kind(SessionOptions().store) == "list"
        with pytest.raises(TypeError, match="store"):
            SessionOptions(store="list")

    @pytest.mark.parametrize("name", RETIRED)
    def test_retired_timeline_knob_is_a_type_error(self, name):
        with pytest.raises(TypeError, match=name):
            SessionOptions(snapshots=8, **{name: 1})


def _build(ctor: str, d, **kw):
    if ctor == "Simulator":
        return Simulator(d.low, **kw)
    if ctor == "ManyWorldsSimulator":
        return ManyWorldsSimulator(d.low, 2, **kw)
    if ctor == "ShardSession":
        return ShardSession(d, **kw)
    return DebugHub(d, **kw)


#: (constructor, session keyword it no longer takes); ``store`` is no
#: setting at all any more
_REMOVED = (
    [("Simulator", name) for name in [*FIELDS, *RETIRED, "store"]]
    + [
        ("ManyWorldsSimulator", name)
        for name in [*FIELDS, *RETIRED]
        if name not in ("store", "fast")
    ]
    + [("ShardSession", "fast"), ("ShardSession", "obs")]
    # DebugHub's own obs= is hub-side telemetry, not a session setting.
    + [("DebugHub", name) for name in [*FIELDS, *RETIRED, "store"] if name != "obs"]
)


class TestOptionsOnly:
    @pytest.mark.parametrize(("ctor", "name"), _REMOVED)
    def test_session_keyword_is_a_type_error(self, ctor, name):
        d = repro.compile(Counter())
        with pytest.raises(TypeError, match=name):
            _build(ctor, d, **{name: FIELDS.get(name)})

    def test_none_means_defaults(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low, options=None)
        assert sim.timeline is None
        assert sim._fast is True


class TestSimulator:
    def test_options_equivalent_without_warning(self):
        d = repro.compile(Counter())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulator(d.low, options=SessionOptions(snapshots=8))
        assert sim.timeline is not None


class TestShardSession:
    def test_options_flow_through(self):
        d = repro.compile(Accumulator())
        session = ShardSession(d, options=SessionOptions(fast=False))
        assert session.fast is False
        assert session.options.fast is False


class TestHub:
    def test_options_configure_sessions(self):
        d = repro.compile(Counter())
        with DebugHub(d, options=SessionOptions(snapshots=16)) as hub:
            assert hub.options.snapshots == 16
            # The hub vets the design once; sessions never re-gate.
            assert hub.options.strict == "off"
            ds = hub.attach()
            assert ds.session._sim.timeline is not None


def test_simulator_and_shard_load_no_hub_module():
    """The simulator reads its own settings: building one, and importing
    the shard farm, pulls in nothing from the debug hub."""
    code = (
        "import sys, repro\n"
        "from repro.sim import Simulator\n"
        "from tests.helpers import Counter\n"
        "Simulator(repro.compile(Counter()).low).step(2)\n"
        "import repro.shard\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.hub')))\n"
    )
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        env=env,
    )
    assert out.stdout.strip() == "[]"
