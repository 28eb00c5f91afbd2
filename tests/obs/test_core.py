"""Obs facade: mode resolution precedence and the off-mode fast path,
including bit-identical simulation with observability disabled."""

import pytest

import repro
from repro.obs import (
    NULL_OBS,
    OBS_ENV,
    Obs,
    configure,
    make_obs,
    resolve_mode,
)
from repro.obs.tracer import NULL_SPAN
from repro.shard import BreakpointSpec, ShardSpec
from repro.shard.worker import run_shard
from repro.sim import SessionOptions, Simulator
from repro.symtable import SQLiteSymbolTable, write_symbol_table
from tests.helpers import Accumulator, line_of


@pytest.fixture(autouse=True)
def _clean_configure():
    yield
    configure(None)


class TestModeResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        assert resolve_mode(None) == "off"

    def test_env_var_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "metrics")
        assert resolve_mode(None) == "metrics"
        monkeypatch.setenv(OBS_ENV, " TRACE ")  # trimmed + case-folded
        assert resolve_mode(None) == "trace"

    def test_configure_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "trace")
        configure("metrics")
        assert resolve_mode(None) == "metrics"

    def test_explicit_mode_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "trace")
        configure("metrics")
        assert resolve_mode("off") == "off"

    def test_unknown_modes_rejected(self):
        with pytest.raises(ValueError, match="unknown obs mode"):
            resolve_mode("verbose")
        with pytest.raises(ValueError, match="unknown obs mode"):
            configure("verbose")
        with pytest.raises(ValueError, match="unknown obs mode"):
            Obs("verbose")


class TestObsFacade:
    def test_depths_are_cumulative(self):
        off = make_obs("off")
        metrics = make_obs("metrics")
        trace = make_obs("trace")
        assert off.metrics is None and off.tracer is None
        assert metrics.metrics is not None and metrics.tracer is None
        assert trace.metrics is not None and trace.tracer is not None

    def test_off_returns_the_shared_null_singleton(self):
        assert make_obs("off") is NULL_OBS
        assert make_obs("off").span("x") is NULL_SPAN
        assert NULL_OBS.to_wire() is None
        assert not NULL_OBS.enabled

    def test_existing_obs_is_shared_not_copied(self):
        obs = make_obs("metrics", labels={"shard": "1"})
        assert make_obs(obs) is obs

    def test_to_wire_shape(self):
        obs = make_obs("trace", proc="p")
        with obs.span("x"):
            pass
        wire = obs.to_wire()
        assert set(wire) == {"metrics", "spans"}
        assert make_obs("metrics").to_wire().get("spans") is None


class TestOffModeParity:
    """Tier-1 guard: $REPRO_OBS=off must not perturb simulation."""

    def _run(self, obs):
        d = repro.compile(Accumulator())
        st = SQLiteSymbolTable(write_symbol_table(d))
        f, line = line_of(d, "acc")
        spec = ShardSpec(
            shard_id=0, seed=7, cycles=40,
            breakpoints=(BreakpointSpec(f, line),),
            overrides={"en": 1},
        )
        return run_shard(d.low, st, spec, obs=obs)

    def test_off_is_bit_identical_to_metrics_and_trace(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "off")
        base = self._run(None)  # resolves to off via the env var
        assert base.obs is None
        for mode in ("metrics", "trace"):
            got = self._run(mode)
            assert got.state_digest == base.state_digest
            assert got.hits == base.hits
            assert got.obs is not None

    def test_simulator_off_state_matches_enabled(self):
        def digest(mode):
            d = repro.compile(Accumulator())
            sim = Simulator(d.low, options=SessionOptions(obs=mode))
            sim.poke("en", 1)
            sim.poke("d", 5)
            sim.reset()
            sim.step(50)
            return sim.state_digest()

        assert digest("off") == digest("metrics") == digest("trace")

    def test_stats_available_even_when_off(self):
        d = repro.compile(Accumulator())
        sim = Simulator(d.low)  # obs defaults to off
        sim.reset()
        sim.step(3)
        stats = sim.stats()
        assert stats["ticks"] == 4  # reset tick + 3 steps
        assert sim.obs is NULL_OBS
