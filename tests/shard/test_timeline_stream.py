"""Shard timeline streaming: compressed state history over the wire and
stateful divergence localization in the aggregator."""

from __future__ import annotations

import copy
import json

import pytest

import repro
from repro.shard import ShardReport, ShardResult, ShardSession, ShardSpec
from repro.shard.wire import decode_line, done_event, encode_line
from tests.helpers import Accumulator


@pytest.fixture(scope="module")
def acc():
    return repro.compile(Accumulator())


def _sweep(session, timeline_cycles=12, seeds=(5, 5, 9), cycles=30):
    specs = [
        ShardSpec(i, seed=s, cycles=cycles, timeline_cycles=timeline_cycles)
        for i, s in enumerate(seeds)
    ]
    return session.run(specs)


class TestStreaming:
    def test_inline_workers_ship_timelines(self, acc):
        with ShardSession(acc, workers=0) as session:
            report = _sweep(session)
        assert all(r.timeline is not None for r in report.results)
        for r in report.results:
            assert set(r.timeline) == {"v", "state", "entries"}
            assert len(r.timeline["entries"]) <= 12
        # Healthy replicas: digests agree AND no localized divergence.
        assert not report.state_divergences()
        assert report.timeline_divergences() == []

    def test_timeline_disabled_by_default(self, acc):
        with ShardSession(acc, workers=0) as session:
            report = session.sweep(shards=2, cycles=10)
        assert all(r.timeline is None for r in report.results)

    def test_timeline_survives_json_wire(self, acc):
        with ShardSession(acc, workers=0) as session:
            report = _sweep(session, seeds=(3,))
        result = report.results[0]
        line = encode_line(done_event(result))
        back = ShardResult.from_wire(decode_line(line)["result"])
        assert back.timeline == result.timeline

    def test_forked_workers_match_inline(self, acc):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork unavailable")
        with ShardSession(acc, workers=0) as inline:
            a = _sweep(inline, seeds=(7,))
        with ShardSession(acc, workers=1) as forked:
            b = _sweep(forked, seeds=(7,))
        assert a.results[0].timeline == b.results[0].timeline

    def test_replicated_sweep_report_is_json_serializable(self, acc):
        with ShardSession(acc, workers=0) as session:
            report = _sweep(session)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["timeline_divergences"] == []


class TestLocalization:
    def _divergent_report(self, acc):
        """A replicated sweep with shard 1's shipped history doctored at
        a known cycle/signal — a synthetic determinism bug."""
        with ShardSession(acc, workers=0) as session:
            report = _sweep(session, seeds=(5, 5))
        bad = copy.deepcopy(report.results[1].timeline)
        target = bad["entries"][3]  # a delta entry: flip its first value
        assert "d" in target and target["d"]
        target["d"][0][1][0] ^= 1
        report.results[1].timeline = bad
        return report, target["t"], target["d"][0][0]

    def test_first_divergent_cycle_and_signal_named(self, acc):
        report, t, idx = self._divergent_report(acc)
        divs = report.timeline_divergences()
        assert len(divs) == 1
        d = divs[0]
        assert (d.seed, d.shard_a, d.shard_b) == (5, 0, 1)
        assert d.time == t
        # The site resolves to a hierarchical path, not a raw index.
        assert d.what.startswith("Accumulator.")
        assert d.value_a != d.value_b

    def test_summary_and_json_carry_localization(self, acc):
        report, t, _idx = self._divergent_report(acc)
        text = report.summary()
        assert "timeline divergence localized" in text
        assert f"@ cycle {t}" in text
        blob = report.to_json()
        assert blob["timeline_divergences"][0]["time"] == t

    def test_single_shard_seeds_not_compared(self, acc):
        with ShardSession(acc, workers=0) as session:
            report = _sweep(session, seeds=(1, 2, 3))
        assert report.timeline_divergences() == []

    def test_unnamed_report_falls_back_to_indices(self):
        wire_a = {"v": 1, "state": [2], "entries": [{"t": 0, "k": [1]}]}
        wire_b = {"v": 1, "state": [2], "entries": [{"t": 0, "k": [3]}]}
        report = ShardReport([
            ShardResult(0, seed=1, cycles=1, timeline=wire_a,
                        state_digest="a"),
            ShardResult(1, seed=1, cycles=1, timeline=wire_b,
                        state_digest="b"),
        ])
        d = report.timeline_divergences()[0]
        assert d.what == "signal[2]"
        assert (d.value_a, d.value_b) == (1, 3)
