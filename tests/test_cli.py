"""CLI tests: info, vcd-info, and scripted replay sessions."""

import pytest

import repro
from repro.cli import main
from repro.sim import Simulator
from repro.symtable import write_symbol_table
from repro.trace import VcdWriter
from tests.helpers import Accumulator, line_of


@pytest.fixture()
def artifacts(tmp_path):
    """A symbol table + VCD pair on disk, as a real workflow produces."""
    d = repro.compile(Accumulator())
    sym = str(tmp_path / "symbols.db")
    write_symbol_table(d, sym)
    vcd = str(tmp_path / "run.vcd")
    w = VcdWriter(vcd)
    sim = Simulator(d.low, trace=w)
    sim.reset()
    sim.poke("en", 1)
    sim.poke("d", 5)
    sim.step(6)
    w.close()
    return d, sym, vcd


class TestInfo:
    def test_symbol_table_summary(self, artifacts, capsys):
        _d, sym, _vcd = artifacts
        assert main(["info", sym]) == 0
        out = capsys.readouterr().out
        assert "top module : Accumulator" in out
        assert "breakpoints:" in out
        assert "helpers.py" in out

    def test_vcd_summary(self, artifacts, capsys):
        _d, _sym, vcd = artifacts
        assert main(["vcd-info", vcd]) == 0
        out = capsys.readouterr().out
        assert "clock    : Accumulator.clock" in out
        assert "scope Accumulator" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["vcd-info", str(tmp_path / "nope.vcd")]) == 1
        assert "error" in capsys.readouterr().err


class TestReplay:
    def test_scripted_session(self, artifacts, capsys):
        d, sym, vcd = artifacts
        _f, line = line_of(d, "acc")
        rc = main(
            [
                "replay", vcd, sym,
                "-b", f"helpers.py:{line}",
                "-c", "locals; c; p acc; q",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "stopped at helpers.py" in out
        assert "acc = " in out

    def test_no_breakpoints_runs_through(self, artifacts, capsys):
        _d, sym, vcd = artifacts
        assert main(["replay", vcd, sym, "-c", "q"]) == 0
        out = capsys.readouterr().out
        assert "replay finished" in out

    def test_explicit_clock(self, artifacts):
        _d, sym, vcd = artifacts
        assert main(["replay", vcd, sym, "--clock", "Accumulator.clock", "-c", "q"]) == 0


class TestShard:
    def test_shard_sweep(self, tmp_path, capsys):
        import json

        d = repro.compile(Accumulator())
        _f, line = line_of(d, "acc")
        out = str(tmp_path / "report.json")
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "3", "--workers", "2", "--cycles", "25",
                "-b", f"helpers.py:{line}",
                "-o", "en=1",
                "--json", out,
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "3 shard(s)" in text
        assert "hit histogram" in text
        with open(out) as f:
            report = json.load(f)
        assert report["ok"] and len(report["shards"]) == 3
        assert report["total_cycles"] == 75

    def test_shard_with_condition_and_inline_workers(self, capsys):
        d = repro.compile(Accumulator())
        _f, line = line_of(d, "acc")
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "2", "--workers", "0", "--cycles", "30",
                "-b", f"helpers.py:{line} if acc >= 100",
                "-o", "en=1",
            ]
        )
        assert rc == 0
        assert "first hits" in capsys.readouterr().out

    def test_shard_supervision_flags(self, tmp_path, capsys):
        """--retries/--deadline arm the supervision layer; a healthy
        sweep still completes on first attempts."""
        import json

        d = repro.compile(Accumulator())
        _f, line = line_of(d, "acc")
        out = str(tmp_path / "report.json")
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "2", "--workers", "2", "--cycles", "20",
                "--retries", "2", "--deadline", "60", "--timeout", "120",
                "-b", f"helpers.py:{line}",
                "-o", "en=1",
                "--json", out,
            ]
        )
        assert rc == 0
        with open(out) as f:
            report = json.load(f)
        assert report["ok"]
        assert report["total_attempts"] == 2
        assert report["retried"] == [] and report["failed"] == []

    def test_sweep_alias_with_worlds(self, tmp_path, capsys):
        """``sweep --worlds N`` packs shards into world groups, and the
        aggregated report is digest-identical to the plain run."""
        import json

        plain_out = str(tmp_path / "plain.json")
        grouped_out = str(tmp_path / "grouped.json")
        args = [
            "tests.helpers:Accumulator",
            "--shards", "4", "--workers", "0", "--cycles", "40",
            "-o", "en=1",
        ]
        assert main(["shard", *args, "--json", plain_out]) == 0
        assert main(["sweep", *args, "--worlds", "2", "--json", grouped_out]) == 0
        with open(plain_out) as f:
            plain = json.load(f)
        with open(grouped_out) as f:
            grouped = json.load(f)
        assert grouped["state_digests"] == plain["state_digests"]
        assert len(grouped["shards"]) == 4
        assert grouped["total_cycles"] == plain["total_cycles"]

    def test_shard_bad_factory(self, capsys):
        assert main(["shard", "tests.helpers"]) == 2
        assert main(["shard", "tests.helpers:NoSuchThing"]) == 2
        err = capsys.readouterr().err
        assert "factory" in err

    def test_shard_malformed_args_exit_cleanly(self, capsys):
        assert main(["shard", "tests.helpers:Accumulator", "-b", "helpers.py"]) == 2
        assert main(["shard", "tests.helpers:Accumulator", "-o", "en"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestTimelineFlags:
    def test_replay_prints_timeline_window(self, artifacts, capsys):
        _d, sym, vcd = artifacts
        assert main(["replay", vcd, sym, "-c", "q"]) == 0
        out = capsys.readouterr().out
        assert "timeline: cycles 0.." in out
        assert "full VCD replay" in out

    def test_shard_timeline_streaming(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "report.json")
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "2", "--workers", "0", "--cycles", "20",
                "--timeline", "8",
                "-o", "en=1",
                "--json", out,
            ]
        )
        assert rc == 0
        with open(out) as f:
            report = json.load(f)
        assert report["timeline_divergences"] == []
        for shard in report["shards"]:
            assert shard["timeline"]["state"]
            assert len(shard["timeline"]["entries"]) <= 8


class TestObservability:
    def test_shard_trace_out_and_prometheus(self, tmp_path, capsys):
        import json

        d = repro.compile(Accumulator())
        _f, line = line_of(d, "acc")
        trace = str(tmp_path / "sweep.trace.json")
        prom = str(tmp_path / "sweep.prom")
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "2", "--workers", "2", "--cycles", "20",
                "-b", f"helpers.py:{line}",
                "-o", "en=1",
                "--trace-out", trace, "--prometheus", prom,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        with open(trace) as f:
            doc = json.load(f)
        procs = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {"coordinator", "shard 0", "shard 1"}
        with open(prom) as f:
            text = f.read()
        assert "# TYPE sim_ticks_total counter" in text

    def test_shard_trace_out_conflicts_with_weaker_obs(self, tmp_path, capsys):
        rc = main(
            [
                "shard", "tests.helpers:Accumulator",
                "--shards", "2", "--cycles", "5",
                "--obs", "metrics",
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "--trace-out needs --obs trace" in capsys.readouterr().err

    def test_stats_command(self, tmp_path, capsys):
        import json

        snap = str(tmp_path / "stats.json")
        prom = str(tmp_path / "stats.prom")
        trace = str(tmp_path / "stats.trace.json")
        rc = main(
            [
                "stats", "tests.helpers:Accumulator",
                "--cycles", "200", "--timeline", "16",
                "--json", snap, "--prometheus", prom, "--trace-out", trace,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "200 cycles in" in out
        assert "native free-run tier: o" in out  # "on", or "off (why)"
        assert "sim_ticks_total" in out
        with open(snap) as f:
            names = {m["name"] for m in json.load(f)["metrics"]}
        assert {
            "sim_ticks_total", "sim_timeline_entries", "shard_cycles_total",
        } <= names
        with open(prom) as f:
            assert "sim_ticks_total" in f.read()
        with open(trace) as f:
            doc = json.load(f)
        assert any(e["name"] == "shard.run" for e in doc["traceEvents"])

    def test_stats_bad_factory(self, capsys):
        assert main(["stats", "tests.helpers:NoSuchThing"]) == 2
