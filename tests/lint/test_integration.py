"""Lint wired into its entry points: the Simulator strict gate, the
``Design.lint()`` helper, the CLI subcommand, and the console command."""

import json

import pytest

import repro
from repro.cli import main
from repro.client import ConsoleDebugger
from repro.lint import LintError, LintWarning, Severity, resolve_gate
from repro.sim import SessionOptions, Simulator
from tests.helpers import Counter, make_runtime
from tests.lint.broken_designs import Loopy, Sloppy


class TestResolveGate:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "error")
        assert resolve_gate(False) == "off"
        assert resolve_gate(True) == "error"

    def test_env_spellings(self, monkeypatch):
        for value, mode in [
            ("", "off"),
            ("off", "off"),
            ("0", "off"),
            ("warn", "warn"),
            ("1", "warn"),
            ("true", "warn"),
            ("error", "error"),
            ("strict", "error"),
        ]:
            monkeypatch.setenv("REPRO_LINT", value)
            assert resolve_gate(None) == mode, value

    def test_unset_env_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT", raising=False)
        assert resolve_gate(None) == "off"

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "loud")
        with pytest.raises(ValueError, match="REPRO_LINT"):
            resolve_gate(None)


class TestSimulatorGate:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT", raising=False)
        d = repro.compile(Sloppy())
        sim = Simulator(d.low)  # no warning, no raise
        sim.reset()

    def test_strict_true_raises_on_error_finding(self):
        d = repro.compile(Loopy())
        with pytest.raises(LintError) as exc_info:
            Simulator(d.low, options=SessionOptions(strict=True))
        assert any(x.rule == "comb-cycle" for x in exc_info.value.diagnostics)

    def test_strict_true_passes_clean_design(self):
        d = repro.compile(Counter())
        Simulator(d.low, options=SessionOptions(strict=True)).reset()

    def test_strict_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "error")
        d = repro.compile(Sloppy())
        Simulator(d.low, options=SessionOptions(strict=False)).reset()

    def test_env_warn_emits_lint_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "warn")
        d = repro.compile(Sloppy())
        with pytest.warns(LintWarning, match="unused-signal"):
            sim = Simulator(d.low)
        sim.reset()  # warn mode never blocks simulation

    def test_env_error_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "error")
        d = repro.compile(Loopy())
        with pytest.raises(LintError):
            Simulator(d.low)


class TestDesignLint:
    def test_broken_design_reports_error(self):
        diags = repro.compile(Loopy()).lint()
        assert any(d.rule == "comb-cycle" for d in diags)

    def test_clean_design_reports_nothing(self):
        assert repro.compile(Counter()).lint() == []


class TestCliLint:
    def test_clean_factory_exits_zero(self, capsys):
        assert main(["lint", "tests.helpers:Counter"]) == 0
        assert "Counter: clean" in capsys.readouterr().out

    def test_error_finding_exits_one(self, capsys):
        assert main(["lint", "tests.lint.broken_designs:Loopy"]) == 1
        out = capsys.readouterr().out
        assert "comb-cycle" in out
        assert "broken_designs.py:" in out

    def test_warnings_only_exit_zero(self, capsys):
        assert main(["lint", "tests.lint.broken_designs:Sloppy"]) == 0
        out = capsys.readouterr().out
        assert "unused-signal" in out
        assert "width-trunc" in out

    def test_min_severity_hides_warnings(self, capsys):
        code = main(
            [
                "lint",
                "tests.lint.broken_designs:Sloppy",
                "--min-severity",
                "error",
            ]
        )
        assert code == 0
        assert "Sloppy: clean" in capsys.readouterr().out

    def test_exit_code_still_reflects_hidden_errors(self, capsys):
        # --min-severity only filters the report; an error finding must
        # fail the build even when the text is suppressed.
        code = main(
            [
                "lint",
                "tests.lint.broken_designs:Loopy",
                "--min-severity",
                "error",
            ]
        )
        assert code == 1
        assert "comb-cycle" in capsys.readouterr().out

    def test_bad_factory_spec_exits_two(self, capsys):
        assert main(["lint", "no.such.module:Thing"]) == 2
        assert "cannot load factory" in capsys.readouterr().err

    def test_non_module_factory_exits_two(self, capsys):
        code = main(["lint", "tests.lint.broken_designs:not_a_module"])
        assert code == 2
        assert "elaborating" in capsys.readouterr().err

    def test_bad_severity_exits_two(self, capsys):
        code = main(
            ["lint", "tests.helpers:Counter", "--min-severity", "loud"]
        )
        assert code == 2
        assert "unknown severity" in capsys.readouterr().err

    def test_json_single_design_document(self, capsys):
        assert main(["lint", "tests.lint.broken_designs:Loopy", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["design"] == "Loopy"
        assert doc["counts"].get("error", 0) >= 1
        first = doc["diagnostics"][0]
        assert {"rule", "severity", "message", "file", "line"} <= set(first)

    def test_json_multi_design_document(self, capsys):
        code = main(
            [
                "lint",
                "tests.helpers:Counter",
                "tests.lint.broken_designs:Sloppy",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        names = [d["design"] for d in doc["designs"]]
        assert names == ["Counter", "Sloppy"]


class TestConsoleLint:
    def _debugger(self, mod_cls):
        d = repro.compile(mod_cls())
        sim = Simulator(d.low)
        rt = make_runtime(d, sim)
        dbg = ConsoleDebugger(rt)
        rt.attach()
        return dbg

    def test_clean_design(self):
        dbg = self._debugger(Counter)
        dbg.execute("lint")
        assert any("lint: clean" in l for l in dbg.transcript)

    def test_findings_listed(self):
        dbg = self._debugger(Sloppy)
        dbg.execute("lint")
        joined = "\n".join(dbg.transcript)
        assert "diagnostic(s)" in joined
        assert "unused-signal" in joined

    def test_severity_filter_argument(self):
        dbg = self._debugger(Sloppy)
        dbg.execute("lint error")
        assert any("lint: clean" in l for l in dbg.transcript)


def test_severity_threshold_semantics():
    # The CLI/console filters rely on IntEnum comparison; pin it down.
    assert Severity.WARNING >= Severity.parse("warning")
    assert not (Severity.INFO >= Severity.WARNING)
