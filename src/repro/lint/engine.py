"""The lint engine: runs pluggable rules over a circuit, collecting all
findings.

A :class:`Linter` holds an ordered list of :class:`Rule` objects and runs
them against a :class:`LintContext` — a lazy view of the circuit at the
lowering stages rules care about (as-given, type-lowered, fully lowered).
Stages are computed at most once and a stage that fails to lower degrades
to an informational diagnostic instead of aborting the run, so a
form-broken design still gets every finding the remaining rules can
produce.

The form checkers (``repro.ir.passes.check``) emit through the same
diagnostic types; ``Linter.lint`` includes their findings by default so
``repro lint`` shows form errors and style findings in one sorted report.

The compile-time gate (:func:`gate_circuit`, driven by
``SessionOptions(strict=...)`` and ``$REPRO_LINT``) turns findings into a
:class:`LintWarning` or — for error severity under ``"error"`` mode — a
raised :class:`LintError`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

from ..ir.debug import DebugInfo
from ..ir.stmt import Circuit, Conditionally, DefRegister, DefWire, walk_stmts
from .diagnostic import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
    format_diagnostics,
    has_errors,
)

FORM_HIGH = "high"
FORM_LOW = "low"

GATE_OFF = "off"
GATE_WARN = "warn"
GATE_ERROR = "error"


class LintError(Exception):
    """Raised by the ``error`` gate mode when lint finds error-severity
    diagnostics.  ``diagnostics`` carries the full batch."""

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class LintWarning(UserWarning):
    """Emitted by the ``warn`` gate mode; message is the formatted report."""


def detect_form(circuit: Circuit) -> str:
    """Best-effort guess whether ``circuit`` is High or Low form.

    ``when`` blocks or aggregate-typed declarations only exist in High
    form.  A ground-typed, when-free circuit is indistinguishable — callers
    that know the provenance (``Simulator`` holds High, the console holds
    Low) should pass ``form=`` explicitly.
    """
    for m in circuit.modules.values():
        if any(not p.typ.is_ground() for p in m.ports):
            return FORM_HIGH
        for s in walk_stmts(m.body):
            if isinstance(s, Conditionally):
                return FORM_HIGH
            if isinstance(s, (DefWire, DefRegister)) and not s.typ.is_ground():
                return FORM_HIGH
    return FORM_LOW


_UNSET = object()


@dataclass
class LintContext:
    """Lazy lowered views of the circuit under lint.

    Rules request the stage they need; each stage lowers at most once.  A
    stage that raises records one ``lowering-failed`` info diagnostic (the
    underlying defect is reported by the form checkers) and every dependent
    rule silently gets ``None``.
    """

    circuit: Circuit
    form: str
    _debug: DebugInfo = field(default_factory=DebugInfo)
    _typed: object = _UNSET
    _low: object = _UNSET
    _failures: list[Diagnostic] = field(default_factory=list)

    def typed(self) -> Circuit | None:
        """The circuit after ``lower_types`` (ground types, whens intact).
        For a Low-form input this is the circuit itself."""
        if self._typed is _UNSET:
            if self.form == FORM_LOW:
                self._typed = self.circuit
            else:
                from ..ir.passes.lower_types import lower_types

                try:
                    self._typed = lower_types(self.circuit, self._debug)
                except Exception as exc:
                    self._typed = None
                    self._record_failure("lower_types", exc)
        return self._typed  # type: ignore[return-value]

    def low(self) -> Circuit | None:
        """The fully lowered circuit (``lower_types`` + ``expand_whens``,
        unoptimized).  For a Low-form input this is the circuit itself."""
        if self._low is _UNSET:
            if self.form == FORM_LOW:
                self._low = self.circuit
            else:
                typed = self.typed()
                if typed is None:
                    self._low = None
                else:
                    from ..ir.passes.expand_whens import expand_whens

                    try:
                        self._low, _lint = expand_whens(typed, self._debug)
                    except Exception as exc:
                        self._low = None
                        self._record_failure("expand_whens", exc)
        return self._low  # type: ignore[return-value]

    def _record_failure(self, stage: str, exc: Exception) -> None:
        self._failures.append(
            Diagnostic(
                rule="lowering-failed",
                severity=Severity.INFO,
                message=(
                    f"{stage} failed ({exc}); rules needing that stage were "
                    f"skipped"
                ),
            )
        )

    @property
    def failures(self) -> list[Diagnostic]:
        return self._failures


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``description`` / ``severity_note`` (for
    the docs catalog) and implement :meth:`run`, emitting through the
    collector.  A rule that raises is downgraded to a ``lint-internal``
    warning by the :class:`Linter` — one broken rule never hides the rest.
    """

    rule_id: str = ""
    description: str = ""

    def run(self, ctx: LintContext, out: DiagnosticCollector) -> None:
        raise NotImplementedError


class Linter:
    """Runs a rule set over a circuit and returns *all* findings, sorted."""

    def __init__(self, rules=None):
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        self.rules = list(rules)

    def lint(
        self,
        circuit: Circuit,
        *,
        form: str | None = None,
        include_form_checks: bool = True,
    ) -> list[Diagnostic]:
        """Lint ``circuit`` and return every diagnostic, sorted by location.

        Args:
            circuit: the design to analyze (High or Low IR).
            form: ``"high"`` / ``"low"``; inferred via :func:`detect_form`
                when omitted.
            include_form_checks: also run the structural form checkers and
                merge their error-severity findings into the report.
        """
        if form is None:
            form = detect_form(circuit)
        if form not in (FORM_HIGH, FORM_LOW):
            raise ValueError(f"unknown form {form!r}")
        out = DiagnosticCollector()
        if include_form_checks:
            from ..ir.passes.check import (
                high_form_diagnostics,
                low_form_diagnostics,
            )

            checker = (
                high_form_diagnostics if form == FORM_HIGH
                else low_form_diagnostics
            )
            try:
                out.extend(checker(circuit))
            except Exception as exc:
                out.error("check-internal", f"form checker crashed: {exc!r}")
        ctx = LintContext(circuit=circuit, form=form)
        for rule in self.rules:
            try:
                rule.run(ctx, out)
            except Exception as exc:
                out.warning(
                    "lint-internal",
                    f"rule {rule.rule_id or type(rule).__name__!r} crashed: "
                    f"{exc!r}",
                )
        out.extend(ctx.failures)
        return sorted(out.diagnostics, key=Diagnostic.sort_key)


def lint_circuit(
    circuit: Circuit,
    *,
    rules=None,
    form: str | None = None,
    include_form_checks: bool = True,
) -> list[Diagnostic]:
    """One-shot convenience: ``Linter(rules).lint(circuit, ...)``."""
    return Linter(rules).lint(
        circuit, form=form, include_form_checks=include_form_checks
    )


def resolve_gate(strict=None) -> str:
    """Normalize a ``SessionOptions(strict=...)`` value / ``$REPRO_LINT`` to a
    gate mode: ``"off"`` | ``"warn"`` | ``"error"``.

    ``None`` reads ``$REPRO_LINT`` (default off).  Booleans map to
    ``error`` / ``off``; strings accept off/warn/error spellings
    (``strict`` is an alias for ``error``).
    """
    source = "strict"
    if strict is None:
        strict = os.environ.get("REPRO_LINT", GATE_OFF)
        source = "$REPRO_LINT"
    if strict is True:
        return GATE_ERROR
    if strict is False:
        return GATE_OFF
    text = str(strict).strip().lower()
    if text in ("", "0", "off", "none", "false", "no"):
        return GATE_OFF
    if text in ("warn", "warning", "1", "on", "true", "yes"):
        return GATE_WARN
    if text in ("error", "errors", "strict", "raise"):
        return GATE_ERROR
    raise ValueError(
        f"bad lint gate {strict!r} (from {source}): "
        f"expected off|warn|error (or bool)"
    )


def gate_circuit(
    circuit: Circuit,
    mode: str,
    *,
    form: str = FORM_HIGH,
    design: str = "",
) -> list[Diagnostic]:
    """The compile-time lint gate.

    ``off`` skips linting entirely.  ``warn`` lints and reports all
    findings as a single :class:`LintWarning`.  ``error`` additionally
    raises :class:`LintError` when any finding is error severity.
    Returns the diagnostics (empty under ``off`` or a clean design).
    """
    if mode == GATE_OFF:
        return []
    diags = lint_circuit(circuit, form=form)
    if not diags:
        return []
    label = f" for {design}" if design else ""
    report = format_diagnostics(diags)
    if mode == GATE_ERROR and has_errors(diags):
        raise LintError(f"lint failed{label}:\n{report}", diags)
    warnings.warn(
        f"lint found {len(diags)} diagnostic(s){label}:\n{report}",
        LintWarning,
        stacklevel=3,
    )
    return diags
