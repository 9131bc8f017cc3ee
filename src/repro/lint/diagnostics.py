"""Shared diagnostics framework of ``repro lint`` and ``repro check``.

Every static-analysis rule — model verifier, source checker, model
checker, dataflow, effects and budgets — is one :class:`Rule` and
reports findings as :class:`Diagnostic` values: a stable rule id, a
severity, a location (either ``file:line`` for source findings or a
model-object path for model findings), a message, and an optional fix
hint.  This module also owns the two renderers (human text and JSON)
and the rule selection/ignoring logic shared by the CLI and the test
gate.

The JSON output is a stable schema (``JSON_SCHEMA_VERSION``) so CI
tooling can parse it::

    {
      "version": 1,
      "counts": {"error": 2, "warning": 0},
      "diagnostics": [
        {
          "rule": "M106",
          "name": "undriveable-gate",
          "severity": "error",
          "message": "...",
          "location": {"file": null, "line": null, "object": "gate board.aon-io-fet"},
          "hint": "..."
        }
      ]
    }
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Version of the ``--json`` output schema; bump on incompatible changes.
JSON_SCHEMA_VERSION = 1

#: Process exit codes of ``python -m repro lint``.
EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


class Severity(enum.Enum):
    """How bad a finding is.  Errors and warnings both fail the gate."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    Source findings carry ``file`` and ``line``; model findings carry
    ``obj``, a human-readable path into the platform model (for example
    ``"rail compute / domain proc.compute"``).
    """

    file: Optional[str] = None
    line: Optional[int] = None
    obj: Optional[str] = None

    def render(self) -> str:
        if self.file is not None:
            if self.line is not None:
                return f"{self.file}:{self.line}"
            return self.file
        return self.obj if self.obj is not None else "<unknown>"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a lint rule."""

    rule: str
    name: str
    severity: Severity
    message: str
    location: Location
    hint: Optional[str] = None

    def render(self) -> str:
        """One human-readable line (plus an indented hint, if any)."""
        text = f"{self.location.render()}: {self.severity.value} {self.rule} ({self.name}): {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
            "location": {
                "file": self.location.file,
                "line": self.location.line,
                "object": self.location.obj,
            },
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Rule:
    """Identity of one rule; its check logic lives with its pass."""

    rule_id: str
    name: str
    severity: Severity
    summary: str

    def diagnostic(
        self,
        message: str,
        *,
        obj: Optional[str] = None,
        file: Optional[str] = None,
        line: Optional[int] = None,
        hint: str = "",
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.rule_id,
            name=self.name,
            severity=self.severity,
            message=message,
            location=Location(file=file, line=line, obj=obj),
            hint=hint or None,
        )


def _sort_key(diag: Diagnostic) -> Tuple[str, int, str, str]:
    return (
        diag.location.file or diag.location.obj or "",
        diag.location.line or 0,
        diag.rule,
        diag.message,
    )


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Deterministic order: by location, then rule id, then message."""
    return sorted(diagnostics, key=_sort_key)


def dedupe_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Drop exact repeats (the CLI lints several platform variants)."""
    seen = set()
    unique: List[Diagnostic] = []
    for diag in diagnostics:
        key = (diag.rule, diag.message, diag.location)
        if key not in seen:
            seen.add(key)
            unique.append(diag)
    return unique


# --- rule selection ----------------------------------------------------------


def _matches(diag: Diagnostic, patterns: Sequence[str]) -> bool:
    """A pattern matches on rule-id prefix (``M1``, ``S403``) or rule name."""
    for pattern in patterns:
        if diag.rule.startswith(pattern) or diag.name == pattern:
            return True
    return False


def validate_rule_patterns(patterns: Sequence[str], known_rules: Sequence[Rule]) -> None:
    """Reject selection patterns that can never match a known rule.

    Raises :class:`~repro.errors.ConfigError` on unknown patterns so the
    CLI can exit with a usage error instead of silently selecting nothing.
    Every unknown pattern is reported in one error — a user fixing a
    typoed ``--select M31,Z999`` list should see all the bad tokens at
    once, not one per invocation.
    """
    unknown = [
        pattern
        for pattern in patterns
        if not any(
            rule.rule_id.startswith(pattern) or rule.name == pattern for rule in known_rules
        )
    ]
    if len(unknown) == 1:
        raise ConfigError(f"unknown lint rule or prefix: {unknown[0]!r}")
    if unknown:
        listing = ", ".join(repr(pattern) for pattern in unknown)
        raise ConfigError(f"unknown lint rules or prefixes: {listing}")


def filter_diagnostics(
    diagnostics: Iterable[Diagnostic],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Keep diagnostics matching ``select`` (all if None) minus ``ignore``."""
    kept = list(diagnostics)
    if select:
        kept = [diag for diag in kept if _matches(diag, select)]
    if ignore:
        kept = [diag for diag in kept if not _matches(diag, ignore)]
    return kept


# --- renderers ---------------------------------------------------------------


def count_by_severity(diagnostics: Sequence[Diagnostic]) -> dict:
    counts = {severity.value: 0 for severity in Severity}
    for diag in diagnostics:
        counts[diag.severity.value] += 1
    return counts


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    ordered = sort_diagnostics(diagnostics)
    lines = [diag.render() for diag in ordered]
    counts = count_by_severity(ordered)
    if ordered:
        lines.append(
            f"found {len(ordered)} problem(s) "
            f"({counts['error']} error(s), {counts['warning']} warning(s))"
        )
    else:
        lines.append("no problems found")
    return "\n".join(lines)


def render_json(
    diagnostics: Sequence[Diagnostic], sections: Optional[Dict[str, object]] = None
) -> str:
    """Machine-readable report (schema version ``JSON_SCHEMA_VERSION``).

    ``sections`` adds top-level summaries (``repro check``'s
    ``state_space``/``effects``/``budgets``); a payload carrying them is
    rendered with sorted keys, as that report always has been.
    """
    ordered = sort_diagnostics(diagnostics)
    payload: Dict[str, object] = {
        "version": JSON_SCHEMA_VERSION,
        "counts": count_by_severity(ordered),
        "diagnostics": [diag.to_json() for diag in ordered],
    }
    payload.update(sections or {})
    return json.dumps(payload, indent=2, sort_keys=bool(sections))


def exit_code(diagnostics: Sequence[Diagnostic]) -> int:
    """CI exit code: non-zero whenever any diagnostic survived filtering."""
    return EXIT_DIAGNOSTICS if diagnostics else EXIT_CLEAN
