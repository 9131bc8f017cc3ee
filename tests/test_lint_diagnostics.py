"""Tests for the shared diagnostics framework (repro.lint.diagnostics)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.lint import all_rules
from repro.lint.diagnostics import (
    EXIT_CLEAN,
    EXIT_DIAGNOSTICS,
    JSON_SCHEMA_VERSION,
    Diagnostic,
    Location,
    Severity,
    count_by_severity,
    dedupe_diagnostics,
    exit_code,
    filter_diagnostics,
    render_json,
    render_text,
    sort_diagnostics,
    validate_rule_patterns,
)


def make(rule="M101", name="orphan-component", severity=Severity.ERROR,
         message="m", file=None, line=None, obj="component x", hint=None):
    return Diagnostic(rule, name, severity, message,
                      Location(file=file, line=line, obj=obj), hint)


class TestLocation:
    def test_file_line_render(self):
        assert Location(file="a.py", line=3).render() == "a.py:3"

    def test_object_render(self):
        assert Location(obj="rail compute").render() == "rail compute"

    def test_unknown_render(self):
        assert Location().render() == "<unknown>"


class TestFiltering:
    def test_select_by_prefix(self):
        diags = [make(rule="M101"), make(rule="M201"), make(rule="S403")]
        kept = filter_diagnostics(diags, select=["M1"])
        assert [d.rule for d in kept] == ["M101"]

    def test_select_by_name(self):
        diags = [make(rule="M101", name="orphan-component"),
                 make(rule="S403", name="float-eq-power")]
        kept = filter_diagnostics(diags, select=["float-eq-power"])
        assert [d.rule for d in kept] == ["S403"]

    def test_ignore_wins_over_select(self):
        diags = [make(rule="M101"), make(rule="M102", name="domain-without-rail")]
        kept = filter_diagnostics(diags, select=["M1"], ignore=["M102"])
        assert [d.rule for d in kept] == ["M101"]

    def test_no_filters_keeps_everything(self):
        diags = [make(rule="M101"), make(rule="S403")]
        assert filter_diagnostics(diags) == diags

    def test_validate_rejects_unknown_pattern(self):
        with pytest.raises(ConfigError):
            validate_rule_patterns(["Z999"], all_rules())

    def test_validate_accepts_prefixes_and_names(self):
        validate_rule_patterns(["M1", "M304", "float-eq-power", "S"], all_rules())

    def test_validate_reports_every_unknown_pattern_at_once(self):
        with pytest.raises(ConfigError) as excinfo:
            validate_rule_patterns(["Z999", "M1", "Q888"], all_rules())
        message = str(excinfo.value)
        assert "Z999" in message and "Q888" in message
        assert "M1" not in message

    def test_validate_accepts_the_budget_family(self):
        validate_rule_patterns(["C6", "C601", "wake-budget-exceeded"], all_rules())


class TestOrderingAndDedupe:
    def test_sorted_by_location_then_rule(self):
        diags = [
            make(rule="S403", file="b.py", line=9, obj=None),
            make(rule="S401", file="a.py", line=2, obj=None),
            make(rule="S402", file="a.py", line=1, obj=None),
        ]
        ordered = sort_diagnostics(diags)
        assert [(d.location.file, d.location.line) for d in ordered] == [
            ("a.py", 1), ("a.py", 2), ("b.py", 9)
        ]

    def test_dedupe_removes_exact_repeats(self):
        one = make(message="same", obj="gate g")
        two = make(message="same", obj="gate g")
        other = make(message="different", obj="gate g")
        assert dedupe_diagnostics([one, two, other]) == [one, other]


class TestRenderers:
    def test_text_mentions_rule_and_hint(self):
        text = render_text([make(hint="do the thing")])
        assert "M101" in text and "orphan-component" in text
        assert "hint: do the thing" in text
        assert "1 problem(s)" in text

    def test_text_clean(self):
        assert render_text([]) == "no problems found"

    def test_json_schema_stability(self):
        """The --json schema is a contract: top-level keys, diagnostic
        keys and location keys must not drift."""
        payload = json.loads(render_json([make(file="a.py", line=4, obj=None,
                                               hint="h")]))
        assert set(payload) == {"version", "counts", "diagnostics"}
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert set(payload["counts"]) == {"error", "warning"}
        (diag,) = payload["diagnostics"]
        assert set(diag) == {"rule", "name", "severity", "message", "location", "hint"}
        assert set(diag["location"]) == {"file", "line", "object"}
        assert diag["severity"] == "error"
        assert diag["location"] == {"file": "a.py", "line": 4, "object": None}

    def test_json_empty_tree(self):
        payload = json.loads(render_json([]))
        assert payload["diagnostics"] == []
        assert payload["counts"] == {"error": 0, "warning": 0}

    def test_count_by_severity(self):
        counts = count_by_severity(
            [make(), make(severity=Severity.WARNING, rule="S405", name="unit-suffix")]
        )
        assert counts == {"error": 1, "warning": 1}


class TestExitCodes:
    def test_clean_exit(self):
        assert exit_code([]) == EXIT_CLEAN == 0

    def test_diagnostics_exit(self):
        assert exit_code([make()]) == EXIT_DIAGNOSTICS == 1


class TestRuleCatalog:
    def test_catalog_families_present(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert any(i.startswith("M1") for i in ids)
        assert any(i.startswith("M2") for i in ids)
        assert any(i.startswith("M3") for i in ids)
        assert any(i.startswith("S4") for i in ids)
