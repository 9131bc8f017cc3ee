"""Static analysis for the ODRIPS reproduction: ``repro.lint``.

Two passes guard the two invariants the paper's hardware enforced
physically and the simulator only enforces by convention:

* the **model verifier** (:func:`lint_platform`) statically walks a
  constructed platform — power tree, clock sources, platform-state FSM
  and entry/exit flow specs — and reports wiring bugs (``M1xx``/``M2xx``/
  ``M3xx`` rules) before a single cycle is simulated;
* the **source checker** (:func:`lint_paths`) parses the library sources
  with the stdlib ``ast`` module and enforces the canonical-unit
  discipline of :mod:`repro.units` (``S4xx`` rules).

A third, narrow pass (:func:`lint_experiments`, rule ``M307``) checks
the experiment-driver registry: every driver must declare the golden
values the regression watchdog compares, so new experiments cannot
silently opt out of fidelity checking.

Every rule of these passes and of the exhaustive checker
(:mod:`repro.check`) is one :class:`Rule`, registered in
:func:`all_rules`.

Run the passes from the shell with ``python -m repro lint`` (see
docs/LINT.md for the rule catalog), or call them directly::

    from repro.lint import lint_platform, lint_paths, render_text
    from repro.system.skylake import SkylakePlatform

    diagnostics = lint_platform(SkylakePlatform())
    print(render_text(diagnostics))
"""

from typing import Tuple

from repro.lint.diagnostics import (
    EXIT_CLEAN,
    EXIT_DIAGNOSTICS,
    EXIT_USAGE,
    JSON_SCHEMA_VERSION,
    Diagnostic,
    Location,
    Rule,
    Severity,
    dedupe_diagnostics,
    exit_code,
    filter_diagnostics,
    render_json,
    render_text,
    sort_diagnostics,
    validate_rule_patterns,
)
from repro.lint.model import ModelView, lint_model_view, lint_platform, walk_model
from repro.lint.rules_experiments import M307_RULE, lint_experiments
from repro.lint.source import lint_file, lint_paths, lint_source_text


def all_rules() -> Tuple[Rule, ...]:
    """Every known rule, catalog order: the one registry of both commands.

    ``repro lint`` and ``repro check`` validate ``--select``/``--ignore``
    patterns against it and ``--explain`` reads it; the gate tests
    assert its ids and names are unique.
    """
    from repro.check.rules import CHECK_RULES
    from repro.lint.rules_model import MODEL_RULES
    from repro.lint.rules_source import S400_RULE, S407_RULE, SOURCE_RULES

    return (
        *(rule for rule, _check in MODEL_RULES),
        M307_RULE,
        S400_RULE,
        *(rule for rule, _check in SOURCE_RULES),
        S407_RULE,
        *CHECK_RULES,
    )


__all__ = [
    "EXIT_CLEAN",
    "EXIT_DIAGNOSTICS",
    "EXIT_USAGE",
    "JSON_SCHEMA_VERSION",
    "Diagnostic",
    "Location",
    "ModelView",
    "Rule",
    "Severity",
    "all_rules",
    "dedupe_diagnostics",
    "exit_code",
    "filter_diagnostics",
    "lint_experiments",
    "lint_file",
    "lint_model_view",
    "lint_paths",
    "lint_platform",
    "lint_source_text",
    "render_json",
    "render_text",
    "sort_diagnostics",
    "validate_rule_patterns",
    "walk_model",
]
