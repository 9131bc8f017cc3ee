"""Exhaustive model checking for the ODRIPS reproduction: ``repro.check``.

Where :mod:`repro.lint` verifies the platform's *wiring* one declaration
at a time, this package verifies its *behavior*: it compiles the
declared platform-state FSM, the entry/exit flow specs and the
power/clock couplings into an explicit transition system
(:mod:`repro.check.ts`), exhaustively explores every reachable composed
state (:mod:`repro.check.explore`), and checks declarative power-safety
invariants in each one (:mod:`repro.check.invariants`).  Findings are
``C1xx`` (structure: deadlock, unreachable step, livelock) and ``C2xx``
(invariant violation) diagnostics through the shared
:class:`~repro.lint.diagnostics.Diagnostic` framework.

A second, independent pass (:mod:`repro.check.dataflow`) runs an
interprocedural unit-dataflow analysis over the sources (``C4xx``),
following ``_ps``/``_watts``/``_joules`` unit tags across call
boundaries with a call-graph fixpoint.

An opt-in priced-timed pass (:mod:`repro.check.budgets`, ``--budgets``)
annotates the compiled transition system with per-step latencies and
per-state powers probed from one standby cycle, then verifies the
platform's declared wake-latency budgets, break-even residencies and
per-cycle energy bounds (``C6xx``).

Explored state spaces are memoized in a process-wide
:class:`~repro.perf.cache.SimulationCache` keyed by the
:func:`~repro.perf.fingerprint.fingerprint` of the platform
configuration, so repeat checks of an unchanged model are O(1).

Run it from the shell with ``python -m repro check`` (see docs/CHECK.md),
or call it directly::

    from repro.check import check_standby_model

    report = check_standby_model()
    assert not report.diagnostics
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.model import ModelView, walk_model
from repro.check.budgets import (
    analyze_budgets,
    derive_technique_break_even,
    probe_standby_cycle,
)
from repro.check.dataflow import analyze_paths, analyze_source_root, analyze_sources
from repro.check.effects import (
    EFFECTS_SCHEMA_VERSION,
    EffectAnalysis,
    EffectsReport,
    analyze_effects_paths,
    analyze_effects_source_root,
    analyze_effects_sources,
)
from repro.check.explore import DEFAULT_MAX_STATES, ExploreResult, explore
from repro.check.invariants import BUILTIN_INVARIANTS, Invariant, select_invariants
from repro.check.rules import CHECK_RULES
from repro.check.schema import validate_check_payload
from repro.check.ts import ComposedState, TransitionSystem, compile_transition_system

#: Bump when the report layout or rule semantics change incompatibly.
CHECK_SCHEMA_VERSION = 1


@dataclass
class CheckReport:
    """Everything one model check produced."""

    diagnostics: List[Diagnostic]
    #: JSON-ready state-space summary (the ``--json`` CI artifact payload).
    state_space: Dict[str, object]
    #: JSON-ready budget summary of the priced-timed analysis, present
    #: only when the check ran with ``budgets=True`` (``--budgets``).
    budgets: Optional[Dict[str, object]] = None


def check_model_view(
    view: ModelView,
    invariant_names: Optional[Tuple[str, ...]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    budgets: bool = False,
    budget_probes: Optional[Dict[str, Dict[str, Any]]] = None,
    config: Any = None,
    techniques: Any = None,
) -> CheckReport:
    """Compile and exhaustively check an already-extracted model view.

    ``budgets=True`` additionally runs the priced-timed budget analysis
    (C6xx) over the compiled transition system; ``budget_probes`` injects
    pre-computed pricing (see :func:`repro.check.budgets.analyze_budgets`),
    and ``config``/``techniques`` parameterize the probe cycle when the
    prices are not injected.
    """
    invariants = select_invariants(invariant_names)
    ts, diagnostics = compile_transition_system(view)
    if ts is None:
        return CheckReport(
            diagnostics=sort_diagnostics(diagnostics),
            state_space={
                "states_explored": 0,
                "transitions_taken": 0,
                "truncated": False,
                "steps_executed": [],
                "invariants_checked": [inv.name for inv in invariants],
                "diagnostics": len(diagnostics),
            },
        )
    result = explore(ts, invariants, max_states=max_states)
    combined = diagnostics + result.diagnostics
    budget_summary: Optional[Dict[str, object]] = None
    if budgets:
        budget_summary, budget_diagnostics = analyze_budgets(
            view, ts, probes=budget_probes, config=config, techniques=techniques
        )
        combined = combined + budget_diagnostics
    combined = sort_diagnostics(combined)
    summary = result.summary()
    summary["diagnostics"] = len(combined)
    return CheckReport(
        diagnostics=combined, state_space=summary, budgets=budget_summary
    )


def check_platform(
    platform: Any,
    invariant_names: Optional[Tuple[str, ...]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    budgets: bool = False,
    budget_probes: Optional[Dict[str, Dict[str, Any]]] = None,
) -> CheckReport:
    """Extract the model view from ``platform`` and exhaustively check it."""
    return check_model_view(
        walk_model(platform),
        invariant_names=invariant_names,
        max_states=max_states,
        budgets=budgets,
        budget_probes=budget_probes,
        config=getattr(platform, "config", None),
        techniques=getattr(platform, "techniques", None),
    )


#: Process-wide memo of explored state spaces (see :func:`check_standby_model`).
_STATE_SPACE_CACHE = None


def state_space_cache():
    """The process-wide cache, created on first use."""
    global _STATE_SPACE_CACHE
    if _STATE_SPACE_CACHE is None:
        from repro.perf.cache import SimulationCache

        _STATE_SPACE_CACHE = SimulationCache()
    return _STATE_SPACE_CACHE


def check_standby_model(
    techniques: Any = None,
    invariant_names: Optional[Tuple[str, ...]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    cache: Any = None,
    budgets: bool = False,
) -> CheckReport:
    """Check the shipped Skylake platform, memoized by config fingerprint.

    The cache key is the fingerprint of the full platform configuration
    plus the technique set and the checker arguments, so any change to
    the model invalidates the entry and an unchanged model re-checks in
    O(1).  Pass an explicit ``cache`` to control sharing (the default is
    one process-wide cache).
    """
    from repro.config import skylake_config
    from repro.core.techniques import TechniqueSet
    from repro.system.skylake import SkylakePlatform

    if techniques is None:
        techniques = TechniqueSet.odrips()
    if cache is None:
        cache = state_space_cache()
    key = cache.key(
        "repro.check",
        CHECK_SCHEMA_VERSION,
        skylake_config(),
        techniques,
        tuple(invariant_names) if invariant_names is not None else None,
        max_states,
        budgets,
    )
    return cache.get_or_run(
        key,
        lambda: check_platform(
            SkylakePlatform(techniques=techniques),
            invariant_names=invariant_names,
            max_states=max_states,
            budgets=budgets,
        ),
    )


__all__ = [
    "BUILTIN_INVARIANTS",
    "CHECK_RULES",
    "CHECK_SCHEMA_VERSION",
    "CheckReport",
    "ComposedState",
    "DEFAULT_MAX_STATES",
    "EFFECTS_SCHEMA_VERSION",
    "EffectAnalysis",
    "EffectsReport",
    "ExploreResult",
    "Invariant",
    "TransitionSystem",
    "analyze_budgets",
    "analyze_effects_paths",
    "analyze_effects_source_root",
    "analyze_effects_sources",
    "analyze_paths",
    "analyze_source_root",
    "analyze_sources",
    "check_model_view",
    "check_platform",
    "check_standby_model",
    "compile_transition_system",
    "derive_technique_break_even",
    "explore",
    "probe_standby_cycle",
    "select_invariants",
    "state_space_cache",
    "validate_check_payload",
    "walk_model",
]
