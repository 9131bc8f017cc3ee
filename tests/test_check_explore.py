"""Exhaustive exploration and the invariant catalog (repro.check.explore).

The mutation tests are the heart of the checker's own validation: each
one deletes or perverts a single step of the shipped flow specs and
asserts the exploration produces exactly the diagnostic class the paper's
sequencing rules predict.  If the checker ever goes vacuous, these fail.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import check_model_view
from repro.check.explore import explore
from repro.check.invariants import BUILTIN_INVARIANTS, select_invariants
from repro.check.ts import compile_transition_system
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError
from repro.lint.model import walk_model
from repro.system.flows import FlowStepSpec
from repro.system.skylake import SkylakePlatform

from test_check_ts import TinyModel


def odrips_view():
    return walk_model(SkylakePlatform(techniques=TechniqueSet.odrips()))


def drop_step(view, flow_name, label):
    for flow in view.flows:
        if flow.name == flow_name:
            steps = tuple(step for step in flow.steps if step.label != label)
            assert len(steps) == len(flow.steps) - 1, f"no step {label!r}"
            object.__setattr__(flow, "steps", steps)
    return view


def rules_of(report):
    return sorted({diag.rule for diag in report.diagnostics})


# --- the shipped model is exhaustively clean ---------------------------------


def test_shipped_model_explores_clean_and_exhaustively():
    report = check_model_view(odrips_view())
    assert report.diagnostics == []
    summary = report.state_space
    assert summary["truncated"] is False
    # BOOT + ACTIVE + 7 entry steps + DRIPS + 6 exit steps = 16 composed states
    assert summary["states_explored"] == 16
    assert summary["transitions_taken"] == 16
    assert len(summary["steps_executed"]) == 13
    assert summary["invariants_checked"] == [inv.name for inv in BUILTIN_INVARIANTS]


# --- seeded mutations: one real defect class per invariant -------------------


def test_dropping_clock_restart_is_a_clock_coupling_violation():
    """Delete exit:xtal-restart: compute resumes with clk-24mhz still gated."""
    report = check_model_view(drop_step(odrips_view(), "exit", "exit:xtal-restart"))
    assert rules_of(report) == ["C201", "C203"]
    c201 = next(d for d in report.diagnostics if d.rule == "C201")
    assert "proc.compute" in c201.message and "clk-24mhz" in c201.message
    assert "witness" in (c201.hint or "")


def test_dropping_compute_quiesce_is_a_clock_coupling_violation():
    """Delete entry:compute-quiesce: the entry flow gates the fast clock
    while the compute domain still executes (the AgileWatts bug class)."""
    report = check_model_view(drop_step(odrips_view(), "entry", "entry:compute-quiesce"))
    assert "C201" in rules_of(report)


def test_dropping_io_restore_deadlocks_the_second_cycle():
    """Delete exit:io-restore: the next entry's io-handoff requires the
    proc.aon_io domain the previous cycle left gated off."""
    report = check_model_view(drop_step(odrips_view(), "exit", "exit:io-restore"))
    assert rules_of(report) == ["C101", "C202"]
    c101 = next(d for d in report.diagnostics if d.rule == "C101")
    assert "entry:io-handoff" in c101.message
    assert "proc.aon_io" in c101.message


def test_unbalanced_ledger_back_in_active_is_c203():
    """Make the exit flow forget to resume the halted compute domain."""
    view = drop_step(odrips_view(), "exit", "exit:active")
    report = check_model_view(view)
    assert "C203" in rules_of(report)
    c203 = next(d for d in report.diagnostics if d.rule == "C203")
    assert "halted" in c203.message


def test_gating_every_wake_source_is_c204():
    view = odrips_view()
    for flow in view.flows:
        if flow.name == "entry":
            steps = list(flow.steps)
            steps[-1] = dataclasses.replace(
                steps[-1],
                gates_off=steps[-1].gates_off + ("proc.pmu", "pch.aon"),
            )
            object.__setattr__(flow, "steps", tuple(steps))
    report = check_model_view(view)
    assert "C204" in rules_of(report)
    c204 = next(d for d in report.diagnostics if d.rule == "C204")
    assert "DRIPS" in c204.message


# --- structural findings on synthetic models ---------------------------------


def test_detached_flow_steps_are_unreachable_c102():
    model = TinyModel(
        {"BOOT": ("ACTIVE",), "ACTIVE": ("BOOT",)},
        flows={"orphan": (FlowStepSpec("orphan:step"),)},
    )
    report = check_model_view(walk_model(model))
    assert rules_of(report) == ["C102"]
    assert "orphan" in report.diagnostics[0].message


def test_steps_after_a_blocked_requirement_are_unreachable_c102():
    model = TinyModel(
        {"BOOT": ("ENTRY",), "ENTRY": ("ACTIVE",), "ACTIVE": ("BOOT",)},
        flows={
            "entry": (
                FlowStepSpec("entry:kill", gates_off=("dom.a",)),
                FlowStepSpec("entry:use", requires=("dom.a",)),
                FlowStepSpec("entry:after"),
            )
        },
    )
    report = check_model_view(walk_model(model))
    rules = [diag.rule for diag in report.diagnostics]
    assert "C101" in rules  # the blocked step deadlocks the flow
    unreachable = {d.message for d in report.diagnostics if d.rule == "C102"}
    assert any("entry:use" in message for message in unreachable)
    assert any("entry:after" in message for message in unreachable)


def test_cycle_that_never_returns_to_active_is_c103():
    model = TinyModel(
        {"BOOT": ("SPIN",), "SPIN": ("SPIN2",), "SPIN2": ("SPIN",),
         "ACTIVE": ("SPIN",)},
    )
    report = check_model_view(walk_model(model))
    assert rules_of(report) == ["C103"]
    assert "ACTIVE" in report.diagnostics[0].message


def test_states_feeding_a_deadlock_are_not_livelock():
    """Cannot-return-to-active explained by a deadlock stays a C101 only."""
    model = TinyModel({"BOOT": ("MID",), "MID": ("END",), "ACTIVE": ("BOOT",)})
    report = check_model_view(walk_model(model))
    assert rules_of(report) == ["C101"]


def test_truncated_exploration_warns_and_suppresses_absence_findings():
    ts, _ = compile_transition_system(odrips_view())
    result = explore(ts, BUILTIN_INVARIANTS, max_states=4)
    assert result.truncated is True
    rules = {diag.rule for diag in result.diagnostics}
    assert "C104" in rules
    assert "C102" not in rules and "C103" not in rules


# --- invariant selection ------------------------------------------------------


def test_invariant_selection_narrows_the_checked_set():
    view = drop_step(odrips_view(), "exit", "exit:xtal-restart")
    report = check_model_view(view, invariant_names=("rails-restored",))
    assert rules_of(report) == []  # C201/C203 are not evaluated
    assert report.state_space["invariants_checked"] == ["rails-restored"]


def test_unknown_invariant_name_raises():
    with pytest.raises(ConfigError, match="unknown invariant"):
        select_invariants(("no-such-invariant",))
