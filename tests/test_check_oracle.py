"""Oracle for the lint rules the exhaustive checker subsumes.

M301 (unreachable-state), M302 (no-exit-path) and M305
(flow-gated-domain) were syntactic re-checks of properties
``repro check`` proves over the composed state space.  They are
deleted; this test is the evidence.  Every mutation one of them caught
— its former lint fixture re-expressed on :class:`TinyModel`, plus one
seeded mutation of the shipped ODRIPS view — goes through
:func:`check_model_view`, and a surviving rule must fire.
"""

from __future__ import annotations

import pytest

from repro.check import check_model_view
from repro.core.techniques import TechniqueSet
from repro.lint import all_rules
from repro.lint.model import walk_model
from repro.system.flows import FlowStepSpec
from repro.system.skylake import SkylakePlatform
from repro.system.states import PlatformState

from test_check_ts import TinyModel


def tiny(transitions, flows=None):
    return walk_model(TinyModel(transitions, flows=flows))


def shipped_with_transitions(**targets):
    """The shipped ODRIPS view with some FSM states rewired."""
    view = walk_model(SkylakePlatform(techniques=TechniqueSet.odrips()))
    for state, to in targets.items():
        view.fsm.transitions[PlatformState[state]] = tuple(PlatformState[t] for t in to)
    return view


def shipped_with_entry_step(step):
    """The shipped ODRIPS view with one step appended to the entry flow."""
    view = walk_model(SkylakePlatform(techniques=TechniqueSet.odrips()))
    entry = next(flow for flow in view.flows if flow.name == "entry")
    object.__setattr__(entry, "steps", entry.steps + (step,))
    return view


#: (deleted rule, mutation, view builder, rules the checker reports).
MUTATIONS = [
    (
        "M301", "fixture",
        lambda: tiny({"BOOT": ("ACTIVE",), "ACTIVE": ("IDLE",), "IDLE": ("ACTIVE",),
                      "DEAD": ()}),
        {"C102"},
    ),
    (
        "M301", "flowless-state-beside-a-flow",
        lambda: tiny({"BOOT": ("ACTIVE",), "ACTIVE": ("ENTRY",), "ENTRY": ("ACTIVE",),
                      "LIMBO": ("ACTIVE",)},
                     flows={"entry": (FlowStepSpec("entry:save"),)}),
        {"C102"},
    ),
    (
        "M301", "shipped-exit-bypassed",
        lambda: shipped_with_transitions(DRIPS=("ACTIVE",)),
        {"C101", "C102", "C202", "C203"},
    ),
    (
        "M302", "fixture",
        lambda: tiny({"BOOT": ("ACTIVE",), "ACTIVE": ("IDLE", "DEAD"), "IDLE": ("IDLE",),
                      "DEAD": ("ACTIVE",)}),
        {"C103"},
    ),
    (
        "M302", "shipped-drips-self-loop",
        lambda: shipped_with_transitions(DRIPS=("DRIPS",)),
        {"C102", "C103"},
    ),
    (
        "M305", "fixture",
        lambda: tiny({"BOOT": ("ACTIVE",), "ACTIVE": ("ENTRY",), "ENTRY": ("ACTIVE",)},
                     flows={"entry": (
                         FlowStepSpec("entry:gate-compute", gates_off=("proc.compute",)),
                         FlowStepSpec("entry:late-save", requires=("proc.compute",)),
                     )}),
        {"C101", "C102"},
    ),
    (
        "M305", "shipped-aon-io-after-handoff",
        lambda: shipped_with_entry_step(
            FlowStepSpec("entry:late-io", requires=("proc.aon_io",))
        ),
        {"C101", "C102"},
    ),
]


@pytest.mark.parametrize(
    "deleted, build, expected",
    [(rule, build, expected) for rule, _name, build, expected in MUTATIONS],
    ids=[f"{rule}-{name}" for rule, name, _build, _expected in MUTATIONS],
)
def test_subsumed_rule_mutation_is_caught(deleted, build, expected):
    report = check_model_view(build())
    fired = {diag.rule for diag in report.diagnostics}
    assert fired == expected, f"{deleted} mutation: checker reported {sorted(fired)}"
    assert report.state_space["truncated"] is False


def test_unreachable_state_is_named():
    report = check_model_view(tiny({"BOOT": ("ACTIVE",), "ACTIVE": ("BOOT",),
                                    "DEAD": ()}))
    (c102,) = report.diagnostics
    assert c102.rule == "C102" and "'DEAD'" in c102.message
    assert c102.location.obj == "fsm state DEAD"


def test_gates_on_clears_the_gate():
    """A domain re-enabled by gates_on may be required again: no finding."""
    view = tiny(
        {"BOOT": ("ACTIVE",), "ACTIVE": ("EXIT",), "EXIT": ("ACTIVE",)},
        flows={"exit": (
            FlowStepSpec("exit:gate", gates_off=("proc.compute",)),
            FlowStepSpec("exit:ramp", gates_on=("proc.compute",)),
            FlowStepSpec("exit:resume", requires=("proc.compute",)),
        )},
    )
    assert check_model_view(view).diagnostics == []


def test_only_the_subsumed_rules_are_deleted():
    ids = {rule.rule_id for rule in all_rules()}
    assert ids.isdisjoint({"M301", "M302", "M305"})
    assert {"M303", "M304", "M306", "C101", "C102", "C103"} <= ids
