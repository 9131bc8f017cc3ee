"""Model-verifier tests: one deliberately broken fixture per rule.

Each fixture is the smallest platform-shaped object graph that violates
exactly the rule under test; the assertion checks both that the rule
fires and that no unrelated rule produces noise on the same fixture.
"""

from __future__ import annotations

import enum

from repro.clocks.clock import DerivedClock, GateableClock
from repro.clocks.crystal import CrystalOscillator
from repro.lint import lint_platform, walk_model
from repro.lint.model import lint_model_view
from repro.power.domain import Component, PowerDomain
from repro.power.gates import BoardFETGate
from repro.power.tree import PowerTree
from repro.sim.kernel import Kernel
from repro.system.flows import FlowStepSpec


class Fixture:
    """A bare platform-shaped root the model walker can descend into."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class FakeClockSource:
    """A clock source the platform does not own (triggers M201)."""

    def __init__(self, period_ps: int = 41667) -> None:
        self.period_ps = period_ps
        self.available = False
        self.effective_hz = 1e12 / period_ps


def make_tree() -> PowerTree:
    return PowerTree(Kernel())


def rule_ids(diagnostics):
    return sorted({d.rule for d in diagnostics})


def lint_fixture(**attrs):
    return lint_platform(Fixture(**attrs))


class TestPowerTreeRules:
    def test_m101_unattached_component(self):
        tree = make_tree()
        stray = Component("sensor.stray", leakage_watts=1e-3)
        diags = lint_fixture(tree=tree, stray=stray)
        assert rule_ids(diags) == ["M101"]
        assert "sensor.stray" in diags[0].message

    def test_m101_cross_wired_component(self):
        tree = make_tree()
        domain = tree.new_rail("vcc", 1.0).new_domain("d")
        cuckoo = Component("cuckoo")
        cuckoo._domain = domain  # bypasses PowerDomain.add on purpose
        diags = lint_fixture(tree=tree, cuckoo=cuckoo)
        assert rule_ids(diags) == ["M101"]
        assert "cross-wired" in diags[0].message

    def test_m102_domain_without_rail(self):
        tree = make_tree()
        tree.new_rail("vcc", 1.0).new_domain("good")
        floating = PowerDomain("floating")
        floating.new_component("lost", leakage_watts=1e-3)
        diags = lint_fixture(tree=tree, floating=floating)
        # the component inside the floating domain is wired consistently,
        # so only the domain-level rule fires
        assert rule_ids(diags) == ["M102"]

    def test_m103_rail_missing_regulator(self):
        tree = make_tree()
        rail = tree.new_rail("vcc", 1.0)
        rail.regulator = None
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M103"]
        assert "vcc" in diags[0].message

    def test_m104_domain_owned_by_two_rails(self):
        tree = make_tree()
        shared = tree.new_rail("vcc_a", 1.0).new_domain("shared")
        tree.new_rail("vcc_b", 1.0).add_domain(shared)
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M104"]
        assert "2 rails" in diags[0].message

    def test_m105_ownership_cycle(self):
        class SelfOwningDomain(PowerDomain):
            @property
            def components(self):
                return [self]

        tree = make_tree()
        tree.new_rail("vcc", 1.0).add_domain(SelfOwningDomain("ouroboros"))
        diags = lint_platform(Fixture(tree=tree))
        assert "M105" in rule_ids(diags)
        assert "ouroboros" in diags[0].message or any(
            "ouroboros" in d.message for d in diags
        )

    def test_m106_unbound_fet_gate(self):
        tree = make_tree()
        gate = BoardFETGate("fet:aon")  # bind_gpio never called
        tree.new_rail("vcc", 1.0).new_domain("aon", gate=gate)
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M106"]
        assert "bind_gpio" in (diags[0].hint or "")

    def test_m107_negative_component_power(self):
        tree = make_tree()
        domain = tree.new_rail("vcc", 1.0).new_domain("d")
        component = domain.new_component("broken")
        component._leakage_watts = -1e-3  # ctor rejects this; force it
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M107"]

    def test_m107_impossible_gate_leakage(self):
        class LeakyGate(BoardFETGate):
            leakage_fraction = 1.5  # leaks more than it gates

        tree = make_tree()
        gate = LeakyGate("fet:leaky")
        gate.bind_gpio(3)
        tree.new_rail("vcc", 1.0).new_domain("d", gate=gate)
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M107"]

    def test_m108_duplicate_component_names(self):
        tree = make_tree()
        rail = tree.new_rail("vcc", 1.0)
        rail.new_domain("a").new_component("dup.name")
        rail.new_domain("b").new_component("dup.name")
        diags = lint_fixture(tree=tree)
        assert rule_ids(diags) == ["M108"]
        assert "2 components" in diags[0].message


class TestClockTreeRules:
    def test_m201_clock_with_foreign_source(self):
        clock = DerivedClock("clk.orphan", FakeClockSource(), divider=1)
        diags = lint_fixture(clock=clock)
        assert rule_ids(diags) == ["M201"]
        assert "clk.orphan" in diags[0].message

    def test_m202_frequency_off_the_picosecond_grid(self):
        # 3 GHz rounds to a 333 ps period -> ~1000 ppm distortion
        xtal = CrystalOscillator("xtal3g", nominal_hz=3e9)
        diags = lint_fixture(xtal=xtal)
        assert rule_ids(diags) == ["M202"]
        assert "ppm" in diags[0].message

    def test_m202_accepts_the_paper_crystals(self):
        fast = CrystalOscillator("xtal24m", nominal_hz=24e6, ppm_error=30.0)
        slow = CrystalOscillator("rtc32k", nominal_hz=32768.0, ppm_error=-20.0)
        assert lint_fixture(fast=fast, slow=slow) == []

    def test_m203_negative_clock_power_coefficient(self):
        xtal = CrystalOscillator("xtal", nominal_hz=24e6)
        derived = DerivedClock("clk", xtal, divider=1)
        gated = GateableClock("clk.gated", derived, watts_per_hz=-1e-12)
        diags = lint_fixture(xtal=xtal, derived=derived, gated=gated)
        assert rule_ids(diags) == ["M203"]


class _S(enum.Enum):
    BOOT = "boot"
    ACTIVE = "active"
    IDLE = "idle"
    DEAD = "dead"


class _Wake(enum.Enum):
    TIMER = "timer"
    NETWORK = "network"


def fsm_fixture(transitions, wake_receptive=None, states=tuple(_S),
                initial=_S.BOOT, active=_S.ACTIVE):
    spec = {
        "states": states,
        "initial": initial,
        "active": active,
        "transitions": transitions,
        "wake_receptive": wake_receptive or {},
        "wake_event_types": tuple(_Wake),
    }
    return Fixture(fsm_description=lambda: spec)


class TestFSMRules:
    # Reachability (unreachable states, no path back to Active) and flow
    # ordering are proven by the exhaustive checker's C101-C103; see
    # tests/test_check_oracle.py.

    def test_m303_unhandled_wake_type(self):
        fixture = fsm_fixture(
            {
                _S.BOOT: (_S.ACTIVE,),
                _S.ACTIVE: (_S.IDLE,),
                _S.IDLE: (_S.ACTIVE,),
                _S.DEAD: (),
            },
            states=(_S.BOOT, _S.ACTIVE, _S.IDLE),
            wake_receptive={_S.IDLE: frozenset({_Wake.TIMER})},
        )
        diags = lint_platform(fixture)
        assert rule_ids(diags) == ["M303"]
        assert "NETWORK" in diags[0].message

    def test_clean_fsm(self):
        fixture = fsm_fixture(
            {
                _S.BOOT: (_S.ACTIVE,),
                _S.ACTIVE: (_S.IDLE,),
                _S.IDLE: (_S.ACTIVE,),
            },
            states=(_S.BOOT, _S.ACTIVE, _S.IDLE),
            wake_receptive={_S.IDLE: frozenset(_Wake)},
        )
        assert lint_platform(fixture) == []


class TestFlowRules:
    def test_m304_flow_references_unknown_domain(self):
        tree = make_tree()
        tree.new_rail("vcc", 1.0).new_domain("proc.compute")
        flow = (FlowStepSpec("entry:quiesce", requires=("proc.cmpute",)),)
        fixture = Fixture(tree=tree, flow_descriptions=lambda: {"entry": flow})
        diags = lint_platform(fixture)
        assert rule_ids(diags) == ["M304"]
        assert "proc.cmpute" in diags[0].message


class TestWalker:
    def test_walk_collects_every_bucket(self):
        tree = make_tree()
        domain = tree.new_rail("vcc", 1.0).new_domain("d")
        domain.new_component("c")
        xtal = CrystalOscillator("xtal", nominal_hz=24e6)
        clock = DerivedClock("clk", xtal, divider=2)
        view = walk_model(Fixture(tree=tree, xtal=xtal, clock=clock))
        assert view.tree is tree
        assert [r.name for r in view.rails] == ["vcc"]
        assert [d.name for d in view.domains] == ["d"]
        assert [c.name for c in view.components] == ["c"]
        assert [x.name for x in view.crystals] == ["xtal"]
        assert [c.name for c in view.clocks] == ["clk"]

    def test_walk_reaches_clocks_through_consumer_registry(self):
        # the crystal's consumers list is the only path to this clock
        xtal = CrystalOscillator("xtal", nominal_hz=24e6)
        DerivedClock("clk.hidden", xtal, divider=4)
        view = walk_model(Fixture(xtal=xtal))
        assert [c.name for c in view.clocks] == ["clk.hidden"]

    def test_walk_survives_reference_cycles(self):
        a, b = Fixture(), Fixture()
        a.other, b.other = b, a
        a.tree = make_tree()
        view = walk_model(a)
        assert view.tree is a.tree

    def test_clean_minimal_platform(self):
        tree = make_tree()
        gate = BoardFETGate("fet")
        gate.bind_gpio(7)
        rail = tree.new_rail("vcc", 1.0)
        rail.new_domain("aon", gate=gate).new_component("rtc", leakage_watts=1e-5)
        xtal = CrystalOscillator("xtal", nominal_hz=24e6)
        DerivedClock("clk", xtal, divider=1)
        assert lint_fixture(tree=tree, xtal=xtal) == []

    def test_empty_view_is_clean(self):
        assert lint_model_view(walk_model(Fixture())) == []


class TestFlowSpanDiscipline:
    """M306: instrumented flow steps must open and close their spans."""

    FLOW = (
        FlowStepSpec("entry:quiesce"),
        FlowStepSpec("entry:save"),
        FlowStepSpec("entry:drips"),
    )

    def test_uninstrumented_model_owes_no_declaration(self):
        fixture = Fixture(flow_descriptions=lambda: {"entry": self.FLOW})
        assert "M306" not in rule_ids(lint_platform(fixture))

    def test_instrumented_without_declaration_flagged(self):
        fixture = Fixture(
            obs=None,  # the seam exists; the declaration does not
            flow_descriptions=lambda: {"entry": self.FLOW},
        )
        diags = [d for d in lint_platform(fixture) if d.rule == "M306"]
        assert len(diags) == 1
        assert "observability description" in diags[0].message
        assert "flow_span_labels" in (diags[0].hint or "")

    def test_flow_missing_from_declaration_flagged(self):
        fixture = Fixture(
            obs=None,
            flow_descriptions=lambda: {"entry": self.FLOW},
            observability_description=lambda: {
                "flow_span_labels": {"exit": ("exit:wake",)}
            },
        )
        diags = [d for d in lint_platform(fixture) if d.rule == "M306"]
        assert len(diags) == 1
        assert "'entry'" in diags[0].message

    def test_label_step_mismatch_flagged(self):
        labels = ("entry:quiesce", "entry:drips")  # entry:save missing
        fixture = Fixture(
            obs=None,
            flow_descriptions=lambda: {"entry": self.FLOW},
            observability_description=lambda: {"flow_span_labels": {"entry": labels}},
        )
        diags = [d for d in lint_platform(fixture) if d.rule == "M306"]
        assert len(diags) == 1
        assert "do not match" in diags[0].message

    def test_duplicate_label_flagged(self):
        labels = ("entry:quiesce", "entry:quiesce", "entry:drips")
        fixture = Fixture(
            obs=None,
            flow_descriptions=lambda: {"entry": self.FLOW},
            observability_description=lambda: {"flow_span_labels": {"entry": labels}},
        )
        diags = [d for d in lint_platform(fixture) if d.rule == "M306"]
        assert any("more than once" in d.message for d in diags)

    def test_exact_declaration_is_clean(self):
        labels = tuple(step.label for step in self.FLOW)
        fixture = Fixture(
            obs=None,
            flow_descriptions=lambda: {"entry": self.FLOW},
            observability_description=lambda: {"flow_span_labels": {"entry": labels}},
        )
        assert lint_platform(fixture) == []

    def test_skylake_declaration_matches_flow_specs(self):
        from repro.system.flows import ENTRY_FLOW_SPEC, EXIT_FLOW_SPEC, FLOW_SPAN_TABLE

        assert FLOW_SPAN_TABLE["entry"] == tuple(s.label for s in ENTRY_FLOW_SPEC)
        assert FLOW_SPAN_TABLE["exit"] == tuple(s.label for s in EXIT_FLOW_SPEC)
