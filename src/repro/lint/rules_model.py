"""Rule catalog of the static model verifier.

Three rule families, mirroring the three graphs a platform model must
keep consistent (see docs/LINT.md for the full catalog with examples):

* ``M1xx`` — power tree: orphan components/domains, rails without
  regulators, ownership cycles, gates nothing can drive, negative power
  anomalies, duplicate component names.
* ``M2xx`` — clock tree: undriven clocks, frequencies the integer
  picosecond grid cannot realize, negative per-hertz power.
* ``M3xx`` — platform-state FSM and flows: wake-event types left
  unhandled, flow steps referencing unknown power domains, flow-span
  and macro-ledger declarations out of step with the model.  Reachability
  and flow ordering (unreachable states, no path back to Active, steps
  requiring a gated-off domain) are proven by the exhaustive checker's
  C101-C103 instead (:mod:`repro.check.explore`).

Every rule is a :class:`~repro.lint.diagnostics.Rule` paired with a pure
function over a :class:`~repro.lint.model.ModelView` yielding
:class:`~repro.lint.diagnostics.Diagnostic` values.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Set, Tuple

from repro.lint.diagnostics import Diagnostic, Rule, Severity
from repro.lint.model import FlowView, ModelView
from repro.units import parts_per_million

#: Grid-rounding tolerance of M202: above this, the integer-picosecond
#: period visibly distorts the crystal's declared frequency.
FREQUENCY_GRID_TOLERANCE_PPM = 50.0


#: A model rule's check: the rule (for its diagnostics) and the view.
ModelCheck = Callable[[Rule, ModelView], Iterator[Diagnostic]]


# --- M1xx: power tree --------------------------------------------------------


def _check_orphan_component(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for component in view.components:
        domain = component.domain
        if domain is None:
            yield rule.diagnostic(
                f"component {component.name!r} is not attached to any power domain, "
                "so its power is invisible to the platform total",
                obj=f"component {component.name}",
                hint="attach it with PowerDomain.add()/new_component()",
            )
        elif not any(owned is component for owned in domain.components):
            yield rule.diagnostic(
                f"component {component.name!r} points at domain {domain.name!r} "
                "but the domain does not list it (cross-wired attach)",
                obj=f"component {component.name}",
                hint="always attach through PowerDomain.add(); never set _domain directly",
            )
        # a consistent component inside an unregistered domain is the
        # domain's problem: M102 flags it once, without per-component noise


def _check_orphan_domain(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    if view.tree is None:
        return
    registered = {id(domain) for domain in view.registered_domains()}
    for domain in view.domains:
        if id(domain) not in registered:
            yield rule.diagnostic(
                f"power domain {domain.name!r} is not owned by any rail of the power "
                "tree; its components draw no battery-side power",
                obj=f"domain {domain.name}",
                hint="create domains with Rail.new_domain() or register via Rail.add_domain()",
            )


def _check_rail_regulator(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for rail in view.rails:
        if getattr(rail, "regulator", None) is None:
            yield rule.diagnostic(
                f"rail {rail.name!r} has no regulator; battery-side power of its load "
                "is undefined",
                obj=f"rail {rail.name}",
                hint="construct rails through PowerTree.new_rail()",
            )


def _check_multiply_owned(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    owners: Dict[int, List[str]] = {}
    names: Dict[int, str] = {}
    for rail in view.tree_rails():
        for domain in rail.domains:
            owners.setdefault(id(domain), []).append(rail.name)
            names[id(domain)] = domain.name
    for key, rail_names in owners.items():
        if len(rail_names) > 1:
            yield rule.diagnostic(
                f"power domain {names[key]!r} is owned by {len(rail_names)} rails "
                f"({', '.join(sorted(rail_names))}); its load is double-counted",
                obj=f"domain {names[key]}",
                hint="a domain must hang off exactly one rail",
            )


def _ownership_children(node: object) -> Tuple[object, ...]:
    for attr in ("rails", "domains", "components"):
        children = getattr(node, attr, None)
        if isinstance(children, (list, tuple)):
            return tuple(children)
    return ()


def _check_cycle(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    if view.tree is None:
        return
    path: List[str] = []
    on_path: Set[int] = set()
    done: Set[int] = set()
    found: List[Tuple[str, ...]] = []

    def visit(node: object) -> None:
        key = id(node)
        if key in on_path:
            found.append(tuple(path + [getattr(node, "name", type(node).__name__)]))
            return
        if key in done:
            return
        on_path.add(key)
        path.append(getattr(node, "name", type(node).__name__))
        for child in _ownership_children(node):
            visit(child)
        path.pop()
        on_path.remove(key)
        done.add(key)

    visit(view.tree)
    for cycle in found:
        yield rule.diagnostic(
            f"ownership cycle in the power graph: {' -> '.join(cycle)}",
            obj=f"power tree ({cycle[-1]})",
            hint="the rail/domain/component graph must be a tree",
        )


def _check_undriveable_gate(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for gate in view.gates:
        if hasattr(gate, "control_gpio") and gate.control_gpio is None:
            yield rule.diagnostic(
                f"gate {gate.name!r} has no control GPIO bound; nothing in the model "
                "can ever drive it open or closed",
                obj=f"gate {gate.name}",
                hint="bind the driving pin with BoardFETGate.bind_gpio(chipset.fet_gpio)",
            )


def _check_negative_power(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for component in view.components:
        if component.leakage_watts < 0 or component.dynamic_watts < 0:
            yield rule.diagnostic(
                f"component {component.name!r} carries negative power "
                f"(leakage={component.leakage_watts!r} W, dynamic={component.dynamic_watts!r} W)",
                obj=f"component {component.name}",
            )
    for gate in view.gates:
        leak = getattr(gate, "leakage_fraction", 0.0)
        loss = getattr(gate, "conduction_loss_fraction", 0.0)
        if not 0.0 <= leak < 1.0 or loss < 0.0:
            yield rule.diagnostic(
                f"gate {gate.name!r} has an impossible loss model "
                f"(leakage_fraction={leak!r}, conduction_loss_fraction={loss!r})",
                obj=f"gate {gate.name}",
                hint="leakage_fraction must be in [0, 1); loss fractions must be >= 0",
            )
    for rail in view.rails:
        regulator = getattr(rail, "regulator", None)
        if regulator is not None and getattr(regulator, "quiescent_watts", 0.0) < 0:
            yield rule.diagnostic(
                f"regulator {regulator.name!r} has negative quiescent power "
                f"({regulator.quiescent_watts!r} W)",
                obj=f"rail {rail.name}",
            )
    for crystal in view.crystals:
        if crystal.power_watts < 0:
            yield rule.diagnostic(
                f"crystal {crystal.name!r} has negative power ({crystal.power_watts!r} W)",
                obj=f"crystal {crystal.name}",
            )


def _check_duplicate_names(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    seen: Dict[str, int] = {}
    for domain in view.registered_domains():
        for component in domain.components:
            seen[component.name] = seen.get(component.name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            yield rule.diagnostic(
                f"{count} components share the name {name!r}; the attributed power "
                "breakdown merges them into one indistinguishable entry",
                obj=f"component {name}",
                hint="give every component a unique dotted name",
            )


# --- M2xx: clock tree --------------------------------------------------------


def _check_undriven_clock(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    crystal_ids = {id(crystal) for crystal in view.crystals}
    clock_ids = {id(clock) for clock in view.clocks}
    for clock in view.clocks:
        source = getattr(clock, "source", None)
        if source is None or id(source) not in crystal_ids | clock_ids:
            yield rule.diagnostic(
                f"derived clock {clock.name!r} is not driven by any crystal of the "
                "platform (dangling source)",
                obj=f"clock {clock.name}",
                hint="derive clocks from a crystal the platform owns",
            )
    for clock in view.gateable_clocks:
        source = getattr(clock, "source", None)
        if source is None or id(source) not in clock_ids:
            yield rule.diagnostic(
                f"gateable clock {clock.name!r} is not fed by any derived clock of "
                "the platform",
                obj=f"clock {clock.name}",
            )
    for buffer in view.buffers:
        source = getattr(buffer, "source", None)
        if source is None or id(source) not in crystal_ids:
            yield rule.diagnostic(
                f"clock buffer {buffer.name!r} is not fed by any crystal of the platform",
                obj=f"clkbuf {buffer.name}",
            )


def _check_frequency_grid(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for crystal in view.crystals:
        intended_hz = parts_per_million(crystal.nominal_hz, crystal.ppm_error)
        error_ppm = abs(crystal.effective_hz - intended_hz) / intended_hz * 1e6
        if error_ppm > FREQUENCY_GRID_TOLERANCE_PPM:
            yield rule.diagnostic(
                f"crystal {crystal.name!r}: the integer-picosecond grid distorts its "
                f"frequency by {error_ppm:.1f} ppm "
                f"(declared {intended_hz:.0f} Hz, realizable {crystal.effective_hz:.0f} Hz)",
                obj=f"crystal {crystal.name}",
                hint="frequencies above ~100 MHz need a sub-picosecond time base",
            )
    for clock in view.clocks:
        if getattr(clock, "divider", 1) < 1 or clock.period_ps <= 0:
            yield rule.diagnostic(
                f"derived clock {clock.name!r} cannot produce its declared frequency "
                f"(divider={getattr(clock, 'divider', None)!r}, period={clock.period_ps!r} ps)",
                obj=f"clock {clock.name}",
            )


def _check_clock_power(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    for buffer in view.buffers:
        if buffer.watts_per_hz < 0 or buffer.static_watts < 0:
            yield rule.diagnostic(
                f"clock buffer {buffer.name!r} has negative power coefficients "
                f"(watts_per_hz={buffer.watts_per_hz!r}, static={buffer.static_watts!r} W)",
                obj=f"clkbuf {buffer.name}",
            )
    for clock in view.gateable_clocks:
        if clock.watts_per_hz < 0:
            yield rule.diagnostic(
                f"gateable clock {clock.name!r} has a negative power coefficient "
                f"(watts_per_hz={clock.watts_per_hz!r})",
                obj=f"clock {clock.name}",
            )


# --- M3xx: FSM and flows -----------------------------------------------------


def _state_name(state: object) -> str:
    return getattr(state, "name", str(state))


def _check_unhandled_wake(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    fsm = view.fsm
    if fsm is None:
        return
    for state, handled in fsm.wake_receptive.items():
        missing = [t for t in fsm.wake_event_types if t not in handled]
        if missing:
            names = ", ".join(sorted(_state_name(t) for t in missing))
            yield rule.diagnostic(
                f"state {_state_name(state)} declares wake handling but does not "
                f"handle wake event type(s): {names}",
                obj=f"fsm state {_state_name(state)}",
                hint="an unhandled wake type is a lost wake: the platform never exits idle",
            )


def _flow_domain_names(flow: FlowView) -> Iterator[Tuple[object, str]]:
    for step in flow.steps:
        for attr in ("requires", "gates_off", "gates_on"):
            for name in getattr(step, attr, ()):
                yield step, name


def _check_flow_unknown_domain(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    if view.tree is None:
        return
    known = view.registered_domain_names()
    for flow in view.flows:
        for step, name in _flow_domain_names(flow):
            if name not in known:
                yield rule.diagnostic(
                    f"flow {flow.name!r} step {step.label!r} references power domain "
                    f"{name!r}, which does not exist in the power tree",
                    obj=f"flow {flow.name}:{step.label}",
                    hint="flow specs must name real domains; check for renames",
                )


def _check_flow_span_discipline(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    """Every instrumented flow step must open and close exactly one span.

    The flow controller tiles a flow with step spans keyed by the
    ``_step`` labels; the platform declares that tiling through
    ``observability_description()``.  A declaration missing a step (or
    naming one the flow never reaches) means an instrumented span is
    opened without ever being closed — a leak the exporters would carry
    forever — so the declared labels must match the declared flow steps
    exactly, in order, with no duplicates.
    """
    if not view.flows:
        return
    declared = view.obs_spans
    if declared is None:
        return  # uninstrumented model: no span contract to verify
    if not declared:
        yield rule.diagnostic(
            "instrumented platform declares entry/exit flows but no observability "
            "description; its flow-step spans cannot be verified against the flow specs",
            obj="platform",
            hint="implement observability_description() returning 'flow_span_labels'",
        )
        return
    for flow in view.flows:
        labels = declared.get(flow.name)
        step_labels = tuple(step.label for step in flow.steps)
        if labels is None:
            yield rule.diagnostic(
                f"flow {flow.name!r} declares no span labels; its instrumented "
                "steps would open spans no declaration accounts for",
                obj=f"flow {flow.name}",
                hint="add the flow to the platform's flow_span_labels declaration",
            )
            continue
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        for label in duplicates:
            yield rule.diagnostic(
                f"flow {flow.name!r} declares span label {label!r} more than once; "
                "a repeated label would close the wrong step's span",
                obj=f"flow {flow.name}:{label}",
            )
        if labels != step_labels:
            yield rule.diagnostic(
                f"flow {flow.name!r} span labels do not match its declared steps "
                f"(spans {list(labels)!r} vs steps {list(step_labels)!r}); a "
                "mismatched step opens a span that is never closed",
                obj=f"flow {flow.name}",
                hint="every instrumented flow step must open and close its own span",
            )


def _check_macro_ledger_coverage(rule: Rule, view: ModelView) -> Iterator[Diagnostic]:
    declared = view.macro_ledger_rails
    if declared is None:
        return  # platform does not support macro-stepping; nothing to cover
    declared_set = set(declared)
    live = {rail.name for rail in view.tree_rails()}
    for name in sorted(live - declared_set):
        yield rule.diagnostic(
            f"rail {name!r} exists in the power tree but is missing from the "
            "macro ledger declaration, so a compiled standby cycle would drop "
            "its energy from the per-segment ledger balance",
            obj=f"rail {name}",
            hint="add it to the ledger_rails of macro_description()",
        )
    for name in sorted(declared_set - live):
        yield rule.diagnostic(
            f"macro ledger declares rail {name!r} but no such rail exists in "
            "the power tree (stale declaration)",
            obj=f"rail {name}",
            hint="remove it from the ledger_rails of macro_description()",
        )


def _rule(
    rule_id: str, name: str, summary: str, check: ModelCheck
) -> Tuple[Rule, ModelCheck]:
    return Rule(rule_id, name, Severity.ERROR, summary), check


#: The model-verifier rule catalog, in catalog order: each rule paired
#: with its check.
MODEL_RULES: Tuple[Tuple[Rule, ModelCheck], ...] = (
    _rule("M101", "orphan-component", "component not attached to a powered domain",
          _check_orphan_component),
    _rule("M102", "domain-without-rail", "power domain not owned by any rail",
          _check_orphan_domain),
    _rule("M103", "rail-missing-regulator", "rail with no regulator",
          _check_rail_regulator),
    _rule("M104", "domain-multiply-owned", "domain owned by more than one rail",
          _check_multiply_owned),
    _rule("M105", "power-graph-cycle", "ownership cycle in the power graph",
          _check_cycle),
    _rule("M106", "undriveable-gate", "power gate with no bound driver",
          _check_undriveable_gate),
    _rule("M107", "negative-power", "negative power or impossible loss model",
          _check_negative_power),
    _rule("M108", "duplicate-component-name", "two components share a breakdown name",
          _check_duplicate_names),
    _rule("M201", "undriven-clock", "clock with no crystal driving it",
          _check_undriven_clock),
    _rule("M202", "unrealizable-frequency", "picosecond grid cannot express the frequency",
          _check_frequency_grid),
    _rule("M203", "negative-clock-power", "negative clock power coefficient",
          _check_clock_power),
    _rule("M303", "unhandled-wake", "wake event type unhandled in a receptive state",
          _check_unhandled_wake),
    _rule("M304", "flow-unknown-domain", "flow step references a non-existent domain",
          _check_flow_unknown_domain),
    _rule("M306", "flow-span-discipline", "instrumented flow step must open and close its span",
          _check_flow_span_discipline),
    _rule("M308", "macro-ledger-coverage", "macro ledger declaration must cover every powered rail",
          _check_macro_ledger_coverage),
)
