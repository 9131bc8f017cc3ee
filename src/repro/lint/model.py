"""Static model verifier: walks a constructed platform before it runs.

The paper's hardware enforced the power/clock/FSM wiring physically; the
simulator only enforces it by convention, so a mis-wired model produces
plausible-but-wrong energy numbers.  :func:`lint_platform` takes a built
platform (for example ``SkylakePlatform()``), extracts a
:class:`ModelView` — every rail, domain, component, gate, crystal and
derived clock reachable from the platform object, plus the declared
platform-state FSM and entry/exit flow specs — and runs the rule catalog
of :mod:`repro.lint.rules_model` over it.

The walk is attribute-based: it recurses through ``__dict__``, lists,
tuples and dict values of the platform object graph, classifying what it
finds by type.  That means anything the platform holds a reference to is
checked, including objects a builder forgot to register with the
:class:`~repro.power.tree.PowerTree` — which is exactly the class of bug
the orphan rules exist for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.clocks.clock import DerivedClock, GateableClock
from repro.clocks.crystal import CrystalOscillator
from repro.clocks.tree import ClockBuffer
from repro.effects import declares_effects
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.power.domain import Component, PowerDomain, Rail
from repro.power.gates import PowerGate
from repro.power.tree import PowerTree

#: Recursion depth limit of the object-graph walk; the deepest real chain
#: (platform -> board -> device -> component) is well inside this.
_MAX_WALK_DEPTH = 8


@dataclass(frozen=True)
class FSMView:
    """Declared platform-state machine, as the verifier sees it.

    ``transitions`` maps each state to the states it may move to;
    ``wake_receptive`` maps the states that must handle wake events to
    the event types they declare handling for; ``wake_event_types`` is
    the full universe of wake-event types the platform can observe.
    """

    states: Tuple[Any, ...]
    initial: Any
    active: Any
    transitions: Dict[Any, Tuple[Any, ...]]
    wake_receptive: Dict[Any, frozenset]
    wake_event_types: Tuple[Any, ...]


@dataclass(frozen=True)
class FlowView:
    """One declared flow: an ordered list of step specs.

    Each step is a :class:`~repro.system.flows.FlowStepSpec`-like object
    with ``label``, ``requires``, ``gates_off`` and ``gates_on`` domain
    name tuples.
    """

    name: str
    steps: Tuple[Any, ...]


@dataclass
class ModelView:
    """Everything the model rules inspect, decoupled from the builder."""

    tree: Optional[PowerTree] = None
    rails: List[Rail] = field(default_factory=list)
    domains: List[PowerDomain] = field(default_factory=list)
    components: List[Component] = field(default_factory=list)
    gates: List[PowerGate] = field(default_factory=list)
    crystals: List[CrystalOscillator] = field(default_factory=list)
    clocks: List[DerivedClock] = field(default_factory=list)
    gateable_clocks: List[GateableClock] = field(default_factory=list)
    buffers: List[ClockBuffer] = field(default_factory=list)
    fsm: Optional[FSMView] = None
    flows: List[FlowView] = field(default_factory=list)
    #: Declared flow-step span labels (flow name -> ordered label tuple),
    #: from the platform's ``observability_description()`` hook.  None
    #: means the model is uninstrumented (no ``obs`` seam at all); an
    #: empty dict means the platform is instrumented but declared nothing,
    #: which the span-discipline rule flags.
    obs_spans: Optional[Dict[str, Tuple[str, ...]]] = None
    #: Declared (domain, clock) couplings from ``safety_description()``:
    #: the clock each live domain depends on.  Consumed by the exhaustive
    #: model checker (:mod:`repro.check`), not by the lint rules.
    clock_requirements: Tuple[Tuple[str, str], ...] = ()
    #: Domains declared able to field a wake event while the platform
    #: idles (``safety_description()`` hook).
    wake_sources: Tuple[str, ...] = ()
    #: Rails the macro-stepping executor declares it replays energy for
    #: (``macro_description()`` hook).  None means the platform does not
    #: support macro-stepping and owes no declaration; a tuple is checked
    #: for full coverage of the live power tree by rule M308.
    macro_ledger_rails: Optional[Tuple[str, ...]] = None
    #: Declared quantitative budgets (``budget_description()`` hook):
    #: wake-latency budgets, residency guarantees and tolerances per deep
    #: power state, plus the chipset/power sub-declarations the
    #: priced-timed analysis (:mod:`repro.check.budgets`) consumes.  None
    #: means the platform declares no budgets; rule C604 then fires for
    #: every reachable deep state.
    budgets: Optional[Dict[str, Any]] = None

    # --- derived views used by several rules -----------------------------

    def tree_rails(self) -> List[Rail]:
        return list(self.tree.rails) if self.tree is not None else []

    def registered_domains(self) -> List[PowerDomain]:
        """Domains reachable through the power tree's rails."""
        return [domain for rail in self.tree_rails() for domain in rail.domains]

    def registered_domain_names(self) -> Set[str]:
        return {domain.name for domain in self.registered_domains()}


def _classify(obj: Any, view: ModelView, seen: Set[int]) -> None:
    """File ``obj`` under the matching ModelView bucket (at most one)."""
    if isinstance(obj, PowerTree) and view.tree is None:
        view.tree = obj
    elif isinstance(obj, Rail):
        view.rails.append(obj)
    elif isinstance(obj, PowerDomain):
        view.domains.append(obj)
    elif isinstance(obj, Component):
        view.components.append(obj)
    elif isinstance(obj, PowerGate):
        view.gates.append(obj)
    elif isinstance(obj, CrystalOscillator):
        view.crystals.append(obj)
    elif isinstance(obj, GateableClock):
        view.gateable_clocks.append(obj)
    elif isinstance(obj, DerivedClock):
        view.clocks.append(obj)
    elif isinstance(obj, ClockBuffer):
        view.buffers.append(obj)


def _children(obj: Any) -> Iterable[Any]:
    """Sub-objects worth walking into."""
    if isinstance(obj, dict):
        return list(obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return list(obj)
    if hasattr(obj, "__dict__"):
        return list(vars(obj).values())
    return ()


def _walkable(obj: Any) -> bool:
    if obj is None or isinstance(obj, (str, bytes, bytearray, int, float, bool, complex)):
        return False
    return True


@declares_effects("identity")  # id() keys the visited set; buckets are sorted
def walk_model(root: Any) -> ModelView:
    """Collect a :class:`ModelView` from an arbitrary platform object."""
    view = ModelView()
    seen: Set[int] = set()
    stack: List[Tuple[Any, int]] = [(root, 0)]
    while stack:
        obj, depth = stack.pop()
        if not _walkable(obj) or id(obj) in seen or depth > _MAX_WALK_DEPTH:
            continue
        seen.add(id(obj))
        _classify(obj, view, seen)
        for child in _children(obj):
            stack.append((child, depth + 1))
    # Model objects the walk found only through containers still count;
    # order the buckets deterministically for stable diagnostics.
    view.rails.sort(key=lambda rail: rail.name)
    view.domains.sort(key=lambda domain: domain.name)
    view.components.sort(key=lambda component: component.name)
    view.gates.sort(key=lambda gate: gate.name)
    view.crystals.sort(key=lambda crystal: crystal.name)
    view.clocks.sort(key=lambda clock: clock.name)
    view.gateable_clocks.sort(key=lambda clock: clock.name)
    view.buffers.sort(key=lambda buffer: buffer.name)
    view.fsm = _fsm_view_of(root)
    view.flows = _flow_views_of(root)
    view.obs_spans = _obs_spans_of(root)
    view.clock_requirements, view.wake_sources = _safety_of(root)
    view.macro_ledger_rails = _macro_of(root)
    view.budgets = _budgets_of(root)
    return view


def _fsm_view_of(root: Any) -> Optional[FSMView]:
    """Read the platform's declared FSM through its introspection hook."""
    describe = getattr(root, "fsm_description", None)
    if describe is None:
        return None
    spec = describe()
    return FSMView(
        states=tuple(spec["states"]),
        initial=spec["initial"],
        active=spec["active"],
        transitions={state: tuple(targets) for state, targets in spec["transitions"].items()},
        wake_receptive={
            state: frozenset(types) for state, types in spec["wake_receptive"].items()
        },
        wake_event_types=tuple(spec["wake_event_types"]),
    )


def _flow_views_of(root: Any) -> List[FlowView]:
    describe = getattr(root, "flow_descriptions", None)
    if describe is None:
        return []
    return [FlowView(name=name, steps=tuple(steps)) for name, steps in describe().items()]


def _obs_spans_of(root: Any) -> Optional[Dict[str, Tuple[str, ...]]]:
    """Read the platform's declared flow-span labels (observability hook).

    Platforms without an ``obs`` attribute are uninstrumented models
    (e.g. bare test fixtures) and owe no declaration: they map to None.
    """
    describe = getattr(root, "observability_description", None)
    if describe is None:
        return {} if hasattr(root, "obs") else None
    spec = describe()
    return {
        name: tuple(labels)
        for name, labels in spec.get("flow_span_labels", {}).items()
    }


def _safety_of(root: Any) -> Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]:
    """Read the platform's declared safety couplings (repro.check hook)."""
    describe = getattr(root, "safety_description", None)
    if describe is None:
        return (), ()
    spec = describe()
    requirements = tuple(
        (str(domain), str(clock))
        for domain, clock in spec.get("clock_requirements", ())
    )
    return requirements, tuple(str(name) for name in spec.get("wake_sources", ()))


def _macro_of(root: Any) -> Optional[Tuple[str, ...]]:
    """Read the platform's declared macro ledger coverage (macro hook).

    Platforms without a ``macro_description`` hook do not participate in
    macro-stepping and map to None (rule M308 skips them).
    """
    describe = getattr(root, "macro_description", None)
    if describe is None:
        return None
    spec = describe()
    return tuple(str(name) for name in spec.get("ledger_rails", ()))


def _budgets_of(root: Any) -> Optional[Dict[str, Any]]:
    """Read the platform's declared quantitative budgets (budget hook).

    Platforms without a ``budget_description`` hook declare no budgets
    and map to None; the priced-timed analysis then reports C604 for
    every reachable deep power state.  The declaration is returned as-is
    (a plain dict tree): parsing and validation live with the consumer,
    :mod:`repro.check.budgets`, so a malformed declaration surfaces as a
    diagnostic rather than an exception inside the walk.
    """
    describe = getattr(root, "budget_description", None)
    if describe is None:
        return None
    spec = describe()
    return dict(spec) if isinstance(spec, dict) else {"malformed": spec}


def lint_model_view(view: ModelView) -> List[Diagnostic]:
    """Run every model rule over an already-extracted view."""
    from repro.lint.rules_model import MODEL_RULES

    diagnostics: List[Diagnostic] = []
    for rule, check in MODEL_RULES:
        diagnostics.extend(check(rule, view))
    return sort_diagnostics(diagnostics)


def lint_platform(platform: Any) -> List[Diagnostic]:
    """Extract a :class:`ModelView` from ``platform`` and verify it."""
    return lint_model_view(walk_model(platform))
