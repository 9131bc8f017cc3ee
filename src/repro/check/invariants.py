"""Declarative power-safety invariants checked in every reachable state.

Each :class:`Invariant` is a named predicate over one
:class:`~repro.check.ts.ComposedState`; the explorer evaluates every
enabled invariant in every state it visits and reports the first witness
of each distinct violation as a ``C2xx`` diagnostic.

The builtin catalog encodes the sequencing contracts the paper's
hardware enforced physically:

* ``clock-coupling`` (C201) — a *live* domain (powered and not halted)
  never runs with its declared clock source gated.  The entry flow may
  gate ``clk-24mhz`` while ``proc.compute`` is still powered, but only
  because an earlier step already quiesced it; delete that quiesce (or
  the exit flow's clock restart) and this invariant fires.
* ``rails-restored`` (C202) — re-entering the active state means every
  power rail the entry flow gated off has been restored: the flow's
  exit path undoes everything its entry path did.
* ``ledger-balanced`` (C203) — the suspend/resume ledger is conserved
  across any closed walk: back in the active state, no clock is still
  gated and no domain is still halted.  This is the static analogue of
  the energy-ledger conservation check the runtime attributor performs.
* ``wake-armed`` (C204) — every idle (wake-receptive) state keeps at
  least one declared wake-source domain powered; otherwise a wake event
  is lost and the platform never exits DRIPS.

Invariants only constrain what the platform *declared* (the
``safety_description()`` hook): a model with no clock requirements
trivially satisfies ``clock-coupling``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.check.rules import C201_RULE, C202_RULE, C203_RULE, C204_RULE
from repro.check.ts import ComposedState, TransitionSystem
from repro.errors import ConfigError
from repro.lint.diagnostics import Rule


@dataclass(frozen=True)
class Invariant:
    """One safety predicate, evaluated in every reachable composed state.

    ``check(ts, state)`` returns ``None`` when the state satisfies the
    invariant, or a human-readable description of the violation.  The
    explorer attaches the witness path and reports it under ``rule``.
    """

    name: str
    rule: Rule
    description: str
    check: Callable[[TransitionSystem, ComposedState], Optional[str]]


def _is_live(state: ComposedState, domain: str) -> bool:
    return domain not in state.off and domain not in state.halted


def _check_clock_coupling(ts: TransitionSystem, state: ComposedState) -> Optional[str]:
    for domain, clock in ts.clock_requirements:
        if clock in state.gated and _is_live(state, domain):
            return (
                f"domain {domain!r} is live (powered, not halted) but its "
                f"required clock {clock!r} is gated"
            )
    return None


def _check_rails_restored(ts: TransitionSystem, state: ComposedState) -> Optional[str]:
    if state.fsm != ts.active or not state.off:
        return None
    return (
        f"active state {ts.active!r} re-entered with power domain(s) "
        f"{', '.join(sorted(state.off))} still gated off"
    )


def _check_ledger_balanced(ts: TransitionSystem, state: ComposedState) -> Optional[str]:
    if state.fsm != ts.active:
        return None
    leftovers = []
    if state.gated:
        leftovers.append("clock(s) " + ", ".join(sorted(state.gated)) + " still gated")
    if state.halted:
        leftovers.append("domain(s) " + ", ".join(sorted(state.halted)) + " still halted")
    if not leftovers:
        return None
    return (
        f"suspend/resume ledger unbalanced back in {ts.active!r}: "
        + "; ".join(leftovers)
    )


def _check_wake_armed(ts: TransitionSystem, state: ComposedState) -> Optional[str]:
    if not ts.wake_sources or state.fsm not in ts.idle_states:
        return None
    if any(source not in state.off for source in ts.wake_sources):
        return None
    return (
        f"idle state {state.fsm!r} reached with every wake source "
        f"({', '.join(sorted(ts.wake_sources))}) gated off; a wake event "
        "would be lost"
    )


#: The builtin invariant catalog, in rule-id order.
BUILTIN_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        name="clock-coupling",
        rule=C201_RULE,
        description="a live domain's required clock source is never gated",
        check=_check_clock_coupling,
    ),
    Invariant(
        name="rails-restored",
        rule=C202_RULE,
        description="flow exit restores every rail its entry gated off",
        check=_check_rails_restored,
    ),
    Invariant(
        name="ledger-balanced",
        rule=C203_RULE,
        description="suspend/resume ledger conserved across a closed walk",
        check=_check_ledger_balanced,
    ),
    Invariant(
        name="wake-armed",
        rule=C204_RULE,
        description="every idle state keeps at least one wake source powered",
        check=_check_wake_armed,
    ),
)

INVARIANTS_BY_NAME: Dict[str, Invariant] = {inv.name: inv for inv in BUILTIN_INVARIANTS}


def select_invariants(names: Optional[Tuple[str, ...]] = None) -> Tuple[Invariant, ...]:
    """Resolve ``--invariants`` names to catalog entries (all by default).

    Unknown names raise :class:`~repro.errors.ConfigError`.
    """
    if names is None:
        return BUILTIN_INVARIANTS
    unknown = [name for name in names if name not in INVARIANTS_BY_NAME]
    if unknown:
        known = ", ".join(sorted(INVARIANTS_BY_NAME))
        raise ConfigError(
            f"unknown invariant(s): {', '.join(sorted(unknown))} (known: {known})"
        )
    return tuple(INVARIANTS_BY_NAME[name] for name in names)
