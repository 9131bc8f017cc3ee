"""Platform-level power states of the connected-standby cycle (Fig. 2).

The four states of Equation 1: Active (C0 with display off), Entry,
DRIPS (or ODRIPS), and Exit.  Residency in each is what the average-power
model weighs.
"""

from __future__ import annotations

import enum

from repro.io.wake import WakeEventType


class PlatformState(enum.Enum):
    """Where the platform is in the periodic connected-standby cycle."""

    BOOT = "boot"
    ACTIVE = "active"     # C0, display off, kernel maintenance
    ENTRY = "entry"       # executing the DRIPS entry flow
    DRIPS = "drips"       # deepest runtime idle (baseline or ODRIPS)
    EXIT = "exit"         # executing the DRIPS exit flow

    @property
    def in_transition(self) -> bool:
        return self in (PlatformState.ENTRY, PlatformState.EXIT)


#: Trace channel names the platform publishes.
STATE_CHANNEL = "state"
POWER_CHANNEL = "platform"
WAKE_CHANNEL = "wake"
FLOW_CHANNEL = "flow"  # step-by-step log of the entry/exit flows


# --- declared FSM structure (introspection hook for repro.lint) -------------
#
# The flows below sequence the platform through exactly these edges; the
# static model verifier checks reachability, exit paths and wake-event
# coverage against this declaration, so keep it in sync with
# FlowController when adding states.

#: State the platform boots into.
FSM_INITIAL = PlatformState.BOOT

#: The state every cycle must be able to return to.
FSM_ACTIVE = PlatformState.ACTIVE

#: Legal state transitions of the connected-standby cycle (Fig. 2).
FSM_TRANSITIONS = {
    PlatformState.BOOT: (PlatformState.ACTIVE,),
    PlatformState.ACTIVE: (PlatformState.ENTRY,),
    PlatformState.ENTRY: (PlatformState.DRIPS,),
    PlatformState.DRIPS: (PlatformState.EXIT,),
    PlatformState.EXIT: (PlatformState.ACTIVE,),
}

#: States that must react to wake events, and the event types they
#: handle.  DRIPS is the only wake-receptive state: the PMU (baseline)
#: or the chipset wake hub (ODRIPS) must field every wake-event type, or
#: a wake is silently lost and the platform idles forever.
FSM_WAKE_RECEPTIVE = {
    PlatformState.DRIPS: frozenset(WakeEventType),
}


# --- declared safety couplings (hook for repro.check) ------------------------
#
# The exhaustive model checker composes the FSM with the flow specs and
# verifies these couplings in every reachable state; keep them in sync
# with the platform builder when renaming domains or clocks.

#: Clock source each *live* (powered and un-quiesced) domain depends on.
#: A flow that gates the clock while the domain still executes — or
#: resumes the domain before restoring the clock — is the AgileWatts
#: class of idle-sequencing bug the checker's C201 invariant catches.
CLOCK_REQUIREMENTS = (
    ("proc.compute", "clk-24mhz"),   # cores/uncore execute off the fast clock
    ("pch.aon", "clk-32khz"),        # wake hub + dual timer tick on the RTC
)

#: Domains able to field a wake event while the platform idles.  At
#: least one must stay powered in every idle state, or a wake is lost
#: and the platform never exits DRIPS (C204).
WAKE_SOURCE_DOMAINS = ("proc.pmu", "pch.aon")
