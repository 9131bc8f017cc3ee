"""The chipset's wake hub: owns wake events while the processor sleeps.

In ODRIPS the hub holds the timer deadline on the slow-clocked dual
timer, watches external wake lines through 32 kHz GPIO monitors, and —
when anything fires — runs the chipset side of the exit flow: re-enable
the fast crystal, close the FET, and signal the processor over the PML.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import FlowError
from repro.io.wake import WakeEvent, WakeEventType
from repro.sim.kernel import Event, Kernel
from repro.timers.dual_timer import ChipsetDualTimer, TimerMode


class WakeHub:
    """Wake-event ownership and dispatch inside the chipset."""

    def __init__(self, kernel: Kernel, dual_timer: ChipsetDualTimer) -> None:
        self.kernel = kernel
        self.dual_timer = dual_timer
        self._wake_callback: Optional[Callable[[WakeEvent], None]] = None
        self._timer_event: Optional[Event] = None
        self._timer_target: Optional[int] = None
        self._owning = False
        self.history: List[WakeEvent] = []
        #: Optional repro.obs tracer; None keeps dispatch at one attribute check.
        self.obs = None

    # --- ownership -----------------------------------------------------------

    @property
    def owning(self) -> bool:
        """True while the chipset owns wake events (platform in ODRIPS)."""
        return self._owning

    def set_wake_callback(self, callback: Optional[Callable[[WakeEvent], None]]) -> None:
        self._wake_callback = callback

    def take_ownership(self, timer_target: Optional[int]) -> Optional[int]:
        """Start owning wake events; arm the timer deadline if present.

        The dual timer must already be in slow mode (the entry flow
        completed the handoff).  Returns the absolute wake time for the
        timer deadline, or None when only external wakes are armed.
        """
        if self.dual_timer.mode is not TimerMode.SLOW:
            raise FlowError("wake hub needs the dual timer in slow mode")
        self._owning = True
        self._timer_target = timer_target
        if timer_target is None:
            return None
        wake_ps = self.dual_timer.time_of_count(timer_target, self.kernel.now)
        self._timer_event = self.kernel.schedule_at(
            wake_ps, self._fire_timer, label="wakehub:timer"
        )
        return wake_ps

    def release_ownership(self) -> None:
        """Processor is awake again; cancel pending hub wakes."""
        self._owning = False
        if self._timer_event is not None and self._timer_event.pending:
            self._timer_event.cancel()
        self._timer_event = None

    # --- event sources ------------------------------------------------------------

    def _fire_timer(self) -> None:
        self._timer_event = None
        target = self._timer_target
        self._timer_target = None
        self._dispatch(
            WakeEvent(WakeEventType.TIMER, self.kernel.now, timer_target=target)
        )

    def external_wake(self, event_type: WakeEventType, detail: str = "") -> None:
        """An external source (GPIO monitor, NIC) requests a wake."""
        self._dispatch(WakeEvent(event_type, self.kernel.now, detail=detail))

    def _dispatch(self, event: WakeEvent) -> None:
        if not self._owning:
            return  # stale event; the processor already owns wakes again
        self._owning = False
        if self._timer_event is not None and self._timer_event.pending:
            self._timer_event.cancel()
            self._timer_event = None
        self.history.append(event)
        obs = self.obs
        if obs is not None:
            obs.wake_delivered(
                event.event_type.name.lower(), self.kernel.now, event.detail
            )
        if self._wake_callback is None:
            raise FlowError("wake hub fired with no callback installed")
        self._wake_callback(event)
