"""The processor's power-management unit (PMU).

The PMU owns the main timer (TSC), decides the target idle state from
LTR and TNTE hints (Sec. 2.2), monitors wake events in baseline DRIPS,
and is "partially power-gated" as the last entry step.  With ODRIPS the
wake monitoring moves to the chipset, which lets the PMU gate deeper
(Fig. 3(a) shows the added processor PMU power-gate).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.clocks.clock import DerivedClock
from repro.errors import FlowError, TimerError
from repro.processor.cstates import CSTATE_EXIT_LATENCY_PS, CState
from repro.sim.kernel import Event, Kernel
from repro.timers.tsc import TimeStampCounter


class ProcessorPMU:
    """PMU: TSC ownership, idle-state selection, baseline wake monitoring."""

    #: Gating modes and what they mean for the PMU's own power.
    MODE_ACTIVE = "active"          # folded into uncore power (component at 0)
    MODE_DRIPS = "drips"            # baseline partial gating
    MODE_DEEP = "deep"              # ODRIPS: chipset owns wake events
    MODE_OFF = "off"                # context in Boot SRAM during CTX restore

    def __init__(
        self,
        kernel: Kernel,
        fast_clock: DerivedClock,
        component,
        drips_power_watts: float,
        deep_power_watts: float,
    ) -> None:
        self.kernel = kernel
        self.tsc = TimeStampCounter("main_timer", fast_clock)
        self.component = component
        self.drips_power_watts = drips_power_watts
        self.deep_power_watts = deep_power_watts
        self._mode = self.MODE_ACTIVE
        self._wake_target: Optional[int] = None
        self._wake_event: Optional[Event] = None
        self._wake_callback: Optional[Callable[[int], None]] = None
        #: Firmware scratch registers that must survive DRIPS (restored by
        #: the Boot FSM in CTX mode).
        self.firmware_state: Dict[str, int] = {"patch_rev": 0x2100, "flow_flags": 0}
        #: Optional repro.obs tracer; None keeps set_mode at one attribute check.
        self.obs = None

    # --- gating modes -------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    def set_mode(self, mode: str) -> None:
        if mode == self.MODE_ACTIVE:
            self.component.set_power(0.0)
        elif mode == self.MODE_DRIPS:
            self.component.set_power(self.drips_power_watts)
        elif mode == self.MODE_DEEP:
            self.component.set_power(self.deep_power_watts)
        elif mode == self.MODE_OFF:
            self.component.set_power(0.0)
        else:
            raise FlowError(f"unknown PMU mode {mode!r}")
        obs = self.obs
        if obs is not None and mode != self._mode:
            obs.pmu_transition(self._mode, mode, self.kernel.now)
        self._mode = mode

    # --- idle-state selection (LTR + TNTE, Sec. 2.2) ---------------------------

    def select_idle_state(self, ltr_ps: int, tnte_ps: int) -> CState:
        """Deepest state whose exit fits LTR and whose transition cost is
        worth the expected idle time (a 2x exit-latency margin on TNTE)."""
        candidates = [CState.C10, CState.C8, CState.C6, CState.C2]
        for state in candidates:
            exit_latency = CSTATE_EXIT_LATENCY_PS[state]
            if exit_latency <= ltr_ps and 2 * exit_latency <= tnte_ps:
                return state
        return CState.C0

    # --- wake scheduling ----------------------------------------------------------

    def schedule_timer_event(self, target_count: int) -> None:
        """Register the next OS/firmware timer event (TSC target)."""
        if target_count < 0:
            raise TimerError("timer target cannot be negative")
        self._wake_target = target_count

    @property
    def wake_target(self) -> Optional[int]:
        return self._wake_target

    def set_wake_callback(self, callback: Optional[Callable[[int], None]]) -> None:
        """``callback(target)`` fires when the monitored timer expires."""
        self._wake_callback = callback

    def arm_baseline_monitor(self) -> int:
        """Baseline DRIPS: the PMU itself monitors the timer at 24 MHz.

        Returns the absolute wake time.  Raises when no event is pending
        (a platform must never enter DRIPS with nothing to wake it).
        """
        if self._wake_target is None:
            raise FlowError("no timer event scheduled; refusing to sleep forever")
        wake_ps = self.tsc.time_of_count(self._wake_target, self.kernel.now)
        self._wake_event = self.kernel.schedule_at(
            wake_ps, self._fire_wake, label="pmu:timer-wake"
        )
        return wake_ps

    def disarm_monitor(self) -> None:
        """Cancel the pending baseline wake (e.g. external wake came first)."""
        if self._wake_event is not None and self._wake_event.pending:
            self._wake_event.cancel()
        self._wake_event = None

    def _fire_wake(self) -> None:
        self._wake_event = None
        target = self._wake_target
        self._wake_target = None
        if self._wake_callback is not None and target is not None:
            self._wake_callback(target)

    # --- context for the Boot SRAM -----------------------------------------------------

    def export_state(self) -> Dict:
        """The PMU state the Boot FSM must restore in CTX mode."""
        return {
            "firmware_state": dict(self.firmware_state),
            "wake_target": self._wake_target,
        }

    def import_state(self, state: Dict) -> None:
        self.firmware_state = dict(state["firmware_state"])
        self._wake_target = state["wake_target"]
