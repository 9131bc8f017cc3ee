"""The chipset (PCH) top level.

Aggregates the chipset pieces the paper touches: the always-on domain,
the processor-facing link slice, the wake-event monitor (24 MHz in
baseline, 32.768 kHz in ODRIPS), the new dual timer with its Step
register, the spare-GPIO bank, and the wake hub.
"""

from __future__ import annotations

from typing import Optional

from repro.chipset.wake_hub import WakeHub
from repro.clocks.clock import DerivedClock
from repro.config import DRIPSPowerBudget
from repro.errors import FlowError
from repro.io.gpio import GPIOController, GPIOMonitor
from repro.io.wake import WakeEventType
from repro.power.domain import PowerDomain
from repro.sim.kernel import Kernel
from repro.timers.calibration import StepCalibrator
from repro.timers.dual_timer import ChipsetDualTimer


class Chipset:
    """Sunrise Point-LP model with the ODRIPS additions of Fig. 3(a)."""

    def __init__(
        self,
        kernel: Kernel,
        domain: PowerDomain,
        fast_clock: DerivedClock,
        slow_clock: DerivedClock,
        budget: DRIPSPowerBudget,
        timer_frac_bits: int,
        timer_int_bits: int,
    ) -> None:
        self.kernel = kernel
        self.budget = budget
        # --- power components -------------------------------------------------
        self.aon_component = domain.new_component("pch.aon", budget.chipset_aon_w)
        self.proc_link_component = domain.new_component(
            "pch.proc_link", budget.chipset_proc_link_w
        )
        self.wake_monitor_component = domain.new_component(
            "pch.wake_monitor", budget.chipset_wake_monitor_w
        )
        self.dual_timer_component = domain.new_component(
            "pch.dual_timer", 0.0
        )
        # --- new hardware (dashed blocks of Fig. 3(a)) -------------------------
        self.dual_timer = ChipsetDualTimer(
            "pch.dual_timer", fast_clock, slow_clock, frac_bits=timer_frac_bits
        )
        self.calibrator = StepCalibrator(
            fast_clock.source, slow_clock.source,
            frac_bits=timer_frac_bits, int_bits=timer_int_bits,
        )
        self.gpios = GPIOController("pch.gpio")
        self.wake_hub = WakeHub(kernel, self.dual_timer)
        self.slow_clock = slow_clock
        self.fast_clock = fast_clock
        # GPIO allocations of Sec. 5.3: one for the offloaded thermal
        # event, one for the FET gate control.
        self.thermal_gpio = self.gpios.allocate_spare("ec-thermal-wake")
        self.fet_gpio = self.gpios.allocate_spare("aon-io-fet-gate")
        self._thermal_monitor: Optional[GPIOMonitor] = None
        self._calibrated = False

    # --- calibration (once per reset, Sec. 4.1.3) -------------------------------

    @property
    def calibrated(self) -> bool:
        return self._calibrated

    def run_step_calibration(self) -> None:
        """Count fast edges over 2^f slow cycles and install Step.

        The multi-second window is computed analytically; the platform
        boot sequence calls this once.
        """
        result = self.calibrator.run(self.kernel.now)
        self.dual_timer.set_step(result.step)
        self.dual_timer_component.set_power(self.budget.chipset_dual_timer_w)
        self._calibrated = True

    # --- wake monitoring clock (the WAKE-UP-OFF lever) -----------------------------

    def monitor_at_fast_clock(self) -> None:
        """Baseline: wake sources toggled/monitored at 24 MHz (Sec. 2.2)."""
        self.wake_monitor_component.set_power(self.budget.chipset_wake_monitor_w)

    def monitor_at_slow_clock(self) -> None:
        """ODRIPS: monitoring moves to the 32.768 kHz clock."""
        self.wake_monitor_component.set_power(self.budget.chipset_wake_monitor_slow_w)

    # --- budget introspection -------------------------------------------------------

    def budget_description(self) -> dict:
        """Declared worst-case latency allowances of the chipset clocks.

        Flow steps that synchronize to the 32.768 kHz clock (the timer
        hand-off during entry, the crystal restart during exit) observe a
        *phase-dependent* edge wait: anywhere between zero and one full
        slow-clock period.  The priced-timed analysis
        (:mod:`repro.check.budgets`) adds these allowances on top of the
        probed step latencies so the worst-case exit path covers every
        wake phase, not just the one a single probe cycle happened to see.
        """
        slow_period_ps = self.slow_clock.period_ps
        return {
            "slow_clock_hz": self.slow_clock.effective_hz,
            "step_allowances_ps": {
                "entry:clock-shutdown": slow_period_ps,
                "exit:xtal-restart": slow_period_ps,
            },
        }

    # --- processor-facing link ------------------------------------------------------

    def idle_proc_link(self) -> None:
        """Quiesce the chipset side of the processor links (ODRIPS)."""
        self.proc_link_component.set_power(0.0)

    def resume_proc_link(self) -> None:
        self.proc_link_component.set_power(self.budget.chipset_proc_link_w)

    # --- offloaded thermal wake (Sec. 5.2) ---------------------------------------------

    def attach_thermal_line(self, line) -> None:
        """Route the EC thermal line to the spare GPIO's 32 kHz monitor."""
        def on_thermal() -> None:
            self.wake_hub.external_wake(WakeEventType.THERMAL, detail="ec-gpio")

        self._thermal_monitor = GPIOMonitor(
            self.kernel, self.slow_clock, line, on_thermal, name="pch.thermal-monitor"
        )

    def arm_thermal_monitor(self) -> None:
        if self._thermal_monitor is None:
            raise FlowError("no thermal line attached")
        self._thermal_monitor.arm()

    def disarm_thermal_monitor(self) -> None:
        if self._thermal_monitor is not None:
            self._thermal_monitor.disarm()

    # --- FET control ------------------------------------------------------------------

    def drive_fet(self, conducting: bool) -> None:
        """Drive the AON-IO FET gate through the dedicated spare GPIO."""
        self.gpios.drive(self.fet_gpio, conducting)
