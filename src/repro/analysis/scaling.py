"""Process-technology power scaling (Sec. 7, step 2 of the power model).

"To estimate the power consumption of our processor, Skylake, we scale
the measured power consumption of Haswell-ULT (22 nm) to that of Skylake
(14 nm) ... using the characteristics of the new process that determines
the scaling factor" — the methodology of Butts & Sohi [8] for leakage and
Stillmaker & Baas [79] for node-to-node scaling.

First-order model: dynamic power scales with ``capacitance x voltage^2``
(same frequency), leakage power scales with the node's leakage factor
times ``voltage``.
"""

from __future__ import annotations

from repro.config import ProcessNode
from repro.errors import ConfigError


def scaling_factor(
    source: ProcessNode, target: ProcessNode, kind: str = "leakage"
) -> float:
    """Power ratio ``target / source`` for the given power ``kind``.

    ``kind`` is ``"leakage"`` (standby power, the DRIPS-relevant term) or
    ``"dynamic"`` (switching power).
    """
    if kind == "leakage":
        ratio = (target.leakage_scale / source.leakage_scale) * (
            target.voltage_scale / source.voltage_scale
        )
    elif kind == "dynamic":
        ratio = (target.capacitance_scale / source.capacitance_scale) * (
            target.voltage_scale / source.voltage_scale
        ) ** 2
    else:
        raise ConfigError(f"unknown power kind {kind!r}")
    if ratio <= 0:
        raise ConfigError("scaling produced a non-positive ratio")
    return ratio


def scale_power(
    power_watts: float,
    source: ProcessNode,
    target: ProcessNode,
    kind: str = "leakage",
) -> float:
    """Scale a measured power from ``source`` node to ``target`` node."""
    if power_watts < 0:
        raise ConfigError("power must be non-negative")
    return power_watts * scaling_factor(source, target, kind)


# ---------------------------------------------------------------------------
# temperature sensitivity (the "measured at 30 C" qualifier of Fig. 1(b))
# ---------------------------------------------------------------------------

#: Reference die/board temperature of the paper's measurement (Fig. 1(b)).
REFERENCE_TEMP_C = 30.0

#: Subthreshold leakage roughly doubles every ~22 C in these nodes.
LEAKAGE_DOUBLING_C = 22.0

#: DRAM self-refresh rate (and its power) doubles at the JEDEC extended-
#: temperature boundary; model it as doubling every ~35 C.
SELF_REFRESH_DOUBLING_C = 35.0

#: How much of each DRIPS budget slice is leakage (temperature-sensitive).
#: Clocked components (crystals, monitors toggling) are mostly dynamic.
LEAKAGE_FRACTION_OF_SLICE = {
    "timer_wakeup_monitor_w": 0.2,
    "aon_io_bank_w": 0.8,
    "sr_sram_w": 1.0,
    "pmu_ungated_w": 0.7,
    "cke_drive_w": 0.1,
    "fast_xtal_w": 0.0,
    "slow_xtal_w": 0.0,
    "chipset_aon_w": 0.6,
    "chipset_proc_link_w": 0.5,
    "chipset_wake_monitor_w": 0.1,
    "board_other_w": 0.3,
    "sram_retention_vr_quiescent_w": 0.2,
    "aon_vr_quiescent_w": 0.2,
}


def temperature_leakage_factor(
    temp_c: float,
    reference_c: float = REFERENCE_TEMP_C,
    doubling_c: float = LEAKAGE_DOUBLING_C,
) -> float:
    """Leakage multiplier at ``temp_c`` vs the reference temperature."""
    return 2.0 ** ((temp_c - reference_c) / doubling_c)


def drips_power_at_temperature(budget, temp_c: float) -> float:
    """Platform DRIPS power (watts) at an ambient other than 30 C.

    Each budget slice splits into a temperature-sensitive leakage part
    and a temperature-flat dynamic part; DRAM self-refresh scales on its
    own (refresh-rate) law.  This quantifies why the paper pins its
    Fig. 1(b) measurement at 30 C.
    """
    leak_factor = temperature_leakage_factor(temp_c)
    refresh_factor = temperature_leakage_factor(
        temp_c, doubling_c=SELF_REFRESH_DOUBLING_C
    )
    total = 0.0
    for field_name, leak_fraction in LEAKAGE_FRACTION_OF_SLICE.items():
        watts = getattr(budget, field_name)
        total += watts * (1 - leak_fraction) + watts * leak_fraction * leak_factor
    total += budget.chipset_dual_timer_w
    total += budget.dram_self_refresh_w * refresh_factor
    return total
