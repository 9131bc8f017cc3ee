"""Tests for the integrated platform: construction, state power levels."""

import pytest

from repro.config import skylake_config
from repro.core.techniques import ContextStore, TechniqueSet
from repro.core.odrips import ODRIPSController
from repro.errors import ConfigError, FlowError
from repro.system.skylake import AON_IO_PAD_SHARES, SkylakePlatform
from repro.system.states import PlatformState

from _platform import build_platform


class TestConstruction:
    def test_boot_lands_in_active(self, baseline_platform):
        baseline_platform.boot()
        assert baseline_platform.state is PlatformState.ACTIVE
        assert baseline_platform.booted

    def test_double_boot_rejected(self, baseline_platform):
        baseline_platform.boot()
        with pytest.raises(FlowError):
            baseline_platform.boot()

    def test_pad_shares_sum_to_one(self):
        assert sum(AON_IO_PAD_SHARES.values()) == pytest.approx(1.0)

    def test_aon_io_bank_matches_budget(self, baseline_platform):
        budget = baseline_platform.config.budget
        assert baseline_platform.aon_io_bank.total_power_watts() == pytest.approx(
            budget.aon_io_bank_w
        )

    def test_mee_present_only_for_protected_stores(self):
        assert build_platform(TechniqueSet.baseline()).mee is None
        assert build_platform(TechniqueSet.ctx_sgx_dram_only(), small_context=True).mee is not None
        assert build_platform(TechniqueSet.odrips_pcm(), small_context=True).mee is not None
        assert build_platform(TechniqueSet.odrips_mram(), small_context=True).mee is None

    def test_pcm_replaces_dram(self):
        platform = build_platform(TechniqueSet.odrips_pcm(), small_context=True)
        assert platform.board.is_pcm_main_memory
        assert platform.board.memory.name.startswith("pcm")

    def test_chipset_sram_store(self):
        from repro.core.techniques import Technique

        techniques = TechniqueSet({Technique.CTX_SGX_DRAM}, ContextStore.CHIPSET_SRAM)
        platform = build_platform(techniques, small_context=True)
        assert platform.chipset_context_sram is not None

    def test_calibration_runs_at_boot_only_with_wake_up_off(self):
        baseline = build_platform(TechniqueSet.baseline())
        baseline.boot()
        assert not baseline.chipset.calibrated
        odrips = build_platform(TechniqueSet.wake_up_off_only())
        odrips.boot()
        assert odrips.chipset.calibrated


class TestStatePowerLevels:
    def test_active_power_near_3w(self, baseline_platform):
        """Sec. 7: ~3 W in C0 with the display off."""
        baseline_platform.boot()
        assert baseline_platform.platform_power() == pytest.approx(3.0, abs=0.15)

    def test_baseline_drips_power_near_60mw(self, baseline_platform):
        """Fig. 1(b): ~60 mW platform DRIPS power.

        ``apply_drips_state`` sets the power levels; the device-state side
        effects (context into retention SRAM, DRAM into self-refresh) are
        the flows' job, so this test performs them manually.
        """
        baseline_platform.boot()
        baseline_platform.sr_srams.power_on()
        baseline_platform.sr_srams.enter_retention()
        baseline_platform.apply_drips_state()
        baseline_platform.memory_controller.enter_self_refresh()
        assert baseline_platform.platform_power() * 1e3 == pytest.approx(60.0, abs=1.0)

    def test_budget_total_is_60mw(self):
        assert skylake_config().budget.platform_total_w() * 1e3 == pytest.approx(60.0, abs=0.1)

    def test_processor_share_is_18_percent(self):
        budget = skylake_config().budget
        share = budget.processor_total_w() / budget.platform_total_w()
        assert share == pytest.approx(0.18, abs=0.005)

    def test_odrips_drips_power_below_baseline(self):
        baseline = build_platform(TechniqueSet.baseline())
        baseline.boot()
        baseline.apply_drips_state()
        baseline.memory_controller.enter_self_refresh()
        base_power = baseline.platform_power()

        odrips = build_platform(TechniqueSet.odrips(), small_context=True)
        odrips.boot()
        odrips.sr_srams.power_off()
        odrips.board.fast_xtal.disable(0)
        odrips.dom_aon_io.power_off()
        odrips.apply_drips_state()
        odrips.memory_controller.enter_self_refresh()
        assert odrips.platform_power() < base_power * 0.80

    def test_flow_power_pinning(self, baseline_platform):
        baseline_platform.boot()
        baseline_platform.set_total_power(0.9)
        assert baseline_platform.platform_power() == pytest.approx(0.9, abs=1e-6) or (
            baseline_platform.platform_power() > 0.9
        )
        # with compute stopped the pin is exact
        baseline_platform.compute.stop()
        baseline_platform.uncore_component.set_power(0.0)
        baseline_platform.set_total_power(0.9)
        assert baseline_platform.platform_power() == pytest.approx(0.9)


class TestLevers:
    def test_core_frequency_lever(self, baseline_platform):
        baseline_platform.boot()
        before = baseline_platform.platform_power()
        baseline_platform.set_core_frequency(1.5)
        assert baseline_platform.platform_power() > before

    def test_dram_frequency_lever(self, baseline_platform):
        baseline_platform.boot()
        before = baseline_platform.platform_power()
        baseline_platform.set_dram_frequency(0.8e9)
        assert baseline_platform.platform_power() < before

    def test_dram_lever_noop_for_pcm(self):
        platform = build_platform(TechniqueSet.odrips_pcm(), small_context=True)
        platform.boot()
        platform.set_dram_frequency(0.8e9)  # must not raise

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.5],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    @pytest.mark.parametrize("lever", ["core_freq_ghz", "dram_rate_hz"])
    def test_lever_rejects_non_finite_or_non_positive(self, lever, value):
        """Bad lever values raise ConfigError, never a raw ValueError or inf."""
        with pytest.raises(ConfigError, match="finite and positive"):
            ODRIPSController().measure(cycles=1, **{lever: value})

    def test_next_timer_target(self, baseline_platform):
        baseline_platform.boot()
        now_count = baseline_platform.pmu.tsc.read(baseline_platform.kernel.now)
        target = baseline_platform.next_timer_target(1.0)
        assert target - now_count == pytest.approx(24e6, rel=1e-4)
