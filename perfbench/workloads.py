"""Workload definitions, operation execution and result checks.

A workload is a fixed list of operations built from the benchmark seed.
One operation is one public-API call: a measurement, a macro-stepped
horizon, a break-even fit, or a lint/check pass.  The paper's own
configurations are always in the list; the seed picks the off-paper
points and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ODRIPSController, StandbyWorkloadConfig, TechniqueSet
from repro import check as check_mod
from repro import cli, obs
from repro.analysis import breakeven
from repro.core.experiments import EXPERIMENTS, GoldenValue
from repro.obs.runlog import RunLog, RunRecorder, install_recorder, uninstall_recorder
from repro.obs.stream import TelemetryStream, install_stream, uninstall_stream
from repro.perf.cache import SimulationCache
from repro.sim.macro import cycles_for_horizon
from repro.system.budget import BREAK_EVEN_TOLERANCE

WORKLOADS = ("ctx_sweep", "standby_exact", "observed_horizon", "static_check")

TECHNIQUES: Dict[str, Callable[[], TechniqueSet]] = {
    "baseline": TechniqueSet.baseline,
    "wake-up-off": TechniqueSet.wake_up_off_only,
    "aon-io-gate": TechniqueSet.with_io_gating,
    "ctx-sgx-dram": TechniqueSet.ctx_sgx_dram_only,
    "odrips": TechniqueSet.odrips,
}

#: Fig. 6(b) core frequencies and Fig. 6(c) DRAM rates off the reference
#: point (0.8 GHz core, 1.6 GT/s DRAM, which is the platform default).
FIG6B_CORE_GHZ = (1.0, 1.5)
FIG6C_DRAM_HZ = (1.067e9, 0.8e9)

#: Horizon length of the paper configurations on ``observed_horizon``.
PAPER_HORIZON_DAYS = 7.0
#: Expected external wakes per measured window of the seeded
#: ``standby_exact`` points that enable them (the default 4/h rarely
#: fires inside a 2-cycle window).  The rate follows the seeded idle
#: interval so the host cost of a pass does not depend on the seed.
SEEDED_EXTERNAL_WAKES = 2.0
#: Horizon lengths of the seeded ``observed_horizon`` points: a fixed
#: multiset the seed assigns, so the seed moves which set runs which
#: horizon, not the pass's cost; none equals the paper horizon, so the
#: only cache hits are the planned repeats.
SEEDED_HORIZON_DAYS = (1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a public-API call and its arguments."""

    kind: str  # measure | fit | lint | check
    technique: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        """Canonical identity; equal keys mean equal simulated results."""
        args = ",".join(f"{name}={value!r}" for name, value in self.params)
        return f"{self.kind}:{self.technique}:{args}"

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.technique}" if self.technique else self.kind

    def arg(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)


def _op(kind: str, technique: str = "", **params: Any) -> Op:
    return Op(kind, technique, tuple(sorted(params.items())))


# --- op lists ------------------------------------------------------------------


def _ctx_sweep(rng: random.Random) -> List[Op]:
    # one cycle per point: the drivers' 2-cycle runs give the same average
    # power on these periodic configurations, at half the host time
    ops = [_op("measure", t, cycles=1) for t in ("baseline", "odrips", "ctx-sgx-dram")]
    ops += [_op("measure", "odrips", cycles=1, core_freq_ghz=f) for f in FIG6B_CORE_GHZ]
    ops += [_op("measure", "odrips", cycles=1, dram_rate_hz=r) for r in FIG6C_DRAM_HZ]
    # seeded off-grid points: one core frequency and one DRAM rate, each
    # on a seeded context-saving technique set
    first, second = rng.sample(["odrips", "ctx-sgx-dram"], 2)
    ops.append(_op("measure", first, cycles=1,
                   core_freq_ghz=round(rng.uniform(0.8, 2.4), 2)))
    ops.append(_op("measure", second, cycles=1,
                   dram_rate_hz=round(rng.uniform(0.8e9, 1.6e9), -6)))
    return ops


def _standby_exact(rng: random.Random) -> List[Op]:
    sets = ("baseline", "wake-up-off", "aon-io-gate")
    ops = [_op("measure", technique, cycles=2) for technique in sets]
    # 60 seeded points, balanced over technique sets and external wakes so
    # the seed moves parameter values, not the mix of operation kinds
    for index in range(60):
        params: Dict[str, Any] = {
            "cycles": 2,
            "idle_interval_s": round(rng.uniform(5.0, 60.0), 3),
            "maintenance_s": round(rng.uniform(0.1, 0.3), 4),
        }
        if index % 2:
            params["external_wakes"] = True
            params["wake_seed"] = rng.randrange(1 << 30)
        ops.append(_op("measure", sets[index % 3], **params))
    return ops


def _observed_horizon(rng: random.Random) -> List[Op]:
    sets = ("baseline", "wake-up-off", "aon-io-gate")
    ops = [_op("measure", technique, horizon_days=PAPER_HORIZON_DAYS) for technique in sets]
    ops += [_op("fit", technique) for technique in sets[1:]]
    # eight seeded horizons, each run twice: the second run of a point
    # hits the pass's shared SimulationCache
    days = list(SEEDED_HORIZON_DAYS)
    rng.shuffle(days)
    for index, horizon in enumerate(days):
        point = _op("measure", sets[index % 3], horizon_days=horizon)
        ops += [point, point]
    for technique in sets[1:]:
        idle_a = round(rng.uniform(0.010, 0.030), 4)
        idle_b = round(rng.uniform(0.040, 0.080), 4)
        ops.append(_op("fit", technique, idle_points_s=(idle_a, idle_b)))
    return ops


def _static_check(rng: random.Random) -> List[Op]:
    return [_op("lint"), _op("check")]


_BUILDERS = {
    "ctx_sweep": _ctx_sweep,
    "standby_exact": _standby_exact,
    "observed_horizon": _observed_horizon,
    "static_check": _static_check,
}


def build_ops(workload: str, seed: int) -> List[Op]:
    """The workload's fixed operation list for ``seed``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


# --- execution -------------------------------------------------------------------


class Session:
    """Per-pass state.  ``observed_horizon`` runs every pass with the
    tracer, telemetry stream and flight recorder installed and a fresh
    shared :class:`SimulationCache`; the recorder's records are appended
    to a run log in a temporary directory at the end of the pass."""

    def __init__(self, workload: str, scratch: Path) -> None:
        self.observed = workload == "observed_horizon"
        self.cache: Optional[SimulationCache] = None
        self.recorder: Optional[RunRecorder] = None
        self.runlog_dir = Path(tempfile.mkdtemp(prefix="runlog-", dir=scratch)) \
            if self.observed else None

    def begin_pass(self) -> None:
        if self.observed:
            self.cache = SimulationCache()
            obs.install(obs.Tracer())
            install_stream(TelemetryStream())
            self.recorder = install_recorder(RunRecorder())

    def end_pass(self) -> None:
        if self.observed:
            uninstall_recorder()
            uninstall_stream()
            obs.uninstall()
            self.recorder.finish("perfbench")
            RunLog(self.runlog_dir).append_all(self.recorder.records)
            self.recorder = self.cache = None

    def close(self) -> None:
        if self.runlog_dir is not None:
            shutil.rmtree(self.runlog_dir, ignore_errors=True)


def _controller(op: Op, cache: Optional[SimulationCache]) -> ODRIPSController:
    workload = None
    if op.arg("wake_seed") is not None:
        window_h = op.arg("cycles") * op.arg("idle_interval_s") / 3600.0
        workload = StandbyWorkloadConfig(
            external_wake_rate_per_hour=SEEDED_EXTERNAL_WAKES / window_h,
            seed=op.arg("wake_seed"),
        )
    return ODRIPSController(TECHNIQUES[op.technique](), workload=workload, cache=cache)


def _cli_json(argv: List[str]) -> Dict[str, Any]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    payload = json.loads(out.getvalue())
    payload["exit_code"] = code
    return payload


def execute(op: Op, session: Session) -> Any:
    """Run one operation and return its result."""
    if op.kind == "measure":
        controller = _controller(op, session.cache)
        days = op.arg("horizon_days")
        if days is not None:
            workload = controller.workload
            cycles = cycles_for_horizon(days, workload.idle_interval_s, workload.maintenance_mean_s)
            return controller.measure(cycles=cycles, macro=True)
        return controller.measure(
            cycles=op.arg("cycles"),
            idle_interval_s=op.arg("idle_interval_s"),
            maintenance_s=op.arg("maintenance_s"),
            core_freq_ghz=op.arg("core_freq_ghz"),
            dram_rate_hz=op.arg("dram_rate_hz"),
            external_wakes=bool(op.arg("external_wakes", False)),
        )
    if op.kind == "fit":
        points = op.arg("idle_points_s")
        kwargs = {"idle_points_s": points} if points is not None else {}
        return breakeven.find_break_even(TECHNIQUES[op.technique](), **kwargs)
    # lint and check passes start cold, as a CLI invocation does
    check_mod.state_space_cache().clear()
    if op.kind == "lint":
        return _cli_json(["lint", "--json"])
    return _cli_json(["check", "--budgets", "--json"])


# --- result checks --------------------------------------------------------------------


def canonical(op: Op, result: Any) -> Any:
    """The simulated outputs of ``result`` as plain, exactly-printable data.

    Host-dependent parts (file paths, analyzed-function counts of the
    effect pass) are left out: they change when the sources are edited,
    not when the model's behaviour changes.
    """
    if op.kind == "measure":
        return [
            result.label, result.average_power_w, result.drips_power_w,
            result.drips_residency, result.active_power_w, result.entry_latency_us,
            result.exit_latency_us, sorted(result.drips_breakdown_w.items()),
            sorted((result.macro or {}).items()),
        ]
    if op.kind == "fit":
        return [result.label, result.break_even_s, [list(p) for p in result.sweep_points]]
    kept = {"exit_code": result["exit_code"], "counts": result["counts"],
            "diagnostics": [[d.get("rule"), d.get("message")] for d in result["diagnostics"]]}
    if op.kind == "check":
        kept["state_space"] = result["state_space"]
        kept["budgets"] = result["budgets"]
    return kept


def digest(op: Op, result: Any) -> str:
    text = json.dumps(canonical(op, result), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _floats(value: Any) -> List[float]:
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _floats(item)]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _floats(item)]
    return []


def invariant_problems(op: Op, result: Any) -> List[str]:
    """Seed-independent sanity checks of one result."""
    problems = []
    if not all(math.isfinite(x) for x in _floats(canonical(op, result))):
        problems.append("non-finite output")
    if op.kind == "measure":
        if not 0.0 <= result.drips_residency <= 1.0:
            problems.append(f"residency {result.drips_residency} outside [0, 1]")
        if min(result.average_power_w, result.drips_power_w, result.active_power_w) <= 0:
            problems.append("non-positive power")
    elif op.kind == "fit":
        if result.break_even_s < 0:
            problems.append("negative break-even")
    elif result["exit_code"] != 0 or result["diagnostics"]:
        problems.append(f"{op.kind} pass reported findings")
    elif op.kind == "check" and not all(
        summary["states_explored"] > 0 for summary in result["state_space"].values()
    ):
        problems.append("empty state space")
    return problems


def check_result(op: Op, result: Any, references: Dict[str, str]) -> List[str]:
    """Problems with one result: a reference-digest mismatch when the
    op has a committed reference, and any invariant violation."""
    problems = invariant_problems(op, result)
    expected = references.get(op.key)
    if expected is not None and digest(op, result) != expected:
        problems.append(f"digest {digest(op, result)} != reference {expected}")
    return problems


# --- the paper's numbers --------------------------------------------------------------


def golden(experiment: str, key: str) -> GoldenValue:
    for value in EXPERIMENTS[experiment].goldens:
        if value.key == key:
            return value
    raise KeyError(f"{experiment} has no golden {key!r}")


def _golden_error(value: GoldenValue, measured: float) -> float:
    tolerance = value.tolerance * abs(value.paper) if value.kind == "relative" else value.tolerance
    return abs(measured - value.paper) / tolerance


def _standby_checks(base: Any, wake_up_off: Any, aon_io_gate: Any) -> List[Tuple[GoldenValue, float]]:
    return [
        (golden("fig2", "drips_power_mw"), base.drips_power_w * 1e3),
        (golden("fig2", "active_power_w"), base.active_power_w),
        (golden("fig2", "drips_residency"), base.drips_residency),
        (golden("fig2", "average_power_mw"), base.average_power_w * 1e3),
        (golden("fig6a", "saving:WAKE-UP-OFF"), wake_up_off.saving_vs(base)),
        (golden("fig6a", "saving:AON-IO-GATE"), aon_io_gate.saving_vs(base)),
    ]


def paper_checks(workload: str, results: Dict[str, Any]) -> List[Tuple[GoldenValue, float]]:
    """(paper value, measured) for every paper configuration the workload
    runs, measured the way the experiment drivers measure it."""
    def get(*args: Any, **params: Any) -> Any:
        return results[_op(*args, **params).key]

    if workload == "ctx_sweep":
        base = get("measure", "baseline", cycles=1)
        odrips = get("measure", "odrips", cycles=1)
        checks = [
            (golden("fig6a", "saving:ODRIPS"), odrips.saving_vs(base)),
            (golden("fig6a", "saving:CTX-SGX-DRAM"),
             get("measure", "ctx-sgx-dram", cycles=1).saving_vs(base)),
        ]
        for f in FIG6B_CORE_GHZ:
            point = get("measure", "odrips", cycles=1, core_freq_ghz=f)
            checks.append((golden("fig6b", f"delta:{f:.1f}GHz"),
                           point.average_power_w / odrips.average_power_w - 1.0))
        for r in FIG6C_DRAM_HZ:
            point = get("measure", "odrips", cycles=1, dram_rate_hz=r)
            checks.append((golden("fig6c", f"delta:{r / 1e9:.3f}GHz"),
                           point.average_power_w / odrips.average_power_w - 1.0))
        return checks
    if workload == "standby_exact":
        return _standby_checks(*(get("measure", t, cycles=2)
                                 for t in ("baseline", "wake-up-off", "aon-io-gate")))
    if workload == "observed_horizon":
        return _standby_checks(*(get("measure", t, horizon_days=PAPER_HORIZON_DAYS)
                                 for t in ("baseline", "wake-up-off", "aon-io-gate")))
    # static_check: the budget verifier's derived break-even against the
    # paper break-even its budget declares, within the declared tolerance
    checks = []
    for summary in get("check")["budgets"].values():
        for row in summary["deep_states"].values():
            declared = row.get("declared_break_even_s")
            if declared is not None:
                checks.append((
                    GoldenValue("break_even_s", declared, BREAK_EVEN_TOLERANCE, "relative"),
                    row["break_even_s"],
                ))
    return checks


def paper_err(workload: str, results: Dict[str, Any]) -> float:
    """Largest |measured - paper| / tolerance over the paper configurations."""
    return max(_golden_error(value, measured) for value, measured in paper_checks(workload, results))
