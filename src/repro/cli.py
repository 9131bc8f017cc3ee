"""Command-line interface: ``python -m repro <experiment>``.

Runs any of the paper's experiments from the shell and prints the same
paper-vs-measured tables the benchmark harness emits.

Examples::

    python -m repro fig1b          # DRIPS power breakdown
    python -m repro fig6a          # technique savings
    python -m repro fig6a --break-even   # + the residency break-even line
    python -m repro all            # every experiment in sequence
    python -m repro battery --battery-wh 50
    python -m repro lint           # static model verifier + source checker
    python -m repro lint --json --select M1 --ignore S405
    python -m repro check          # exhaustive FSM/flow model checker
    python -m repro check --json --max-states 1000 --invariants clock-coupling
    python -m repro trace fig2 --out trace.json   # Perfetto-loadable trace
    python -m repro fig2 --trace   # run instrumented, print the span digest
    python -m repro fig6a --cache  # memoized runs + hit/miss stats
    python -m repro fig2 --profile # host-phase wall time + peak allocations
    python -m repro report --json  # regression watchdog over the run history
    python -m repro metrics --openmetrics     # OpenMetrics text exposition
    python -m repro fig6b --parallel --heartbeat  # live sweep telemetry
    python -m repro dash           # static fleet dashboard (dash.html)

Every experiment run is recorded by the flight recorder to
``.repro/runs/runs.jsonl`` (opt out with ``--no-runlog``); ``report``
replays that history against the paper's golden values and the
``BENCH_perf.json`` policies, exiting nonzero on drift.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.ablations import (
    context_store_ablation,
    gate_ablation,
    mee_cache_ablation,
    step_bits_ablation,
    timer_location_ablation,
)
from repro.analysis.battery import BATTERY_WH, life_table
from repro.analysis.breakeven import find_break_even
from repro.analysis.report import format_table
from repro.core.experiments import (
    FIG6A_SETS,
    fig1b_breakdown,
    fig2_connected_standby,
    fig6a_techniques,
    fig6b_core_frequency,
    fig6c_dram_frequency,
    fig6d_emerging_memories,
    sec413_calibration,
    sec63_context_latency,
    table1_parameters,
)
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError
from repro.obs.stream import DEFAULT_HEARTBEAT_DIR


def cmd_fig1b(args: argparse.Namespace) -> None:
    result = fig1b_breakdown()
    rows = [
        ["platform DRIPS power", f"{result.platform_drips_mw:.1f} mW", "~60 mW"],
        ["wake-up hw (timer + XTAL)", f"{result.wakeup_and_crystal:.1%}", "~5 %"],
        ["AON IOs", f"{result.shares['aon_ios']:.1%}", "7 %"],
        ["S/R SRAMs", f"{result.shares['sr_srams']:.1%}", "9 %"],
        ["processor total", f"{result.processor_total:.1%}", "18 %"],
    ]
    print(format_table(["component", "measured", "paper"], rows,
                       title="Fig. 1(b) - DRIPS power breakdown"))


def _cycles_of(args: argparse.Namespace) -> int:
    """Measured cycles for this run: ``--horizon DAYS`` wins over ``--cycles``.

    A horizon converts through the default workload's cycle period
    (idle interval + mean maintenance); week-scale horizons are only
    practical together with ``--macro``.
    """
    horizon_days = args.horizon
    if horizon_days is None:
        return args.cycles
    from repro.config import StandbyWorkloadConfig
    from repro.sim.macro import cycles_for_horizon

    workload = StandbyWorkloadConfig()
    return cycles_for_horizon(
        horizon_days, workload.idle_interval_s, workload.maintenance_mean_s
    )


def cmd_fig2(args: argparse.Namespace) -> None:
    result = fig2_connected_standby(
        cycles=_cycles_of(args), cache=args.cache_obj, macro=args.macro
    )
    rows = [
        ["DRIPS residency", f"{result.drips_residency:.2%}", "99.5 %"],
        ["DRIPS power", f"{result.drips_power_mw:.1f} mW", "~60 mW"],
        ["Active power", f"{result.active_power_w:.2f} W", "~3 W"],
        ["average power", f"{result.average_power_mw:.1f} mW", "~75 mW"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Fig. 2 - connected standby (baseline)"))


def cmd_fig6a(args: argparse.Namespace) -> None:
    result = fig6a_techniques(
        cycles=_cycles_of(args), cache=args.cache_obj, macro=args.macro
    )
    rows = [["Baseline (DRIPS)", f"{result.baseline_mw:.1f} mW", "-", "-"]]
    for row in result.rows:
        rows.append([row.label, f"{row.average_power_mw:.1f} mW",
                     f"{row.saving:.1%}", f"{row.paper_saving:.0%}"])
    print(format_table(["configuration", "avg power", "saving", "paper"],
                       rows, title="Fig. 6(a) - technique savings"))
    if args.break_even:
        print()
        rows = []
        for label, techniques in FIG6A_SETS:
            be = find_break_even(techniques)
            rows.append([label, f"{be.break_even_ms:.2f} ms"])
        print(format_table(["configuration", "break-even"], rows,
                           title="Fig. 6(a) - break-even points"))


def cmd_fig6b(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6b_core_frequency(
        cycles=_cycles_of(args), macro=args.macro,
        parallel=args.parallel,
    ):
        paper = "-" if row.paper_delta is None else f"{row.paper_delta:+.1%}"
        rows.append([f"{row.parameter:.1f} GHz", f"{row.average_power_mw:.2f} mW",
                     f"{row.delta_vs_reference:+.2%}", paper])
    print(format_table(["core freq", "avg power", "delta", "paper"], rows,
                       title="Fig. 6(b) - core-frequency scaling (ODRIPS)"))


def cmd_fig6c(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6c_dram_frequency(
        cycles=_cycles_of(args), macro=args.macro,
        parallel=args.parallel,
    ):
        paper = "-" if row.paper_delta is None else f"{row.paper_delta:+.1%}"
        rows.append([f"{row.parameter / 1e9:.3f} GHz", f"{row.average_power_mw:.2f} mW",
                     f"{row.delta_vs_reference:+.2%}", paper])
    print(format_table(["DRAM rate", "avg power", "delta", "paper"], rows,
                       title="Fig. 6(c) - DRAM-frequency scaling (ODRIPS)"))


def cmd_fig6d(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6d_emerging_memories(
        cycles=_cycles_of(args), cache=args.cache_obj, macro=args.macro
    ):
        rows.append([row.label, f"{row.average_power_mw:.1f} mW",
                     f"{row.saving_vs_baseline:.1%}", f"{row.paper_saving:.1%}"])
    print(format_table(["configuration", "avg power", "saving", "paper"], rows,
                       title="Fig. 6(d) - emerging memories"))


def cmd_table1(args: argparse.Namespace) -> None:
    rows = [[name, value] for name, (value, _note) in table1_parameters().items()]
    print(format_table(["parameter", "value"], rows, title="Table 1"))


def cmd_latency(args: argparse.Namespace) -> None:
    result = sec63_context_latency()
    rows = [
        ["context size", f"{result.context_bytes // 1024} KB", "~200 KB"],
        ["save", f"{result.save_us:.1f} us", "~18 us"],
        ["restore", f"{result.restore_us:.1f} us", "~13 us"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Sec. 6.3 - context transfer latency"))


def cmd_calibration(args: argparse.Namespace) -> None:
    result = sec413_calibration()
    rows = [
        ["integer bits m", result.integer_bits, 10],
        ["fractional bits f", result.fractional_bits, 21],
        ["worst-case drift", f"{result.worst_case_drift_ppb:.2f} ppb", "<1 ppb"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Sec. 4.1.3 - Step register sizing"))


def cmd_ablations(args: argparse.Namespace) -> None:
    print(format_table(
        ["gate", "off leakage", "extra pins"],
        [[r.gate, f"{r.off_leakage_mw * 1e3:.1f} uW",
          "yes" if r.needs_processor_pins else "no"] for r in gate_ablation()],
        title="Sec. 5.1 - EPG vs FET",
    ))
    print()
    print(format_table(
        ["design", "DRIPS saving", "enables IO gating"],
        [[r.design, f"{r.drips_saving_mw:.2f} mW",
          "yes" if r.enables_io_gating else "no"]
         for r in timer_location_ablation()],
        title="Sec. 4.1.1 - timer location",
    ))
    print()
    print(format_table(
        ["f bits", "drift", "calibration"],
        [[r.fractional_bits, f"{r.worst_case_drift_ppb:.2f} ppb",
          f"{r.calibration_seconds:.1f} s"] for r in step_bits_ablation()],
        title="Sec. 4.1.3 - Step bits",
    ))
    print()
    print(format_table(
        ["cache nodes", "hit rate", "DRAM accesses/read"],
        [[r.cache_nodes, f"{r.hit_rate:.1%}",
          f"{r.metadata_accesses_per_read:.2f}"] for r in mee_cache_ablation()],
        title="Sec. 6.2 - MEE cache",
    ))
    print()
    print(format_table(
        ["store", "avg power", "saving"],
        [[r.store, f"{r.average_power_mw:.2f} mW",
          f"{r.saving_vs_baseline:.1%}"] for r in context_store_ablation()],
        title="Sec. 6.1 - context store",
    ))


def cmd_sensitivity(args: argparse.Namespace) -> None:
    from repro.analysis.sensitivity import budget_sensitivity, workload_sensitivity

    rows = [
        [row.parameter, f"{row.saving_low:.1%}", f"{row.saving_nominal:.1%}",
         f"{row.saving_high:.1%}"]
        for row in budget_sensitivity()
    ]
    print(format_table(
        ["constant (+/-25%)", "saving @ -25%", "nominal", "saving @ +25%"],
        rows,
        title="Sensitivity of the ODRIPS saving",
    ))
    print()
    rows = [[f"{idle:.0f} s", f"{saving:.1%}"] for idle, saving in workload_sensitivity()]
    print(format_table(["idle interval", "saving"], rows,
                       title="Saving vs idle interval"))


def cmd_temperature(args: argparse.Namespace) -> None:
    from repro.analysis.scaling import drips_power_at_temperature
    from repro.config import skylake_config

    budget = skylake_config().budget
    rows = []
    for temp in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        watts = drips_power_at_temperature(budget, temp)
        rows.append([f"{temp:.0f} C", f"{watts * 1e3:.1f} mW"])
    print(format_table(["temperature", "DRIPS power"], rows,
                       title="DRIPS power vs temperature (Fig. 1(b) is at 30 C)"))


def cmd_battery(args: argparse.Namespace) -> None:
    measurements: Dict[str, float] = {}
    for label, techniques in [
        ("Baseline (DRIPS)", TechniqueSet.baseline()),
        ("ODRIPS", TechniqueSet.odrips()),
        ("ODRIPS-PCM", TechniqueSet.odrips_pcm()),
    ]:
        measurements[label] = ODRIPSController(techniques, cache=args.cache_obj).measure(
            cycles=_cycles_of(args), macro=args.macro
        ).average_power_w
    rows = [
        [label, f"{mw:.1f} mW", f"{days:.1f} days", f"{extra:+.1f} days"]
        for label, mw, days, extra in life_table(measurements, args.battery_wh)
    ]
    print(format_table(
        ["configuration", "avg power", f"standby on {args.battery_wh:.0f} Wh", "vs baseline"],
        rows,
        title="Connected-standby battery life",
    ))


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one observed experiment and export its trace + energy ledger."""
    from repro import obs

    target = args.target or "fig2"
    session = obs.run_traced(target, cycles=args.cycles)
    out = args.out or f"trace-{target}.json"
    path = obs.write_chrome_trace(session.tracer, out, platform=session.platform)
    print(obs.render_summary(session.tracer, ledger=session.ledger,
                             platform=session.platform))
    print()
    print(f"Chrome trace written to {path} - load it in Perfetto "
          "(ui.perfetto.dev) or chrome://tracing")
    if args.jsonl:
        jsonl_path = obs.write_jsonl(session.tracer, args.jsonl)
        print(f"JSONL event log written to {jsonl_path}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run one observed experiment and expose its live telemetry.

    ``--openmetrics`` renders the OpenMetrics text exposition (tracer
    counters/histograms + streaming aggregates + heartbeats); without it
    the human-readable span/metric digest prints instead.  ``--out``
    writes the exposition to a file; ``--heartbeat [DIR]`` mirrors
    heartbeats to per-source JSON files for concurrent dashboard reads.
    """
    from repro import obs
    from repro.obs.openmetrics import render_openmetrics
    from repro.obs.stream import TelemetryStream

    target = args.target or "fig2"
    stream = TelemetryStream(heartbeat_dir=args.heartbeat)
    with obs.observe(stream):
        session = obs.run_traced(target, cycles=args.cycles)
    if args.openmetrics:
        text = render_openmetrics(session.tracer.metrics, stream)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text, encoding="utf-8")
            print(f"OpenMetrics exposition written to {args.out}")
        else:
            print(text, end="")
    else:
        print(obs.render_summary(session.tracer, ledger=session.ledger,
                                 platform=session.platform))
    return 0


def cmd_dash(args: argparse.Namespace) -> int:
    """Build the static fleet dashboard: ``python -m repro dash``.

    Joins the flight-recorder history, BENCH_perf.json, live heartbeat
    files (``--heartbeat [DIR]``), and — unless ``--static`` — the
    per-cause energy rollup of a fresh observed fig2 run into one
    self-contained HTML page (default ``dash.html``; override with
    ``--out``).
    """
    from repro.errors import MeasurementError
    from repro.obs.dash import build_dashboard, write_dashboard
    from repro.regress.report import DEFAULT_BENCH_PATH

    causal = None
    if not args.static:
        from repro import obs
        from repro.obs.causal import build_causal_report

        try:
            session = obs.run_traced(args.target or "fig2", cycles=args.cycles)
            causal = build_causal_report(
                session.tracer, session.platform
            ).as_dict()
        except MeasurementError as error:
            # the causal section is advisory; the joined stores still render
            print(f"warning: causal section skipped: {error}", file=sys.stderr)
    data = build_dashboard(
        bench_path=args.bench or DEFAULT_BENCH_PATH,
        heartbeat_dir=args.heartbeat,
        causal=causal,
    )
    path = write_dashboard(args.out or "dash.html", data)
    print(
        f"dashboard written to {path} - {len(data['records'])} run record(s), "
        f"{len(data['heartbeats'])} heartbeat(s), "
        f"{len(data['anomalies'])} anomaly advisories"
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain the delta between two runs: ``python -m repro explain``.

    Simulate mode compares two traced configurations (or one against a
    perturbed copy of itself via ``--perturb KEY=FACTOR``) and ranks the
    (domain x state x wake-cause) energy-delta contributors; ``--history``
    compares the two most recent flight-recorder records of an
    experiment instead.  Exit 0 on a ranked verdict, 1 when the runs are
    incompatible (macro vs exact backend), 2 on usage errors.
    """
    import json as json_mod

    from repro.errors import MeasurementError
    from repro.obs.diff import explain_history, explain_simulate, render_explain

    cache = None
    if args.cache:
        from repro.perf.cache import SimulationCache

        cache = SimulationCache()
    target = args.target or "fig2"
    try:
        if args.history:
            payload = explain_history(target)
        else:
            payload = explain_simulate(
                target,
                target2=args.target2,
                perturb=args.perturb,
                cycles=args.cycles,
                cache=cache,
            )
    except MeasurementError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_explain(payload))
    return 0 if payload["compatible"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Regression watchdog over the run history: ``python -m repro report``."""
    from repro.regress.report import cmd_report as run_report

    return run_report(args)


# --- static analysis: lint and check are two pass-sets of one pipeline --------

#: What one pass-set returns: its diagnostics, the extra top-level JSON
#: sections, and the summary lines printed after the text report.
PassResult = Tuple[List[Any], Dict[str, object], List[str]]


def _split(entries: List[str]) -> List[str]:
    """Tokens of a repeatable comma-separated flag (``--select M1,S4``)."""
    return [token for entry in entries for token in entry.split(",") if token]


def _explain_rule(token: str) -> int:
    """Print one registered rule's identity and an example diagnostic.

    Accepts a rule id (``C601``) or name (``wake-budget-exceeded``) of
    any family; unknown rules are a usage error.
    """
    from repro.lint import EXIT_CLEAN, all_rules

    rule = next((rule for rule in all_rules() if token in (rule.rule_id, rule.name)), None)
    if rule is None:
        raise ConfigError(
            f"unknown rule: {token!r} (pass a rule id such as C601 or a name "
            "such as wake-budget-exceeded; see docs/LINT.md and docs/CHECK.md)"
        )
    print(f"{rule.rule_id} ({rule.name}) [{rule.severity.value}]")
    print(f"  {rule.summary}")
    print("example diagnostic:")
    print(f"  {rule.diagnostic(rule.summary, obj='<example>').render()}")
    return EXIT_CLEAN


def _static_analysis(
    args: argparse.Namespace,
    passes: Callable[[argparse.Namespace, List[str]], PassResult],
) -> int:
    """Run one pass-set through the pipeline ``lint`` and ``check`` share.

    ``--explain`` short-circuits; otherwise the ``--select``/``--ignore``
    patterns and the ``--path`` roots are validated (usage errors raise
    :class:`~repro.errors.ConfigError`), the passes run, and their
    findings are deduplicated (both commands analyze two platform
    variants), filtered, and rendered as text or JSON.  Exit 0 when
    clean, 1 on findings.
    """
    from repro import lint as lint_mod
    from repro.lint.source import default_source_root

    if args.explain:
        return _explain_rule(args.explain)
    select, ignore = _split(args.select), _split(args.ignore)
    lint_mod.validate_rule_patterns(select + ignore, lint_mod.all_rules())
    paths = args.path or [str(default_source_root())]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise ConfigError(f"no such file or directory: {', '.join(missing)}")
    diagnostics, sections, summary_lines = passes(args, paths)
    diagnostics = lint_mod.filter_diagnostics(
        lint_mod.dedupe_diagnostics(diagnostics), select=select, ignore=ignore
    )
    if args.json:
        print(lint_mod.render_json(diagnostics, sections))
    else:
        print("\n".join([lint_mod.render_text(diagnostics), *summary_lines]))
    return lint_mod.exit_code(diagnostics)


def _lint_passes(args: argparse.Namespace, paths: List[str]) -> PassResult:
    """The model verifier on the shipped platform in its two extreme
    configurations (baseline DRIPS and full ODRIPS, which differ in the
    components they instantiate), the experiment-registry check (M307),
    and the source rules over ``paths``."""
    from repro.lint import lint_experiments, lint_paths, lint_platform
    from repro.system.skylake import SkylakePlatform

    diagnostics = []
    for techniques in (TechniqueSet.baseline(), TechniqueSet.odrips()):
        diagnostics.extend(lint_platform(SkylakePlatform(techniques=techniques)))
    diagnostics.extend(lint_experiments())
    diagnostics.extend(lint_paths(paths))
    return diagnostics, {}, []


def _budget_lines(label: str, summary: Dict[str, Any]) -> List[str]:
    """Text summary of one configuration's C6xx budget analysis."""
    lines = []
    for state, row in sorted(summary.get("deep_states", {}).items()):
        exit_ps = row.get("worst_exit_latency_ps")
        exit_us = "n/a" if exit_ps is None else f"{exit_ps / 1e6:.1f} us"
        budget_ps = row.get("wake_budget_ps")
        budget_us = "undeclared" if budget_ps is None else f"{budget_ps / 1e6:.1f} us"
        break_even = row.get("break_even_s")
        break_even_ms = "n/a" if break_even is None else f"{break_even * 1e3:.2f} ms"
        versus = f" vs {row['break_even_vs']}" if row.get("break_even_vs") else ""
        lines.append(
            f"budgets [{label}]: {state} worst exit {exit_us} "
            f"(budget {budget_us}), break-even {break_even_ms}{versus}"
        )
    cycle = summary.get("cycle")
    if isinstance(cycle, dict):
        limit = cycle.get("golden_limit_j")
        limit_text = "n/a" if limit is None else f"{limit:.3f} J"
        lines.append(
            f"budgets [{label}]: cycle energy >= "
            f"{cycle['energy_lower_bound_j']:.3f} J "
            f"(golden ceiling {limit_text} over {cycle['period_s']:.3f} s)"
        )
    return lines


def _check_passes(args: argparse.Namespace, paths: List[str]) -> PassResult:
    """Exhaustive model check of both extreme configurations (C1xx/C2xx,
    plus C6xx with ``--budgets``), then the unit-dataflow (C4xx) and
    effect/determinism (C5xx) passes over ``paths`` — both on one shared
    parse and call graph, so each file is parsed once per invocation."""
    from repro.check import check_standby_model
    from repro.check.callgraph import graph_for_paths
    from repro.check.dataflow import analyze_graph
    from repro.check.effects import analyze_effects_graph
    from repro.lint.astcache import ModuleCache

    invariant_names = tuple(_split(args.invariants)) if args.invariants else None
    diagnostics = []
    state_space: Dict[str, object] = {}
    budgets: Dict[str, object] = {}
    for label, techniques in (
        ("baseline", TechniqueSet.baseline()),
        ("odrips", TechniqueSet.odrips()),
    ):
        report = check_standby_model(
            techniques=techniques,
            invariant_names=invariant_names,
            max_states=args.max_states,
            budgets=args.budgets,
        )
        diagnostics.extend(report.diagnostics)
        state_space[label] = report.state_space
        if report.budgets is not None:
            budgets[label] = report.budgets
    sections: Dict[str, object] = {"state_space": state_space}
    lines = [
        f"state space [{label}]: {summary['states_explored']} state(s), "
        f"{summary['transitions_taken']} transition(s)"
        + (" [truncated]" if summary["truncated"] else "")
        for label, summary in sorted(state_space.items())
    ]
    if args.budgets:
        sections["budgets"] = budgets
        for label in sorted(budgets):
            lines.extend(_budget_lines(label, budgets[label]))

    cache = ModuleCache()
    graph = graph_for_paths(paths, cache=cache)
    diagnostics.extend(analyze_graph(graph))
    if args.effects:
        effects = analyze_effects_graph(graph)
        diagnostics.extend(effects.diagnostics)
        sections["effects"] = effects.summary
        entries = effects.summary["entry_points"]
        clean = sum(1 for entry in entries if entry["clean"])
        lines.append(
            f"effects: {len(entries)} entry point(s), {clean} clean, "
            f"{len(entries) - clean} with undeclared effects "
            f"({effects.summary['functions']} function(s) analyzed, "
            f"parsed {cache.parse_count} file(s) once)"
        )
    return diagnostics, sections, lines


def cmd_lint(args: argparse.Namespace) -> int:
    """Structural static analysis: model verifier, M307, source rules."""
    return _static_analysis(args, _lint_passes)


def cmd_check(args: argparse.Namespace) -> int:
    """Behavioural static analysis: exhaustive model check, dataflow,
    effects and (``--budgets``) priced-timed budgets."""
    return _static_analysis(args, _check_passes)


# --- paper experiments ---------------------------------------------------------

COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "fig1b": cmd_fig1b,
    "fig2": cmd_fig2,
    "fig6a": cmd_fig6a,
    "fig6b": cmd_fig6b,
    "fig6c": cmd_fig6c,
    "fig6d": cmd_fig6d,
    "table1": cmd_table1,
    "latency": cmd_latency,
    "calibration": cmd_calibration,
    "ablations": cmd_ablations,
    "battery": cmd_battery,
    "sensitivity": cmd_sensitivity,
    "temperature": cmd_temperature,
}

#: What ``python -m repro all`` runs, in order.
ALL_EXPERIMENTS = ("table1", "fig1b", "fig2", "fig6a", "fig6b", "fig6c",
                   "fig6d", "latency", "calibration", "ablations")


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one paper experiment (or ``all``) under the requested sinks."""
    from repro import obs

    args.cache_obj = None
    if args.cache:
        from repro.perf.cache import SimulationCache

        args.cache_obj = SimulationCache()
    sinks = [
        obs.Tracer() if args.trace or args.metrics else None,
        obs.PhaseProfiler(track_allocations=True) if args.profile else None,
        obs.TelemetryStream(heartbeat_dir=args.heartbeat)
        if args.heartbeat is not None else None,
        None if args.no_runlog else obs.RunRecorder(),
    ]
    names = ALL_EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    with obs.observe(*(sink for sink in sinks if sink is not None)) as session:
        for name in names:
            with session.phase("analyze"):
                COMMANDS[name](args)
            if args.experiment == "all":
                print()
    tracer, stream = session.tracer, session.stream
    if tracer is not None:
        print()
        print(obs.render_summary(tracer, include_spans=args.trace,
                                 profiler=session.profiler,
                                 platform=tracer.platforms[-1]
                                 if tracer.platforms else None))
    elif session.profiler is not None:
        print()
        print(obs.render_profile(session.profiler))
    if stream is not None and stream.heartbeats:
        print()
        sources = ", ".join(sorted(stream.heartbeats))
        print(f"heartbeats: {sources} -> {stream.heartbeat_dir} "
              f"({len(stream.histograms)} live histogram(s); "
              f"watch with `python -m repro dash`)")
    if args.cache_obj is not None:
        stats = args.cache_obj.stats
        print()
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.hit_rate:.0%} hit rate over {stats.lookups} lookup(s)")
    if session.recorder is not None:
        _persist_runlog(session.recorder, args.experiment)
    return 0


def _persist_runlog(recorder, command: str) -> None:
    """Append this invocation's run records to the flight-recorder store.

    Persistence failures warn instead of failing the run: the experiment
    output already printed, and a read-only checkout must stay usable.
    """
    from repro.obs.runlog import RunLog

    recorder.finish(command)
    if not recorder.records:
        return
    try:
        RunLog().append_all(recorder.records)
    except OSError as error:
        print(f"warning: flight recorder could not append run records: {error}",
              file=sys.stderr)


# --- the parser: every flag defined once, each command picks the ones it reads --


def _max_states(text: str) -> int:
    """argparse type of ``--max-states``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigError(f"--max-states must be a positive integer (got {text!r})")
    return value


_TARGET_HELP = ("configuration to observe (fig2, baseline, wake-up-off, aon-io-gate, "
                "ctx, odrips, odrips-mram, odrips-pcm; default fig2)")

#: Every argument of every command, by name.
FLAGS: Dict[str, Dict[str, Any]] = {
    "target": dict(nargs="?", default=None, help=_TARGET_HELP),
    "target2": dict(nargs="?", default=None,
                    help="second configuration to diff the first against"),
    # simulation
    "--cycles": dict(type=int, default=2,
                     help="measured connected-standby cycles per configuration "
                          "(default 2)"),
    "--macro": dict(action="store_true",
                    help="macro-step periodic standby cycles (bit-for-bit identical "
                         "results, orders of magnitude faster for long horizons)"),
    "--horizon": dict(type=float, default=None, metavar="DAYS",
                      help="simulated horizon in days; overrides --cycles via the "
                           "default workload's cycle period (use with --macro for "
                           "week scales)"),
    "--cache": dict(action="store_true",
                    help="memoize simulation runs and report cache hit/miss stats"),
    "--parallel": dict(action="store_true",
                       help="fan fig6b/fig6c sweep points out over worker processes"),
    "--break-even": dict(action="store_true",
                         help="also compute the fig6a residency break-even points "
                              "(slower)"),
    "--battery-wh": dict(type=float, default=BATTERY_WH["surface-class"],
                         help="battery capacity (default 38 Wh)"),
    # observability sinks
    "--trace": dict(action="store_true",
                    help="run instrumented and print the span/metric digest"),
    "--metrics": dict(action="store_true",
                      help="run instrumented and print the metrics tables"),
    "--profile": dict(action="store_true",
                      help="attribute host wall time and peak allocations to "
                           "build/simulate/measure/analyze phases"),
    "--heartbeat": dict(nargs="?", metavar="DIR", default=None,
                        const=DEFAULT_HEARTBEAT_DIR,
                        help="stream live telemetry (bounded histograms + per-source "
                             "progress heartbeats) and mirror heartbeats to DIR "
                             "(default .repro/heartbeats)"),
    "--no-runlog": dict(action="store_true",
                        help="do not record this run to the .repro/runs flight "
                             "recorder"),
    # trace / metrics / dash outputs
    "--out": dict(metavar="FILE", default=None,
                  help="output path (trace: Chrome trace JSON, default "
                       "trace-<target>.json; metrics: OpenMetrics file; dash: "
                       "page, default dash.html)"),
    "--jsonl": dict(metavar="FILE", default=None,
                    help="also write a flat JSONL event log"),
    "--openmetrics": dict(action="store_true",
                          help="render the OpenMetrics text exposition instead of "
                               "the human-readable digest"),
    "--static": dict(action="store_true",
                     help="skip the fresh observed run (no per-cause energy "
                          "section; joins the stores only)"),
    # static analysis
    "--json": dict(action="store_true",
                   help="emit machine-readable JSON instead of text"),
    "--select": dict(action="append", default=[], metavar="RULES",
                     help="only report these rules (comma-separated "
                          "ids/prefixes/names)"),
    "--ignore": dict(action="append", default=[], metavar="RULES",
                     help="suppress these rules (comma-separated ids/prefixes/names)"),
    "--path": dict(action="append", default=[], metavar="PATH",
                   help="source files/directories to analyze (default: the repro "
                        "package)"),
    "--explain": dict(metavar="RULE", default=None,
                      help="print the registered rule's identity, summary and an "
                           "example diagnostic, then exit (rule id or name)"),
    "--max-states": dict(type=_max_states, default=100_000, metavar="N",
                         help="bound on explored composed states (default 100000)"),
    "--invariants": dict(action="append", default=[], metavar="NAMES",
                         help="only evaluate these invariants (comma-separated "
                              "names; default: all builtins)"),
    "--no-effects": dict(dest="effects", action="store_false",
                         help="skip the C5xx effect/determinism analysis"),
    "--budgets": dict(action="store_true",
                      help="run the priced-timed C6xx budget analysis — worst-case "
                           "exit latency, break-even residency and per-cycle "
                           "energy bounds (probes one standby cycle per "
                           "configuration)"),
    # explain
    "--perturb": dict(metavar="KEY=FACTOR", default=None,
                      help="diff the target against a perturbed copy of itself "
                           "(dram-self-refresh, external-wake-rate)"),
    "--history": dict(action="store_true",
                      help="diff the two most recent flight-recorder records of "
                           "the target experiment instead of re-simulating"),
    # report
    "--baseline": dict(metavar="FILE", default=None,
                       help="JSON file overriding golden values / bench policies"),
    "--bench": dict(metavar="FILE", default=None,
                    help="benchmark figures to check (default BENCH_perf.json)"),
    "--html": dict(metavar="FILE", default=None,
                   help="also write a static HTML report"),
}

SIMULATION = ("--cycles", "--macro", "--horizon", "--cache")
SINKS = ("--trace", "--metrics", "--profile", "--heartbeat", "--no-runlog")
EXPERIMENT = SIMULATION + SINKS
STATIC_ANALYSIS = ("--json", "--select", "--ignore", "--path", "--explain")

#: command -> (handler, one-line help, the arguments it reads).
COMMAND_TABLE: Dict[str, Tuple[Callable[[argparse.Namespace], int], str, Tuple[str, ...]]] = {
    "table1": (cmd_experiment, "Table 1 platform parameters", EXPERIMENT),
    "fig1b": (cmd_experiment, "Fig. 1(b) DRIPS power breakdown", EXPERIMENT),
    "fig2": (cmd_experiment, "Fig. 2 connected standby (baseline)", EXPERIMENT),
    "fig6a": (cmd_experiment, "Fig. 6(a) technique savings",
              EXPERIMENT + ("--break-even",)),
    "fig6b": (cmd_experiment, "Fig. 6(b) core-frequency scaling",
              EXPERIMENT + ("--parallel",)),
    "fig6c": (cmd_experiment, "Fig. 6(c) DRAM-frequency scaling",
              EXPERIMENT + ("--parallel",)),
    "fig6d": (cmd_experiment, "Fig. 6(d) emerging memories", EXPERIMENT),
    "latency": (cmd_experiment, "Sec. 6.3 context transfer latency", EXPERIMENT),
    "calibration": (cmd_experiment, "Sec. 4.1.3 Step register sizing", EXPERIMENT),
    "ablations": (cmd_experiment, "design ablations (Secs. 4-6)", EXPERIMENT),
    "battery": (cmd_experiment, "connected-standby battery life",
                EXPERIMENT + ("--battery-wh",)),
    "sensitivity": (cmd_experiment, "sensitivity of the ODRIPS saving", EXPERIMENT),
    "temperature": (cmd_experiment, "DRIPS power vs temperature", EXPERIMENT),
    "all": (cmd_experiment, "every table and figure in sequence",
            EXPERIMENT + ("--break-even", "--parallel")),
    "lint": (cmd_lint, "static model verifier + source checker", STATIC_ANALYSIS),
    "check": (cmd_check, "exhaustive model checker + dataflow/effects/budgets",
              STATIC_ANALYSIS + ("--max-states", "--invariants", "--no-effects",
                                 "--budgets")),
    "trace": (cmd_trace, "observed run with Perfetto export",
              ("target", "--cycles", "--out", "--jsonl")),
    "metrics": (cmd_metrics, "observed run's OpenMetrics exposition",
                ("target", "--cycles", "--openmetrics", "--out", "--heartbeat")),
    "dash": (cmd_dash, "static fleet dashboard",
             ("target", "--cycles", "--static", "--bench", "--out", "--heartbeat")),
    "explain": (cmd_explain, "differential drift explainer",
                ("target", "target2", "--cycles", "--cache", "--perturb",
                 "--history", "--json")),
    "report": (cmd_report, "golden-number regression watchdog",
               ("--baseline", "--bench", "--html", "--json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ODRIPS (HPCA 2020) experiments",
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment",
        help="run `repro <experiment> --help` for its flags",
    )
    for name, (_handler, summary, arguments) in COMMAND_TABLE.items():
        command = commands.add_parser(name, help=summary, description=summary)
        for argument in arguments:
            command.add_argument(argument, **FLAGS[argument])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = COMMAND_TABLE[args.experiment][0]
        return handler(args)
    except ConfigError as error:
        from repro.lint.diagnostics import EXIT_USAGE

        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
