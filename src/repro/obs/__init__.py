"""repro.obs — structured tracing, metrics, and energy attribution.

The observability layer of the reproduction: a span/event
:class:`Tracer` stamped in simulated time, a
:class:`~repro.obs.metrics.MetricsRegistry` of counters/gauges/
histograms, an :class:`EnergyLedger` attributing per-domain energy to
flow steps, and exporters for Chrome trace JSON (Perfetto), JSONL, and
terminal summaries.  Three host-side companions watch the repo itself: the
:mod:`~repro.obs.runlog` flight recorder (one JSON record per experiment
run under ``.repro/runs/``, consumed by ``python -m repro report``), the
:mod:`~repro.obs.profile` phase profiler (host wall time and peak
allocations per build/simulate/measure/analyze phase), and the
:mod:`~repro.obs.stream` live-telemetry pipeline (bounded histograms
and heartbeats feeding the
:mod:`~repro.obs.openmetrics` exposition and the
:mod:`~repro.obs.dash` fleet dashboard).

All four sinks — tracer, stream, recorder, profiler — attach to one
observation session (:mod:`~repro.obs.session`), the only process-wide
obs state.  Quick start::

    from repro import obs
    from repro.core import ODRIPSController, TechniqueSet

    with obs.observe(obs.Tracer(), obs.PhaseProfiler()) as session:
        ODRIPSController(TechniqueSet.odrips()).measure(cycles=1)
    tracer = session.tracer
    print(obs.render_summary(tracer, profiler=session.profiler))
    obs.write_chrome_trace(tracer, "trace.json", platform=tracer.platforms[-1])

``obs.attach(sink)`` / ``obs.detach(kind)`` do the same without a
``with`` block, and ``obs.current()`` is what the instrumented seams
read.  Instrumentation is opt-in and zero-cost when disabled: the hot
seams guard on one ``obs is not None`` attribute check, and no sink ever
perturbs simulated time or the :mod:`repro.perf` cache fingerprints.

The exporters and the traced runner are loaded lazily (PEP 562): the
instrumented modules (kernel, flows, PMU, cache, analyzer) import
:mod:`repro.obs.tracer` at module scope, and an eager import of
:mod:`repro.obs.run` here would close an import cycle back through
:mod:`repro.core`.
"""

from repro.obs.ledger import EnergyLedger, LedgerCell
from repro.obs.metrics import (
    BoundedHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.session import Observation, attach, current, detach, observe
from repro.obs.tracer import (
    FLOW_STEP_TRACK,
    FLOW_TRACK,
    KERNEL_TRACK,
    MACRO_TRACK,
    MEASURE_TRACK,
    PMU_TRACK,
    WAKE_TRACK,
    CausalEdge,
    Instant,
    Span,
    Tracer,
    install,
    uninstall,
)

#: Lazily-resolved public names, by defining module (import-cycle guard).
_LAZY_MODULES = {
    "repro.obs.causal": (
        "CausalReport", "attribution_cells", "build_causal_report",
        "flow_critical_paths", "wake_cause",
    ),
    "repro.obs.dash": (
        "build_dashboard", "detect_anomalies", "render_dashboard", "write_dashboard",
    ),
    "repro.obs.diff": (
        "EXPLAIN_SCHEMA", "RunProfile", "diff_profiles", "explain_history",
        "explain_simulate", "profile_config", "render_explain",
        "validate_explain_payload",
    ),
    "repro.obs.export": (
        "chrome_trace", "jsonl_lines", "render_profile", "render_summary",
        "write_chrome_trace", "write_jsonl",
    ),
    "repro.obs.openmetrics": (
        "openmetrics_lines", "render_openmetrics", "validate_openmetrics",
        "write_openmetrics",
    ),
    "repro.obs.profile": ("PhaseProfiler", "host_phase"),
    "repro.obs.run": ("TRACE_CONFIGS", "TraceSession", "run_traced"),
    "repro.obs.runlog": (
        "RunLog", "RunRecorder", "git_revision", "install_recorder",
        "uninstall_recorder",
    ),
    "repro.obs.stream": (
        "TelemetryStream", "install_stream",
        "merge_worker_heartbeats", "read_heartbeat_dir", "record_worker_point",
        "uninstall_stream",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = sorted(
    [
        "BoundedHistogram", "CausalEdge", "Counter", "EnergyLedger",
        "FLOW_STEP_TRACK", "FLOW_TRACK", "Gauge", "Instant", "KERNEL_TRACK",
        "LedgerCell", "MACRO_TRACK", "MEASURE_TRACK",
        "MetricsRegistry", "Observation", "PMU_TRACK", "Span", "Tracer",
        "WAKE_TRACK", "attach", "current", "detach", "install", "observe",
        "uninstall",
    ]
    + list(_LAZY)
)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
