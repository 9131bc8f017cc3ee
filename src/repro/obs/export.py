"""Exporters for observed runs: Chrome trace JSON, JSONL, terminal tables.

Three views of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``{"traceEvents": [...]}``) that Perfetto and
  ``chrome://tracing`` load directly.  Spans become ``"X"`` (complete)
  events, instants become ``"i"`` events, and — when a platform is given
  — the platform-state timeline becomes its own track and the recorded
  power channels become ``"C"`` counter tracks.  Timestamps are the
  simulated time converted to microseconds (the format's unit).
* :func:`jsonl_lines` / :func:`write_jsonl` — a flat, grep-able event
  log: one JSON object per span/instant, then one per metric.
* :func:`render_summary` — an aligned terminal digest (span totals,
  counters, histograms) built on the same table renderer the experiment
  commands use.

Each exporter also accepts the host-phase ``profiler``
(:class:`~repro.obs.profile.PhaseProfiler`): its build/simulate/
measure/analyze spans join the Chrome trace as a second ``repro-host``
process (host microseconds, not simulated ones), the JSONL stream as
``"phase"`` records, and the terminal digest as a "Host phases" table
(:func:`render_profile`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.analysis.report import format_table
from repro.obs.ledger import EnergyLedger
from repro.obs.profile import PhaseProfiler
from repro.obs.tracer import Tracer

#: Process id used for every simulated-timeline event.
TRACE_PID = 1

#: Process id used for host-phase (profiler) events — a separate process
#: in the trace viewer because its clock is the host's, not the kernel's.
HOST_PID = 2

#: picoseconds per microsecond (the trace-event timestamp unit).
_PS_PER_US = 1_000_000


def _ts(time_ps: int) -> float:
    """Simulated picoseconds -> trace-event microseconds."""
    return time_ps / _PS_PER_US


def _meta(kind: str, pid: int, tid: int, label: str) -> Dict[str, Any]:
    """A process/thread-name metadata event."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}


def _track_ids(tracer: Tracer, platform: Optional[Any]) -> Dict[str, int]:
    """Stable track-name -> tid assignment, in first-use order."""
    order: List[str] = []
    for span in tracer.spans:
        if span.track not in order:
            order.append(span.track)
    for instant in tracer.instants:
        if instant.track not in order:
            order.append(instant.track)
    if platform is not None and "state" not in order:
        order.append("state")
    return {name: index for index, name in enumerate(order)}


def chrome_trace(
    tracer: Tracer,
    platform: Optional[Any] = None,
    end_ps: Optional[int] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace-event document from an observed run.

    ``platform`` adds its state timeline and power-counter tracks from
    the platform's :class:`~repro.sim.trace.TraceRecorder`; ``end_ps``
    bounds them (default: the platform kernel's final time).
    ``profiler`` adds the host-phase timeline as a second process —
    its timestamps are host time, so the two processes share an origin
    but not a clock.
    """
    tracks = _track_ids(tracer, platform)
    events = [_meta("process_name", TRACE_PID, 0, "repro-sim")]
    events.extend(
        _meta("thread_name", TRACE_PID, tid, track) for track, tid in tracks.items()
    )
    for span in tracer.spans:
        # a leaked span emits only its open edge ("B") so the leak is visible
        event = {
            "name": span.name,
            "cat": span.track,
            "ph": "X" if span.closed else "B",
            "ts": _ts(span.start_ps),
            "pid": TRACE_PID,
            "tid": tracks[span.track],
        }
        if span.closed:
            event["dur"] = _ts(span.duration_ps)
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for instant in tracer.instants:
        event = {
            "name": instant.name,
            "cat": instant.track,
            "ph": "i",
            "ts": _ts(instant.time_ps),
            "pid": TRACE_PID,
            "tid": tracks[instant.track],
            "s": "t",
        }
        if instant.args:
            event["args"] = dict(instant.args)
        events.append(event)
    events.extend(_flow_arrow_events(tracer, tracks))
    if platform is not None:
        events.extend(_platform_events(platform, tracks, end_ps))
    if profiler is not None:
        events.extend(_profiler_events(profiler))
    events.sort(key=lambda event: (event.get("ts", -1.0), event["ph"] != "M"))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated",
            "spans": len(tracer.spans),
            "instants": len(tracer.instants),
            "edges": len(tracer.edges),
        },
    }


def _record_ts_ps(record: Any) -> int:
    """Timeline position of a span/instant record (spans bind at start)."""
    time_ps = getattr(record, "time_ps", None)
    if time_ps is not None:
        return time_ps
    return record.start_ps


def _flow_arrow_events(
    tracer: Tracer, tracks: Dict[str, int]
) -> Iterator[Dict[str, Any]]:
    """Causal edges as Chrome trace flow arrows (``"s"``/``"f"`` pairs).

    Each :class:`~repro.obs.tracer.CausalEdge` becomes one flow id: a
    start event at the source record and a binding-enclosing finish at
    the target, so Perfetto draws the kernel-event -> wake ->
    entry/exit-flow chains as arrows across tracks.
    """
    for index, edge in enumerate(tracer.edges):
        for phase, record in (("s", edge.source), ("f", edge.target)):
            event: Dict[str, Any] = {
                "name": edge.kind,
                "cat": "causal",
                "ph": phase,
                "id": index,
                "ts": _ts(_record_ts_ps(record)),
                "pid": TRACE_PID,
                "tid": tracks.get(record.track, 0),
            }
            if phase == "f":
                event["bp"] = "e"
            yield event


def _profiler_events(profiler: PhaseProfiler) -> Iterator[Dict[str, Any]]:
    """Host-phase spans as a separate ``repro-host`` trace process."""
    yield _meta("process_name", HOST_PID, 0, "repro-host")
    yield _meta("thread_name", HOST_PID, 0, "host phases")
    for span in profiler.closed_spans():
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "host-phase",
            "ph": "X",
            "ts": span.start_s * 1e6,  # host seconds -> trace microseconds
            "dur": span.wall_s * 1e6,
            "pid": HOST_PID,
            "tid": 0,
            "args": {"depth": span.depth},
        }
        if span.peak_bytes is not None:
            event["args"]["peak_bytes"] = span.peak_bytes
        yield event


def _platform_events(
    platform: Any, tracks: Dict[str, int], end_ps: Optional[int]
) -> Iterator[Dict[str, Any]]:
    """State-track spans and power-counter events from a platform trace."""
    trace = platform.trace
    horizon_ps = end_ps if end_ps is not None else platform.kernel.now
    state_tid = tracks.get("state", len(tracks))
    for lo, hi, value in trace.intervals("state", horizon_ps):
        if hi > lo:
            yield {
                "name": str(value),
                "cat": "state",
                "ph": "X",
                "ts": _ts(lo),
                "dur": _ts(hi - lo),
                "pid": TRACE_PID,
                "tid": state_tid,
            }
    for channel in trace.channels():
        if channel != "platform" and not channel.startswith("rail:"):
            continue
        for sample in trace.samples(channel):
            if sample.time_ps > horizon_ps:
                break
            yield {
                "name": channel,
                "ph": "C",
                "ts": _ts(sample.time_ps),
                "pid": TRACE_PID,
                "args": {"watts": sample.value},
            }


def write_chrome_trace(
    tracer: Tracer,
    path: Union[str, Path],
    platform: Optional[Any] = None,
    end_ps: Optional[int] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> Path:
    """Write :func:`chrome_trace` output to ``path`` and return it."""
    target = Path(path)
    document = chrome_trace(tracer, platform=platform, end_ps=end_ps, profiler=profiler)
    target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return target


# --- JSONL --------------------------------------------------------------------


def jsonl_lines(tracer: Tracer, profiler: Optional[PhaseProfiler] = None) -> Iterator[str]:
    """One JSON object per recorded span/instant, then per metric.

    ``profiler`` appends one ``"phase"`` record per closed host phase
    (host seconds, not simulated picoseconds)."""
    for span in tracer.spans:
        record: Dict[str, Any] = {
            "type": "span",
            "track": span.track,
            "name": span.name,
            "start_ps": span.start_ps,
            "end_ps": span.end_ps,
            "duration_ps": span.duration_ps if span.closed else None,
        }
        if span.args:
            record["args"] = dict(span.args)
        yield json.dumps(record, sort_keys=True)
    for instant in tracer.instants:
        record = {
            "type": "instant",
            "track": instant.track,
            "name": instant.name,
            "time_ps": instant.time_ps,
        }
        if instant.args:
            record["args"] = dict(instant.args)
        yield json.dumps(record, sort_keys=True)
    for edge in tracer.edges:
        yield json.dumps(
            {
                "type": "edge",
                "kind": edge.kind,
                "source": {
                    "track": edge.source.track,
                    "name": edge.source.name,
                    "time_ps": _record_ts_ps(edge.source),
                },
                "target": {
                    "track": edge.target.track,
                    "name": edge.target.name,
                    "time_ps": _record_ts_ps(edge.target),
                },
            },
            sort_keys=True,
        )
    snapshot = tracer.metrics.snapshot()
    for name, value in snapshot["counters"].items():
        yield json.dumps({"type": "counter", "name": name, "value": value}, sort_keys=True)
    for name, value in snapshot["gauges"].items():
        yield json.dumps({"type": "gauge", "name": name, "value": value}, sort_keys=True)
    for name, stats in snapshot["histograms"].items():
        yield json.dumps(
            {"type": "histogram", "name": name, **stats}, sort_keys=True
        )
    if profiler is not None:
        for span in profiler.closed_spans():
            record = {
                "type": "phase",
                "name": span.name,
                "start_s": span.start_s,
                "wall_s": span.wall_s,
                "self_s": span.self_s,
                "depth": span.depth,
            }
            if span.peak_bytes is not None:
                record["peak_bytes"] = span.peak_bytes
            yield json.dumps(record, sort_keys=True)


def write_jsonl(
    tracer: Tracer,
    path: Union[str, Path],
    profiler: Optional[PhaseProfiler] = None,
) -> Path:
    target = Path(path)
    target.write_text(
        "".join(line + "\n" for line in jsonl_lines(tracer, profiler=profiler))
    )
    return target


# --- terminal summary ---------------------------------------------------------


def render_profile(profiler: PhaseProfiler) -> str:
    """Aligned "Host phases" table for a :class:`PhaseProfiler`.

    Returns the empty string when the profiler recorded no closed
    phases, so callers can append it unconditionally.
    """
    stats = profiler.stats()
    if not stats:
        return ""
    track_allocations = any(
        entry.peak_bytes is not None for entry in stats.values()
    )
    headers = ["phase", "count", "wall time", "self time"]
    if track_allocations:
        headers.append("peak alloc")
    rows: List[List[Any]] = []
    for name, entry in stats.items():
        row: List[Any] = [
            name,
            entry.count,
            f"{entry.wall_s * 1e3:,.2f} ms",
            f"{entry.self_s * 1e3:,.2f} ms",
        ]
        if track_allocations:
            row.append(
                f"{entry.peak_bytes / 1024:,.1f} KiB"
                if entry.peak_bytes is not None
                else "-"
            )
        rows.append(row)
    total = profiler.total_wall_s()
    return format_table(
        headers, rows, title=f"Host phases ({total * 1e3:,.2f} ms top-level)"
    )


def render_summary(
    tracer: Tracer,
    ledger: Optional[EnergyLedger] = None,
    include_spans: bool = True,
    profiler: Optional[PhaseProfiler] = None,
    platform: Optional[Any] = None,
) -> str:
    """Aligned terminal digest of an observed run.

    ``include_spans=False`` restricts the digest to the metrics tables
    (the CLI's ``--metrics`` view).  ``profiler`` appends the
    :func:`render_profile` host-phase table.  ``platform`` (with a
    recorded measurement window) appends the wake-cause attribution and
    flow critical-path tables from :mod:`repro.obs.causal`.
    """
    sections: List[str] = []

    if include_spans:
        totals: Dict[tuple, List[int]] = {}
        for span in tracer.closed_spans():
            key = (span.track, span.name)
            entry = totals.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += span.duration_ps
        if totals:
            rows = [
                [track, name, count, f"{total_ps / 1e6:,.2f} us"]
                for (track, name), (count, total_ps) in sorted(
                    totals.items(), key=lambda item: (item[0][0], -item[1][1])
                )
            ]
            sections.append(
                format_table(["track", "span", "count", "total sim time"], rows,
                             title="Spans")
            )
        leaked = tracer.open_spans()
        if leaked:
            rows = [[span.track, span.name, span.start_ps] for span in leaked]
            sections.append(
                format_table(["track", "span", "opened at (ps)"], rows,
                             title="LEAKED SPANS (never closed)")
            )

    counters = tracer.metrics.counters()
    if counters:
        rows = [[name, value] for name, value in counters.items()]
        sections.append(format_table(["counter", "value"], rows, title="Counters"))
    histograms = tracer.metrics.histograms()
    if histograms:
        rows = [
            [name, hist.count, hist.mean,
             hist.percentile(0.5) if hist.count else "-",
             hist.percentile(0.95) if hist.count else "-"]
            for name, hist in histograms.items()
        ]
        sections.append(
            format_table(["histogram", "count", "mean", "p50", "p95"], rows,
                         title="Histograms")
        )

    if ledger is not None:
        rows = [
            [domain, f"{joules:.6f} J", f"{watts * 1e3:.3f} mW"]
            for domain, joules, watts in ledger.domain_rows()
        ]
        rows.append(
            ["TOTAL", f"{ledger.total_energy_j:.6f} J",
             f"{ledger.average_power_w * 1e3:.3f} mW"]
        )
        sections.append(
            format_table(
                ["domain", "energy", "avg power"], rows,
                title=f"Energy ledger ({ledger.window_s:.2f} s window)",
            )
        )
        step_rows = ledger.step_rows(limit=12)
        if step_rows:
            rows = [
                [span, domain, f"{joules * 1e6:,.3f} uJ"]
                for span, domain, joules in step_rows
            ]
            sections.append(
                format_table(["flow step", "domain", "energy"], rows,
                             title="Flow-step attribution (top cells)")
            )

    if platform is not None and tracer.window_ps is not None:
        from repro.errors import MeasurementError
        from repro.obs.causal import build_causal_report

        try:
            report = build_causal_report(tracer, platform)
        except MeasurementError:
            report = None
        if report is not None and report.rollups:
            window = report.window_ps
            rows = [
                [
                    rollup.cause,
                    f"{rollup.energy_j * 1e3:,.3f} mJ",
                    f"{rollup.residency(window):.4%}",
                    rollup.events,
                ]
                for rollup in report.ranked_rollups()
            ]
            sections.append(
                format_table(
                    ["cause", "energy", "residency", "events"], rows,
                    title="Wake-cause attribution",
                )
            )
            rows = []
            for path in report.critical_paths:
                for label, total_ps, count in path.steps[:3]:
                    share = total_ps / path.total_ps if path.total_ps else 0.0
                    rows.append(
                        [path.flow, label, count,
                         f"{total_ps / 1e6:,.2f} us", f"{share:.1%}"]
                    )
            if rows:
                sections.append(
                    format_table(
                        ["flow", "step", "count", "total sim time", "share"],
                        rows, title="Flow critical path (top steps)",
                    )
                )

    if profiler is not None:
        phase_table = render_profile(profiler)
        if phase_table:
            sections.append(phase_table)
    return "\n\n".join(sections)
