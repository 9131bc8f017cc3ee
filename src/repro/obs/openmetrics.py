"""OpenMetrics text exposition for repro telemetry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` and/or a
:class:`~repro.obs.stream.TelemetryStream` as an `OpenMetrics
<https://openmetrics.io>`_ text exposition (``python -m repro metrics
--openmetrics``):

* counters become ``counter`` families with the mandatory ``_total``
  suffix; instrumented counter names carrying a ``:``-variant (e.g.
  ``kernel.events:timer-fire``) split into one family with an ``event``
  label per variant;
* gauges and heartbeat fields become ``gauge`` families;
* :class:`~repro.obs.metrics.BoundedHistogram` instruments become true
  ``histogram`` families — the log buckets map directly onto cumulative
  ``le`` series — with the run's config fingerprint attached to the
  ``+Inf`` bucket as an OpenMetrics **exemplar**, so a scraped sample
  points back at the exact configuration that produced it;
* the exposition ends with the mandatory ``# EOF`` terminator.

:func:`validate_openmetrics` is a hand-rolled structural validator in
the spirit of ``repro.regress.validate_check_payload``: CI renders an
exposition and round-trips it through the validator with no external
dependencies.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import BoundedHistogram, MetricsRegistry

if TYPE_CHECKING:  # import cycle guard: stream imports nothing from here
    from repro.obs.stream import TelemetryStream

#: Prefix of every exposed metric family.
METRIC_PREFIX = "repro_"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: Sample line grammar: name, optional labelset, value, optional exemplar.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>-?(?:[0-9.eE+-]+|Inf)|NaN)"
    r"(?P<exemplar> # \{[^}]*\} \S+)?$"
)

_TYPES = ("counter", "gauge", "histogram", "summary", "info", "unknown")

#: Heartbeat payload fields exposed as per-source gauges.
_HEARTBEAT_GAUGES = (
    "done", "total", "frac", "sim_s", "wall_s",
    "events", "events_per_s", "sim_per_wall",
)


def sanitize_metric_name(name: str) -> str:
    """Instrument name -> legal OpenMetrics family name (prefixed)."""
    cleaned = _NAME_OK.sub("_", name.strip())
    cleaned = re.sub(r"__+", "_", cleaned).strip("_")
    if not cleaned:
        cleaned = "unnamed"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return METRIC_PREFIX + cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics text grammar."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labelset(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bools are ints; never expose them raw
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _counter_lines(counters: Mapping[str, int]) -> List[str]:
    """Counter families; ``family:variant`` names fold into one family."""
    families: Dict[str, List[Tuple[Optional[str], int]]] = {}
    for name, value in sorted(counters.items()):
        family, _, variant = name.partition(":")
        families.setdefault(sanitize_metric_name(family), []).append(
            (variant or None, value)
        )
    lines: List[str] = []
    for family, samples in sorted(families.items()):
        lines.append(f"# TYPE {family} counter")
        for variant, value in samples:
            labels = {"event": variant} if variant is not None else {}
            lines.append(f"{family}_total{_labelset(labels)} {_format_value(value)}")
    return lines


def _gauge_lines(gauges: Mapping[str, Union[int, float]]) -> List[str]:
    lines: List[str] = []
    for name, value in sorted(gauges.items()):
        family = sanitize_metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_value(value)}")
    return lines


def _histogram_lines(
    name: str, hist: BoundedHistogram, exemplar: Optional[str] = None
) -> List[str]:
    """Histograms expose as native histogram families.

    ``exemplar`` (a config fingerprint) rides on the ``+Inf`` bucket —
    the one sample every scrape reads — pointing the series back at the
    exact configuration that produced it.
    """
    family = sanitize_metric_name(name)
    lines = [f"# TYPE {family} histogram"]
    for upper, cumulative in hist.cumulative_buckets():
        lines.append(
            f'{family}_bucket{{le="{_format_value(upper)}"}} {cumulative}'
        )
    suffix = ""
    if exemplar is not None:
        suffix = (
            f' # {{fingerprint="{escape_label_value(exemplar)}"}} '
            f"{_format_value(hist.mean)}"
        )
    lines.append(f'{family}_bucket{{le="+Inf"}} {hist.count}{suffix}')
    lines.append(f"{family}_count {hist.count}")
    lines.append(f"{family}_sum {_format_value(hist.total)}")
    return lines


def _heartbeat_lines(heartbeats: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Latest heartbeat per source, one gauge family per payload field."""
    lines: List[str] = []
    for fieldname in _HEARTBEAT_GAUGES:
        family = sanitize_metric_name(f"heartbeat.{fieldname}")
        samples: List[str] = []
        for source, payload in sorted(heartbeats.items()):
            value = payload.get(fieldname)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            labels = {"source": str(source)}
            label = payload.get("label")
            if label:
                labels["experiment"] = str(label)
            samples.append(f"{family}{_labelset(labels)} {_format_value(value)}")
        if samples:
            lines.append(f"# TYPE {family} gauge")
            lines.extend(samples)
    return lines


def openmetrics_lines(
    metrics: Optional[MetricsRegistry] = None,
    stream: Optional["TelemetryStream"] = None,
) -> List[str]:
    """Exposition lines (without the ``# EOF`` terminator)."""
    lines: List[str] = []
    exemplar = stream.labels.get("fingerprint") if stream is not None else None
    if metrics is not None:
        lines.extend(_counter_lines(metrics.counters()))
        lines.extend(_gauge_lines(metrics.gauges()))
        for name, hist in metrics.histograms().items():
            lines.extend(_histogram_lines(name, hist, exemplar))
    if stream is not None:
        for name, hist in sorted(stream.histograms.items()):
            lines.extend(_histogram_lines(name, hist, exemplar))
        lines.extend(_heartbeat_lines(stream.heartbeats))
    return lines


def render_openmetrics(
    metrics: Optional[MetricsRegistry] = None,
    stream: Optional["TelemetryStream"] = None,
) -> str:
    """The full exposition text, ``# EOF``-terminated."""
    return "\n".join(openmetrics_lines(metrics, stream) + ["# EOF"]) + "\n"


def write_openmetrics(
    path: Union[str, Path],
    metrics: Optional[MetricsRegistry] = None,
    stream: Optional["TelemetryStream"] = None,
) -> Path:
    """Render and write an exposition; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_openmetrics(metrics, stream), encoding="utf-8")
    return target


# --- structural validation ----------------------------------------------------

def _family_of(sample_name: str, declared: Mapping[str, str]) -> Optional[str]:
    """The declared family a sample name belongs to, if any."""
    if sample_name in declared:
        return sample_name
    for suffix in ("_total", "_bucket", "_count", "_sum"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in declared:
            return sample_name[: -len(suffix)]
    return None


def _parse_le(labels: str) -> Optional[str]:
    match = re.search(r'le="([^"]*)"', labels or "")
    return match.group(1) if match else None


def validate_openmetrics(text: str) -> List[str]:
    """Structural problems with an OpenMetrics exposition (empty: valid).

    Hand-rolled (no client library in the image), in the spirit of
    ``validate_check_payload``: checks the line grammar, the ``# TYPE``
    discipline, counter ``_total`` naming, histogram bucket monotonicity
    and ``+Inf``/``_count``/``_sum`` consistency, and the ``# EOF``
    terminator.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition must end with a '# EOF' line")
    declared: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[str, float]]] = {}
    counts: Dict[str, float] = {}
    sums: Dict[str, bool] = {}
    for number, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"line {number}: blank lines are not allowed")
            continue
        if line == "# EOF":
            if number != len(lines):
                problems.append(f"line {number}: '# EOF' before end of exposition")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in _TYPES:
                problems.append(f"line {number}: malformed TYPE line {line!r}")
                continue
            family = parts[2]
            if family in declared:
                problems.append(f"line {number}: duplicate TYPE for {family!r}")
            declared[family] = parts[3]
            continue
        if line.startswith("#"):
            problems.append(f"line {number}: unexpected comment {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = _family_of(name, declared)
        if family is None:
            problems.append(
                f"line {number}: sample {name!r} has no preceding TYPE declaration"
            )
            continue
        kind = declared[family]
        value = float(match.group("value").replace("Inf", "inf"))
        if kind == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {number}: counter sample {name!r} must end in '_total'"
            )
        if kind == "histogram":
            if name.endswith("_bucket"):
                le = _parse_le(match.group("labels") or "")
                if le is None:
                    problems.append(
                        f"line {number}: histogram bucket without 'le' label"
                    )
                else:
                    buckets.setdefault(family, []).append((le, value))
            elif name.endswith("_count"):
                counts[family] = value
            elif name.endswith("_sum"):
                sums[family] = True
    for family, series in sorted(buckets.items()):
        les = [le for le, _count in series]
        if not les or les[-1] != "+Inf":
            problems.append(f"histogram {family!r}: last bucket must be le=\"+Inf\"")
        bounds = [float(le.replace("Inf", "inf")) for le in les]
        if bounds != sorted(bounds):
            problems.append(f"histogram {family!r}: 'le' bounds not ascending")
        values = [count for _le, count in series]
        if any(later < earlier for earlier, later in zip(values, values[1:])):
            problems.append(f"histogram {family!r}: bucket counts not cumulative")
        if family in counts and series and counts[family] != series[-1][1]:
            problems.append(
                f"histogram {family!r}: _count {counts[family]} != "
                f"+Inf bucket {series[-1][1]}"
            )
        if not sums.get(family):
            problems.append(f"histogram {family!r}: missing _sum sample")
    return problems
