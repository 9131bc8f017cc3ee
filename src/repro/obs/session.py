"""The observation session: the one process-wide instrumentation hook.

An :class:`Observation` holds one optional slot per sink kind: the
``tracer`` (:class:`~repro.obs.tracer.Tracer`), the telemetry ``stream``
(:class:`~repro.obs.stream.TelemetryStream`), the flight ``recorder``
(:class:`~repro.obs.runlog.RunRecorder`) and the host-phase ``profiler``
(:class:`~repro.obs.profile.PhaseProfiler`).  :func:`attach` puts a sink
into the slot its class names, :func:`detach` empties one slot and
leaves the others attached, and :func:`observe` attaches any mix of
sinks for the duration of a ``with`` block::

    from repro import obs

    with obs.observe(obs.Tracer(), obs.TelemetryStream()) as session:
        ODRIPSController(TechniqueSet.odrips()).measure(cycles=1)
    print(obs.render_summary(session.tracer))

Instrumented seams read :func:`current` once and use the slots they
need.  With nothing attached every slot is ``None``, so a disabled seam
costs one function call and one attribute check.  Observations are
immutable: attaching or detaching swaps in a new one, so a seam that
captured :func:`current` at the start of a run keeps a consistent view,
and the session :func:`observe` yields still names its sinks after the
block exits.

Observation never perturbs the simulation: sinks never schedule kernel
events or touch simulated time, and they are excluded from the
:mod:`repro.perf` fingerprints, so results are bit-for-bit identical
with and without any sink attached.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, NamedTuple, Optional

from repro.effects import declares_effects
from repro.errors import ConfigError

if TYPE_CHECKING:  # import cycle guard: every sink module imports this one
    from repro.obs.profile import PhaseProfiler
    from repro.obs.runlog import RunRecorder
    from repro.obs.stream import TelemetryStream
    from repro.obs.tracer import Tracer

#: The sink slots; each sink class names its own in ``kind``.
KINDS = ("tracer", "stream", "recorder", "profiler")

_NO_PHASE = nullcontext()


class Observation(NamedTuple):
    """The sinks attached to the process (``None``: slot empty)."""

    tracer: Optional["Tracer"] = None
    stream: Optional["TelemetryStream"] = None
    recorder: Optional["RunRecorder"] = None
    profiler: Optional["PhaseProfiler"] = None

    def phase(self, name: str) -> ContextManager[Any]:
        """A host phase on the attached profiler, or a no-op context."""
        if self.profiler is None:
            return _NO_PHASE
        return self.profiler.phase(name)


_current = Observation()


def current() -> Observation:
    """The attached sinks (every slot ``None`` when nothing observes)."""
    return _current


def _kind_of(sink: Any) -> str:
    kind = getattr(type(sink), "kind", None)
    if kind not in KINDS:
        raise ConfigError(f"{type(sink).__name__} is not an observation sink")
    return kind


@declares_effects("module-state")  # the process-wide hook itself
def attach(sink: Any) -> Any:
    """Attach ``sink`` to its slot (replacing any occupant); returns it.

    Only construction sites read the tracer slot: platforms built before
    a tracer is attached stay uninstrumented, and platforms built under
    one keep it after it is detached.
    """
    global _current
    _current = _current._replace(**{_kind_of(sink): sink})
    return sink


@declares_effects("module-state")  # the process-wide hook itself
def detach(kind: str) -> Any:
    """Empty the ``kind`` slot, leaving the others attached.

    Returns the removed sink (``None`` when the slot was empty).  A
    detached profiler stops the :mod:`tracemalloc` session it started;
    every sink keeps its records.
    """
    global _current
    if kind not in KINDS:
        raise ConfigError(f"unknown sink kind {kind!r}; pick one of: {', '.join(KINDS)}")
    sink = getattr(_current, kind)
    _current = _current._replace(**{kind: None})
    if kind == "profiler" and sink is not None:
        sink.close()
    return sink


@contextmanager
def observe(*sinks: Any) -> Iterator[Observation]:
    """Attach ``sinks`` for the block; detach their slots on exit.

    Yields the session with the sinks attached.  The slots are emptied
    even when the block raises.
    """
    kinds = [_kind_of(sink) for sink in sinks]
    for sink in sinks:
        attach(sink)
    try:
        yield _current
    finally:
        for kind in kinds:
            detach(kind)
