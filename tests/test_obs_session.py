"""Tests for repro.obs.session: the one process-wide observation hook."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.obs.profile import PhaseProfiler
from repro.obs.runlog import RunRecorder
from repro.obs.session import KINDS, Observation, attach, current, detach, observe
from repro.obs.stream import TelemetryStream
from repro.obs.tracer import Tracer


def _all_sinks():
    return [Tracer(), TelemetryStream(), RunRecorder(), PhaseProfiler()]


@pytest.fixture(autouse=True)
def _no_leaked_sinks():
    yield
    for kind in KINDS:
        detach(kind)


class TestAttachDetach:
    def test_nothing_attached_by_default(self):
        assert current() == Observation()

    def test_attach_dispatches_on_sink_type(self):
        sinks = _all_sinks()
        for sink in sinks:
            assert attach(sink) is sink
        assert tuple(current()) == tuple(sinks)
        assert KINDS == Observation._fields

    def test_detach_one_kind_leaves_the_others(self):
        tracer, stream, recorder, profiler = _all_sinks()
        with observe(tracer, stream, recorder, profiler):
            assert detach("stream") is stream
            assert detach("stream") is None  # already empty
            session = current()
            assert session.stream is None
            assert (session.tracer, session.recorder, session.profiler) == (
                tracer, recorder, profiler,
            )
        assert current() == Observation()

    def test_unknown_sink_and_kind_raise_typed_errors(self):
        with pytest.raises(ConfigError):
            attach(object())
        with pytest.raises(ConfigError):
            detach("ledger")
        with pytest.raises(ConfigError):
            with observe(Tracer(), object()):
                pass  # pragma: no cover - the sinks are checked first
        assert current() == Observation()  # nothing half-attached

    def test_detached_profiler_stops_its_tracemalloc(self):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already running in this process")
        attach(PhaseProfiler(track_allocations=True))
        assert tracemalloc.is_tracing()
        detach("profiler")
        assert not tracemalloc.is_tracing()


class TestObserve:
    def test_exception_detaches_every_sink(self):
        sinks = _all_sinks()
        with pytest.raises(RuntimeError):
            with observe(*sinks) as session:
                assert current() == session
                raise RuntimeError("boom")
        assert current() == Observation()
        # the yielded session still names its sinks after the block
        assert tuple(session) == tuple(sinks)

    def test_session_is_a_consistent_snapshot(self):
        tracer = Tracer()
        with observe(tracer) as session:
            attach(TelemetryStream())
            assert session.stream is None
            assert current().stream is not None
        assert session.tracer is tracer
