"""Tests of the benchmark itself: result checks, traced-run purity,
layer attribution, the normalized clock and the output contract.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.setup()

import hostclock  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, layer_metrics  # noqa: E402
from repro.memory.dram import DRAMDevice  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _passes(workload, ops, tmp_path, ledger=None):
    session = workloads.Session(workload, tmp_path)
    log = run.PassLog()
    try:
        with run.CycleCounter():
            if ledger is None:
                run.run_passes(ops, 0.0, session, REFERENCES, log)
            else:
                with ledger:
                    run.run_passes(ops, 0.0, session, REFERENCES, log, ledger)
    finally:
        session.close()
    return log


def test_references_cover_paper_and_recorded_seeds():
    for workload in workloads.WORKLOADS:
        for op in workloads.build_ops(workload, 0):
            assert op.key in REFERENCES, op.key


def test_one_ulp_change_counts_as_failure(tmp_path, monkeypatch):
    op = workloads._op("measure", "baseline", cycles=2)
    session = workloads.Session("standby_exact", tmp_path)
    result = workloads.execute(op, session)
    assert workloads.check_result(op, result, REFERENCES) == []

    nudged = dataclasses.replace(
        result, average_power_w=math.nextafter(result.average_power_w, math.inf)
    )
    assert workloads.check_result(op, nudged, REFERENCES)

    # through the pass loop, the mismatch is a failed op
    real = workloads.execute
    monkeypatch.setattr(workloads, "execute", lambda o, s: nudged if o == op else real(o, s))
    log = _passes("standby_exact", [op, workloads._op("measure", "wake-up-off", cycles=2)],
                  tmp_path)
    assert (log.attempted, log.failed) == (2, 1)


@pytest.mark.parametrize("workload", ["standby_exact", "observed_horizon"])
def test_traced_digests_equal_untraced(workload, tmp_path):
    ops = workloads.build_ops(workload, 3)[:8]
    untraced = _passes(workload, ops, tmp_path)
    ledger = Ledger()
    traced = _passes(workload, ops, tmp_path, ledger)
    assert traced.digests == untraced.digests
    assert untraced.failed == traced.failed == 0
    assert sum(ledger.calls.values()) > 0
    # the wrappers are gone afterwards
    assert DRAMDevice.read.__qualname__ == "DRAMDevice.read"


def test_self_times_tile_the_traced_operations(tmp_path):
    ledger = Ledger()
    log = _passes("standby_exact", workloads.build_ops("standby_exact", 1)[:10], tmp_path, ledger)
    attributed = sum(ledger.self_s.values()) + ledger.unattributed_s
    assert attributed == pytest.approx(sum(log.pass_op_s), rel=0.05)
    assert len(log.latencies_s) == 10
    ledger.write_spans(str(tmp_path / "spans.jsonl"))
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ids = {span["id"] for span in spans}
    assert all(span["parent"] in ids or span["parent"] == -1 for span in spans)
    assert {span["op"] for span in spans} == set(range(10))


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_seeded_slowdown_is_attributed_to_memory(tmp_path, monkeypatch):
    """A delay added to DRAMDevice.read shows up as memory self time and
    in ctx_sweep run time, and standby_exact never calls the DRAM."""
    ctx = [workloads._op("measure", "odrips", cycles=1)]
    normal = _passes("ctx_sweep", ctx, tmp_path)
    normal_ledger = Ledger()
    _passes("ctx_sweep", ctx, tmp_path, normal_ledger)

    # large enough that host-speed drift between the runs (up to ~1.7x on
    # shared hosts) cannot hide it or be mistaken for it
    delay_s = 30e-6
    read = DRAMDevice.read
    reads = []

    def slow_read(self, address, length):
        reads.append(1)
        _busy(delay_s)
        return read(self, address, length)

    monkeypatch.setattr(DRAMDevice, "read", slow_read)
    slowed = _passes("ctx_sweep", ctx, tmp_path)
    reads.clear()
    slowed_ledger = Ledger()
    _passes("ctx_sweep", ctx, tmp_path, slowed_ledger)

    added_s = len(reads) * delay_s
    assert added_s > 5.0
    slow_layers = slowed_ledger.layer_self_s()
    normal_layers = normal_ledger.layer_self_s()
    assert slow_layers["memory"] >= added_s
    for layer in ("sgx", "sim", "system", "processor"):
        assert slow_layers.get(layer, 0.0) < normal_layers.get(layer, 0.0) + 0.2 * added_s
    assert run.statistics.median(slowed.pass_op_s) > run.statistics.median(normal.pass_op_s) + 0.5 * added_s

    standby = Ledger()
    _passes("standby_exact", workloads.build_ops("standby_exact", 1)[:12], tmp_path, standby)
    metrics = layer_metrics(standby)
    assert metrics["memory.calls"] == 0
    assert metrics["sgx.calls"] == 0
    assert metrics["obs.spans"] == 0


def _kernels(count):
    for _ in range(count):
        hostclock.reference_kernel()


def test_host_clock_counts_work_in_reference_kernels():
    """Work equal to k reference kernels reads about k * NOMINAL_S
    normalized seconds whatever the host's speed, twice the work reads
    twice the time, and the SIGALRM handler and timer are restored."""
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        started = clock.now()
        _kernels(2000)
        once = clock.now() - started
        started = clock.now()
        _kernels(4000)
        twice = clock.now() - started
    assert len(clock.samples) > 20
    assert once == pytest.approx(2000 * hostclock.NOMINAL_S, rel=0.25)
    assert twice / once == pytest.approx(2.0, rel=0.15)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_no_writes_to_repro_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.build_ops("observed_horizon", 2)[:6]
    _passes("observed_horizon", ops, tmp_path)
    assert not (tmp_path / ".repro").exists()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_contract(trace, section):
    done = _bench("--workload", "standby_exact", "--seed", "4", "--seconds", "1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "standby_exact", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
