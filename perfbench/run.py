"""End-to-end benchmark of the ODRIPS simulator, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload ctx_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced passes over the op list and prints every per-layer
metric.  Times of ``--trace 0`` are normalized seconds (see
``hostclock``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch output (span dumps, result records, temporary run logs).
OUT_DIR = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
#: Fresh interpreters that time the set-up; the median is ``setup_s``.
SETUP_SAMPLES = 7
#: Set in the environment once the process has re-executed itself with a
#: fixed memory layout.
FIXED_LAYOUT = "PERFBENCH_FIXED_LAYOUT"
#: ``personality(2)`` flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000


def fix_layout(argv: List[str]) -> None:
    """Re-execute this interpreter, in place, with a fixed string-hash
    seed and, where the kernel allows it, no address-space randomization.

    Fresh interpreters running the same op list otherwise differ by up
    to ±18% in speed, mostly from where their objects land in memory.
    The process keeps its pid, so nothing is left to wait for."""
    if os.environ.get(FIXED_LAYOUT):
        return
    os.environ[FIXED_LAYOUT] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # the layout stays random; the run is only noisier
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def setup() -> None:
    """Import ``repro``, build the first platform and load the reference
    digests."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports repro)
    from repro import SkylakePlatform

    SkylakePlatform()
    json.loads(REFERENCES.read_text(encoding="utf-8"))


def timed_setup() -> float:
    """:func:`setup` in normalized seconds (see ``hostclock``)."""
    with HostClock() as clock:
        started = clock.now()
        setup()
        return clock.now() - started


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class CycleCounter:
    """Counts simulated standby cycles completed by every runner.

    The one hook the untraced run installs: a single extra call per
    ``ConnectedStandbyRunner.run``, which lasts tens of milliseconds at
    least.
    """

    def __init__(self) -> None:
        self.cycles = 0

    def __enter__(self) -> "CycleCounter":
        from repro.workloads.standby import ConnectedStandbyRunner

        self._original = original = ConnectedStandbyRunner.run
        counter = self

        def run(runner: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(runner, *args, **kwargs)
            counter.cycles += result.cycles
            return result

        ConnectedStandbyRunner.run = run
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.workloads.standby import ConnectedStandbyRunner

        ConnectedStandbyRunner.run = self._original


@dataclass
class PassLog:
    """What one or more passes over the op list produced (host seconds)."""

    #: summed op time of each pass (on the run's clock), and its wall
    #: time including checks
    pass_op_s: List[float] = field(default_factory=list)
    pass_wall_s: List[float] = field(default_factory=list)
    #: time of every op that completed
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: op key -> result and digest of the first pass
    results: Dict[str, Any] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)


def run_passes(
    ops: List[Any],
    seconds: float,
    session: Any,
    references: Dict[str, str],
    log: PassLog,
    ledger: Optional[Any] = None,
    clock: Callable[[], float] = perf_counter,
) -> PassLog:
    """Run whole passes over ``ops`` until the next one would end after
    ``seconds`` of wall time (at least one).  Each op is timed alone on
    ``clock``; its result is checked after the timer stops."""
    import workloads

    started = perf_counter()
    while True:
        pass_started = perf_counter()
        op_s = 0.0
        session.begin_pass()
        for op in ops:
            log.attempted += 1
            if ledger is not None:
                ledger.begin_op(op.label)
            t0 = clock()
            try:
                result = workloads.execute(op, session)
            except Exception as error:  # a failed op is counted, the run goes on
                result, problems = None, [f"{type(error).__name__}: {error}"]
            elapsed = clock() - t0
            if ledger is not None:
                ledger.end_op()
            op_s += elapsed
            if result is not None:
                log.latencies_s.append(elapsed)
                problems = workloads.check_result(op, result, references)
                signature = workloads.digest(op, result)
                if log.digests.setdefault(op.key, signature) != signature:
                    problems.append("result differs from an earlier pass")
                log.results.setdefault(op.key, result)
            if problems:
                log.failed += 1
                log.problems += [f"{op.key}: {problem}" for problem in problems]
        session.end_pass()
        log.pass_op_s.append(op_s)
        log.pass_wall_s.append(perf_counter() - pass_started)
        if perf_counter() - started + statistics.median(log.pass_wall_s) > seconds:
            return log


def provenance(workload: str, seed: int, trace: int, ops: int) -> Dict[str, Any]:
    from repro.obs.runlog import git_revision

    return {
        "workload": workload, "seed": seed, "trace": trace, "ops": ops,
        "cpu_count": os.cpu_count(), "python": host_platform.python_version(),
        # only this checkout's own .git; a checkout without one has no revision
        "git_rev": git_revision(ROOT) if (ROOT / ".git").exists() else None,
    }


def end_to_end(workload: str, log: PassLog, cycles: int, setup_s: float) -> Dict[str, float]:
    import workloads

    latencies = sorted(log.latencies_s)
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(log.pass_op_s),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8]
        if len(latencies) > 1 else latencies[0],
        "sim_cycles_per_s": cycles / sum(log.pass_op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paper_err": workloads.paper_err(workload, log.results),
    }


def per_layer(untraced: PassLog, traced: PassLog, ledger: Any) -> Dict[str, float]:
    """Per-layer metrics per traced pass of the op list, plus the
    tracing overhead."""
    from ledger import RATIO_METRICS, layer_metrics

    passes = len(traced.pass_op_s)
    values = {
        name: value if name in RATIO_METRICS else value / passes
        for name, value in layer_metrics(ledger).items()
    }
    values["trace.overhead_frac"] = (
        statistics.median(traced.pass_op_s) / statistics.median(untraced.pass_op_s) - 1.0
    )
    values["trace.unattributed_s"] = ledger.unattributed_s / passes
    return values


def traced_run(ops: List[Any], seconds: float, session: Any,
               references: Dict[str, str]) -> tuple:
    """Alternate untraced and traced passes (at least one of each) so
    host-speed drift biases neither side of ``trace.overhead_frac``.
    Traced results must digest like the untraced ones.  Returns the
    untraced log, the traced log (holding every op's outcome) and the
    ledger."""
    from ledger import Ledger

    untraced = PassLog()
    traced = PassLog(results=untraced.results, digests=untraced.digests)
    ledger = Ledger()
    started = perf_counter()
    while True:
        run_passes(ops, 0.0, session, references, untraced)
        with ledger:
            run_passes(ops, 0.0, session, references, traced, ledger)
        pair_s = statistics.median(untraced.pass_wall_s) + statistics.median(traced.pass_wall_s)
        if perf_counter() - started + pair_s > seconds:
            break
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems = untraced.problems + traced.problems
    return untraced, traced, ledger


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(repr(timed_setup()))
        return 0
    fix_layout(sys.argv[1:] if argv is None else argv)
    setup()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed)
    session = workloads.Session(args.workload, OUT_DIR)
    try:
        if args.trace == 0:
            setup_s = setup_seconds()
            log = PassLog()
            with CycleCounter() as counter, HostClock() as clock:
                run_passes(ops, args.seconds, session, references, log, clock=clock.now)
            values = end_to_end(args.workload, log, counter.cycles, setup_s)
            reference_median_s = statistics.median(clock.samples)
            section = "end_to_end"
        else:
            untraced, log, ledger = traced_run(ops, args.seconds, session, references)
            ledger.write_spans(str(OUT_DIR / f"spans-{args.workload}.jsonl"))
            values = per_layer(untraced, log, ledger)
            reference_median_s = None
            section = "per_layer"
    finally:
        session.close()
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: values[name] for name in units}

    record = {
        "provenance": provenance(args.workload, args.seed, args.trace, log.attempted),
        "metrics": metrics,
        "pass_op_s": log.pass_op_s,
        "pass_wall_s": log.pass_wall_s,
        "reference_median_s": reference_median_s,
        "problems": log.problems[:50],
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    for problem in log.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6g} {units[name]}")
    print(f"{'error_rate':28s} {log.failed / log.attempted:16.6g} failed/attempted")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
