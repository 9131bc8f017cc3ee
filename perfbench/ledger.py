"""Per-layer host-time ledger for the traced benchmark run.

The traced run wraps public functions of each ``repro`` layer (layer
names are ``src/repro`` package names) from outside the package: the
wrappers are installed on the classes and modules at run time and
removed afterwards, so ``repro`` itself carries no benchmark code.

Every wrapped call is timed.  A layer's *self time* is the time inside
its wrapped calls minus the time covered by wrapped calls nested inside
them (of any layer).  Time outside every layer span but inside an
operation is ``trace.unattributed_s``.

Spans (name, start, end, parent, operation id) are kept in memory and
written out when the run ends.  Calls marked ``hot`` below run hundreds
of thousands of times per operation (per 64 B block or per 8 B store
access); they are timed and counted exactly, and their time is charged
to their parent span as child time, but they are not stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``counter(ledger, args, kwargs, result, before)`` after each call, where
#: ``before`` is what the point's ``before(args, kwargs)`` returned.
Counter = Callable[["Ledger", tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Point:
    """One wrapped public function of a layer."""

    layer: str
    module: str
    qualname: str
    #: metric group the call counts into (``<layer>.<group>_calls`` etc.)
    group: str
    hot: bool = False
    counter: Optional[Counter] = None
    before: Optional[Callable[[tuple, dict], Any]] = None
    generator: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.qualname}"


def _add(key: str, amount: Callable[[tuple, dict, Any, Any], float]) -> Counter:
    def count(ledger: "Ledger", args: tuple, kwargs: dict, result: Any, before: Any) -> None:
        ledger.extra[key] = ledger.extra.get(key, 0.0) + amount(args, kwargs, result, before)

    return count


def _arg(index: int, name: str) -> Callable[[tuple, dict], Any]:
    def get(args: tuple, kwargs: dict) -> Any:
        return args[index] if len(args) > index else kwargs[name]

    return get


def _count_runner(ledger: "Ledger", args: tuple, kwargs: dict, result: Any, before: Any) -> None:
    extra = ledger.extra
    extra["workloads.cycles"] = extra.get("workloads.cycles", 0.0) + result.cycles
    macro = result.macro or {}
    for source, key in (
        ("cycles_compiled", "sim.macro_cycles_compiled"),
        ("macro_steps", "sim.macro_steps"),
        ("fallbacks", "sim.macro_fallbacks"),
    ):
        extra[key] = extra.get(key, 0.0) + macro.get(source, 0)


def _count_parse(ledger: "Ledger", args: tuple, kwargs: dict, result: Any, before: Any) -> None:
    # ModuleCache lives in repro.lint but is the shared parse substrate;
    # parses made under a check-layer call are the checker's.
    if ledger.depth.get("check", 0):
        parsed = args[0].parse_count - before
        ledger.extra["check.files_parsed"] = ledger.extra.get("check.files_parsed", 0.0) + parsed


_KIB = 1.0 / 1024.0
_diagnostics = _add("lint.diagnostics", lambda a, k, r, b: len(r))

#: Every wrapped function, by layer.  ``group`` names the counter the
#: call feeds; the metric table in :func:`layer_metrics` reads them.
POINTS: Tuple[Point, ...] = (
    # sgx: the functional memory-encryption engine
    Point("sgx", "repro.sgx.mee", "MemoryEncryptionEngine.bulk_write", "mee",
          counter=_add("sgx.kib", lambda a, k, r, b: len(_arg(2, "data")(a, k)) * _KIB)),
    Point("sgx", "repro.sgx.mee", "MemoryEncryptionEngine.bulk_read", "mee",
          counter=_add("sgx.kib", lambda a, k, r, b: _arg(2, "length")(a, k) * _KIB)),
    Point("sgx", "repro.sgx.mee", "MemoryEncryptionEngine.initialize_region", "init"),
    Point("sgx", "repro.sgx.mee", "MemoryEncryptionEngine.write", "mee"),
    Point("sgx", "repro.sgx.mee", "MemoryEncryptionEngine.read", "mee"),
    Point("sgx", "repro.sgx.integrity_tree", "IntegrityTree.verify_block", "tree", hot=True),
    Point("sgx", "repro.sgx.integrity_tree", "IntegrityTree.update_block", "tree", hot=True),
    Point("sgx", "repro.sgx.crypto", "CtrCipher.encrypt", "crypto", hot=True),
    Point("sgx", "repro.sgx.crypto", "CtrCipher.decrypt", "crypto", hot=True),
    Point("sgx", "repro.sgx.crypto", "MacKey.tag", "crypto", hot=True),
    Point("sgx", "repro.sgx.crypto", "MacKey.verify", "crypto", hot=True),
    Point("sgx", "repro.sgx.cache", "MEECache.lookup", "cache", hot=True,
          counter=_add("sgx.cache_hits", lambda a, k, r, b: r is not None)),
    # memory: the DRAM device and the byte store behind every memory
    Point("memory", "repro.memory.dram", "DRAMDevice.read", "dram", hot=True,
          counter=_add("memory.bytes", lambda a, k, r, b: _arg(2, "length")(a, k))),
    Point("memory", "repro.memory.dram", "DRAMDevice.write", "dram", hot=True,
          counter=_add("memory.bytes", lambda a, k, r, b: len(_arg(2, "data")(a, k)))),
    Point("memory", "repro.memory.store", "SparseMemory.read", "store", hot=True),
    Point("memory", "repro.memory.store", "SparseMemory.write", "store", hot=True),
    # processor: context synthesis (the CSR/patch/fuse image saved per cycle)
    Point("processor", "repro.processor.core", "synthesize_context", "context",
          counter=_add("processor.context_bytes", lambda a, k, r, b: _arg(1, "length")(a, k))),
    # sim: event dispatch
    Point("sim", "repro.sim.kernel", "Kernel.run", "kernel",
          counter=_add("sim.events", lambda a, k, r, b: r)),
    # system: platform build and the entry/exit flow bodies.  The public
    # FlowController calls only start a flow process; the flow work runs
    # in these generator bodies, resumed by kernel events.
    Point("system", "repro.system.skylake", "SkylakePlatform.__init__", "build"),
    Point("system", "repro.system.flows", "FlowController._entry_flow", "flow",
          generator=True),
    Point("system", "repro.system.flows", "FlowController._exit_flow", "flow",
          generator=True),
    # power: power-tree updates and the energy meter
    Point("power", "repro.power.domain", "Component.set_power", "set_power"),
    Point("power", "repro.power.meter", "EnergyMeter.set_power", "set_power"),
    Point("power", "repro.power.meter", "EnergyMeter.inject", "meter"),
    # measure: residency analysis of the measurement window
    Point("measure", "repro.measure.residency", "residency_report", "analyzer"),
    Point("sim", "repro.sim.macro", "macro_residency_report", "macro"),
    # workloads: the connected-standby runner
    Point("workloads", "repro.workloads.standby", "ConnectedStandbyRunner.run", "runner",
          counter=_count_runner),
    # analysis: break-even fits
    Point("analysis", "repro.analysis.breakeven", "find_break_even", "analysis"),
    # perf: the simulation cache
    # a hit is a key already present before the lookup runs
    Point("perf", "repro.perf.cache", "SimulationCache.get_or_run", "cache",
          before=lambda a, k: _arg(1, "key")(a, k) in a[0],
          counter=_add("perf.hits", lambda a, k, r, b: b)),
    # core: the controller front door
    Point("core", "repro.core.odrips", "ODRIPSController.measure", "measure"),
    Point("core", "repro.core.odrips", "ODRIPSController.measure_raw_periodic", "measure"),
    # obs: tracer, telemetry stream and flight recorder
    Point("obs", "repro.obs.tracer", "Tracer.begin", "spans", hot=True),
    Point("obs", "repro.obs.tracer", "Tracer.end", "span_end", hot=True),
    Point("obs", "repro.obs.tracer", "Tracer.instant", "instant", hot=True),
    Point("obs", "repro.obs.tracer", "Tracer.kernel_event", "instant", hot=True),
    Point("obs", "repro.obs.stream", "TelemetryStream.histogram", "stream", hot=True),
    Point("obs", "repro.obs.stream", "TelemetryStream.heartbeat", "stream_heartbeat", hot=True),
    Point("obs", "repro.obs.runlog", "RunRecorder.measurement", "recorder"),
    Point("obs", "repro.obs.runlog", "RunRecorder.finish", "recorder"),
    Point("obs", "repro.obs.runlog", "RunLog.append", "runlog"),
    # check: model checker, budget probes, source dataflow/effects passes
    Point("check", "repro.check", "check_standby_model", "check"),
    Point("check", "repro.check.explore", "explore", "explore",
          counter=_add("check.states_explored", lambda a, k, r, b: r.states_explored)),
    Point("check", "repro.check.budgets", "probe_standby_cycle", "probe"),
    Point("check", "repro.check.callgraph", "graph_for_paths", "graph"),
    Point("check", "repro.check.dataflow", "analyze_graph", "dataflow"),
    Point("check", "repro.check.effects", "analyze_effects_graph", "effects"),
    # lint: model, experiment-registry and source passes; the shared parser
    Point("lint", "repro.lint.model", "lint_platform", "lint", counter=_diagnostics),
    Point("lint", "repro.lint.rules_experiments", "lint_experiments", "lint",
          counter=_diagnostics),
    Point("lint", "repro.lint.source", "lint_paths", "lint", counter=_diagnostics),
    Point("lint", "repro.lint.astcache", "ModuleCache.module_for_source", "parse",
          before=lambda a, k: a[0].parse_count, counter=_count_parse),
)


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Ledger:
    """Span store and per-point call/time accounting for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        #: open non-hot calls per layer (the check layer has no hot points)
        self.depth: Dict[str, int] = {}
        self.unattributed_s = 0.0
        self.op_id = -1
        # frames: [start, child_time, span index, parent span index]
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._functions: List[Tuple[str, Callable, Callable]] = []

    # --- operations ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([perf_counter(), 0.0, index, -1, label])

    def end_op(self) -> None:
        frame = self._stack.pop()
        end = perf_counter()
        elapsed = end - frame[0]
        self.unattributed_s += elapsed - frame[1]
        self.spans[frame[2]] = (self._name_id(f"op:{frame[4]}"), frame[0], end, -1, self.op_id)

    # --- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _enter(self, point: Point, name_id: int) -> list:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        if point.hot:
            index = parent
        else:
            index = len(self.spans)
            self.spans.append(None)
            self.depth[point.layer] = self.depth.get(point.layer, 0) + 1
        frame = [perf_counter(), 0.0, index, parent]
        stack.append(frame)
        return frame

    def _leave(self, point: Point, key: str, name_id: int, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        elapsed = end - frame[0]
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - frame[1]
        self.inclusive_s[key] = self.inclusive_s.get(key, 0.0) + elapsed
        if stack:
            stack[-1][1] += elapsed
        if not point.hot:
            self.depth[point.layer] -= 1
            self.spans[frame[2]] = (name_id, frame[0], end, frame[3], self.op_id)

    def _wrap(self, point: Point, original: Callable) -> Callable:
        ledger = self
        key = f"{point.layer}.{point.group}"
        name_id = self._name_id(point.name)
        counter = point.counter
        before = point.before

        if point.generator:
            def body(*args: Any, **kwargs: Any):
                inner = original(*args, **kwargs)
                while True:
                    frame = ledger._enter(point, name_id)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        ledger._leave(point, key, name_id, frame)
                    try:
                        yield item
                    except GeneratorExit:
                        inner.close()
                        raise

            def flow(*args: Any, **kwargs: Any):
                ledger.extra[f"{key}.started"] = ledger.extra.get(f"{key}.started", 0.0) + 1
                return body(*args, **kwargs)

            return flow

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            frame = ledger._enter(point, name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                ledger._leave(point, key, name_id, frame)
            if counter is not None:
                counter(ledger, args, kwargs, result, token)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every point; module-level functions are also replaced in
        each loaded ``repro`` module that imported them by name."""
        for point in POINTS:
            module = importlib.import_module(point.module)
            owner_name, _, attr = point.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = inspect.getattr_static(owner, attr)
                self._patch(owner, attr, original, self._wrap(point, original))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(point, original)
                self._functions.append((attr, original, wrapped))
                for loaded in _repro_modules():
                    if getattr(loaded, attr, None) is original:
                        self._patch(loaded, attr, original, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:  # the attribute was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        # modules imported while tracing bound the wrappers by name
        for attr, original, wrapped in self._functions:
            for loaded in _repro_modules():
                if getattr(loaded, attr, None) is wrapped:
                    setattr(loaded, attr, original)
        self._restore.clear()
        self._functions.clear()

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # --- results ------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, summed over its points."""
        totals: Dict[str, float] = {}
        for key, seconds in self.self_s.items():
            layer = key.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write_spans(self, path: str) -> int:
        """Write the stored spans as JSON lines; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name_id, start, end, parent, op = span
                stream.write(json.dumps(
                    {"id": index, "name": self.names[name_id], "start_s": start,
                     "end_s": end, "parent": parent, "op": op}
                ) + "\n")
                written += 1
        return written


def _c(ledger: Ledger, key: str) -> float:
    return float(ledger.calls.get(key, 0))


def _s(ledger: Ledger, key: str) -> float:
    return ledger.self_s.get(key, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """Raw per-layer totals of a traced run (not yet divided per pass)."""
    e = ledger.extra.get
    layer_s = ledger.layer_self_s()
    mem_calls = _c(ledger, "memory.dram")
    events = e("sim.events", 0.0)
    return {
        "sgx.calls": _c(ledger, "sgx.mee"),
        "sgx.self_s": layer_s.get("sgx", 0.0),
        "sgx.kib": e("sgx.kib", 0.0),
        "sgx.tree_calls": _c(ledger, "sgx.tree"),
        "sgx.tree_self_s": _s(ledger, "sgx.tree"),
        "sgx.crypto_calls": _c(ledger, "sgx.crypto"),
        "sgx.cache_hit_ratio": _ratio(e("sgx.cache_hits", 0.0), _c(ledger, "sgx.cache")),
        "memory.calls": mem_calls,
        "memory.self_s": layer_s.get("memory", 0.0),
        "memory.bytes": e("memory.bytes", 0.0),
        "memory.bytes_per_call": _ratio(e("memory.bytes", 0.0), mem_calls),
        "memory.store_calls": _c(ledger, "memory.store"),
        "memory.store_self_s": _s(ledger, "memory.store"),
        "processor.context_calls": _c(ledger, "processor.context"),
        "processor.context_bytes": e("processor.context_bytes", 0.0),
        "processor.self_s": layer_s.get("processor", 0.0),
        "sim.events": events,
        "sim.self_s": layer_s.get("sim", 0.0),
        "sim.host_us_per_event": _ratio(
            ledger.inclusive_s.get("sim.kernel", 0.0) * 1e6, events
        ),
        "sim.macro_cycles_compiled": e("sim.macro_cycles_compiled", 0.0),
        "sim.macro_steps": e("sim.macro_steps", 0.0),
        "sim.macro_fallbacks": e("sim.macro_fallbacks", 0.0),
        "sim.macro_ratio": _ratio(
            e("sim.macro_cycles_compiled", 0.0), e("workloads.cycles", 0.0)
        ),
        "system.builds": _c(ledger, "system.build"),
        "system.build_s": ledger.inclusive_s.get("system.build", 0.0),
        "system.flow_calls": e("system.flow.started", 0.0),
        "system.flow_self_s": _s(ledger, "system.flow"),
        "power.set_power_calls": _c(ledger, "power.set_power"),
        "power.self_s": layer_s.get("power", 0.0),
        "measure.calls": _c(ledger, "measure.analyzer"),
        "measure.self_s": layer_s.get("measure", 0.0),
        "workloads.runs": _c(ledger, "workloads.runner"),
        "workloads.cycles": e("workloads.cycles", 0.0),
        "workloads.self_s": layer_s.get("workloads", 0.0),
        "analysis.calls": _c(ledger, "analysis.analysis"),
        "analysis.self_s": layer_s.get("analysis", 0.0),
        "perf.lookups": _c(ledger, "perf.cache"),
        "perf.hit_ratio": _ratio(e("perf.hits", 0.0), _c(ledger, "perf.cache")),
        "perf.self_s": layer_s.get("perf", 0.0),
        "core.measure_calls": _c(ledger, "core.measure"),
        "core.self_s": layer_s.get("core", 0.0),
        "obs.spans": _c(ledger, "obs.spans"),
        "obs.stream_observations": _c(ledger, "obs.stream"),
        "obs.runlog_records": _c(ledger, "obs.runlog"),
        "obs.self_s": layer_s.get("obs", 0.0),
        "check.files_parsed": e("check.files_parsed", 0.0),
        "check.states_explored": e("check.states_explored", 0.0),
        "check.budget_probes": _c(ledger, "check.probe"),
        "check.self_s": layer_s.get("check", 0.0),
        "lint.diagnostics": e("lint.diagnostics", 0.0),
        "lint.self_s": layer_s.get("lint", 0.0),
    }

#: Metrics that are ratios or per-event costs, so not divided per pass.
RATIO_METRICS = frozenset({
    "sgx.cache_hit_ratio", "memory.bytes_per_call", "sim.host_us_per_event",
    "sim.macro_ratio", "perf.hit_ratio",
})
