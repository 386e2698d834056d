"""In-memory span tracer that wraps the public entry points of ``repro``.

The tracer lives entirely in the benchmark: it records spans around calls
into each layer of the package by temporarily replacing public functions and
methods with timing wrappers, and restores the originals afterwards.  Nothing
in ``repro`` itself is instrumented.

A span is ``(name, start, end, parent, op_id, id)``.  Spans are kept in memory
(up to :data:`MAX_SPANS`; beyond that only the aggregates grow) and written
out as JSON lines when the run ends.  A span's *self time* is its duration
minus the durations of its direct children, accumulated per span name as the
spans close, so the aggregates stay exact however many spans are kept.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the trace file; aggregates are exact beyond this.
MAX_SPANS = 50_000

_clock = time.perf_counter


class Tracer:
    """Span stack, per-name self-time aggregates and event counters."""

    def __init__(self) -> None:
        self.op_id = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self.dropped = 0
        # Open spans: [name, start, child_seconds, id].
        self._stack: List[list] = []
        self._next_index = 0
        self._last_ended = -1

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0, self._next_index])
        self._next_index += 1

    def end(self) -> None:
        end = _clock()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, parent, self.op_id, index))
        else:
            self.dropped += 1
        self._last_ended = index

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- merging a child process's trace ---------------------------------
    def export(self) -> Dict[str, Any]:
        """Aggregates and spans as one JSON-friendly mapping."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": [list(span) for span in self.spans],
            "dropped": self.dropped,
        }

    def merge(self, data: Dict[str, Any], op_id: int) -> None:
        """Fold a child process's :meth:`export` into this tracer.

        The child's root spans become children of the span that ended last
        here: the ``op`` span that started the child.
        """
        root = self._last_ended
        for name, value in data["self_s"].items():
            self.self_s[name] += value
        for name, value in data["calls"].items():
            self.calls[name] += value
        for name, value in data["counts"].items():
            self.counts[name] += value
        offset = self._next_index
        for name, start, end, parent, _op, index in data["spans"]:
            if len(self.spans) >= MAX_SPANS:
                self.dropped += 1
                continue
            self.spans.append(
                (name, start, end, parent + offset if parent >= 0 else root, op_id, index + offset)
            )
        self._next_index += max((span[5] for span in data["spans"]), default=-1) + 1
        self.dropped += data["dropped"]

    def write(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, index in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_call(
    tracer: Tracer,
    name: str,
    fn: Callable,
    on_result: Optional[Callable[..., None]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: one span per ``next()`` step."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        try:
            while True:
                tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end()
                yield item
        finally:
            iterator.close()

    return wrapper


class Patches:
    """Attribute replacements that are installed and undone together."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, cli: bool = False) -> Patches:
    """Wrap the public entry points of every ``repro`` layer the benchmark drives.

    ``cli`` additionally wraps the command-line module's render helpers
    (tables, charts, JSON payload) — only the ``paper-cli`` child process
    runs the CLI.
    """
    import json as json_module

    import repro.dse.engine as dse_engine
    import repro.runner.job as job_module
    import repro.session as session_module
    import repro.staticcheck as staticcheck_module
    from repro.accelerators.registry import AcceleratorSpec
    from repro.analysis.results import MultiComparison
    from repro.core import compiler as compiler_module
    from repro.core.compiler import GanaxLayerExecutor
    from repro.core.machine import GanaxMachine
    from repro.runner import BatchHandle, LayerMemoStore, SimulationJob, SimulationRunner
    from repro.session import Session

    patches = Patches()
    count = tracer.count

    # -- workloads: model resolution ---------------------------------------
    def on_resolve_one(_result, *_args, **_kwargs):
        count("workloads.resolved")

    def on_resolve_all(result, *_args, **_kwargs):
        count("workloads.resolved", len(result))

    for module in (session_module, dse_engine, job_module):
        for attr, hook in (("get_workload", on_resolve_one), ("all_workloads", on_resolve_all)):
            if attr in module.__dict__:
                patches.set(
                    module, attr, _wrap_call(tracer, "workloads", module.__dict__[attr], hook)
                )

    # -- runner: submission and draining ------------------------------------
    original_submit = SimulationRunner.__dict__["submit"]

    @functools.wraps(original_submit)
    def submit(self, jobs, *args, **kwargs):
        jobs = list(jobs)
        before = self.stats.as_dict()
        tracer.begin("runner")
        try:
            handle = original_submit(self, jobs, *args, **kwargs)
        finally:
            tracer.end()
        after = self.stats.as_dict()
        count("runner.jobs", len(jobs))
        count("runner.deduplicated", after["deduplicated"] - before["deduplicated"])
        count("runner.cache.hits", after["hits"] - before["hits"])
        count("runner.cache.lookups", after["hits"] + after["misses"] - before["hits"] - before["misses"])
        return handle

    patches.set(SimulationRunner, "submit", submit)
    patches.set(
        BatchHandle,
        "as_completed",
        _wrap_generator(tracer, "runner", BatchHandle.__dict__["as_completed"]),
    )
    patches.set(BatchHandle, "results", _wrap_call(tracer, "runner", BatchHandle.__dict__["results"]))

    # -- runner.job: one job's simulation -----------------------------------
    # The serial backend binds ``execute_job`` when its futures are built, so
    # traced runners take their backend from :func:`serial_backend_class`.
    tracer.execute_job = _wrap_call(tracer, "runner.job", job_module.execute_job)

    # -- layer memo ---------------------------------------------------------
    def on_get(result, *_args, **_kwargs):
        count("layer_memo.misses" if result is None else "layer_memo.hits")

    def on_put(_result, *_args, **_kwargs):
        count("layer_memo.stores")

    patches.set(LayerMemoStore, "get", _wrap_call(tracer, "layer_memo.get", LayerMemoStore.__dict__["get"], on_get))
    patches.set(LayerMemoStore, "put", _wrap_call(tracer, "layer_memo.put", LayerMemoStore.__dict__["put"], on_put))

    # -- analysis.serialization: layer fingerprints and job cache keys ------
    patches.set(
        job_module,
        "layer_fingerprint",
        _wrap_call(tracer, "analysis.fingerprint", job_module.layer_fingerprint),
    )
    cache_key = SimulationJob.__dict__["cache_key"]
    traced_key = functools.cached_property(
        _wrap_call(tracer, "analysis.fingerprint", cache_key.func)
    )
    traced_key.__set_name__(SimulationJob, "cache_key")
    patches.set(SimulationJob, "cache_key", traced_key)

    # -- accelerators: per-instance analytic estimators ---------------------
    original_create = AcceleratorSpec.__dict__["create"]

    @functools.wraps(original_create)
    def create(self, *args, **kwargs):
        simulator = original_create(self, *args, **kwargs)
        span = f"estimate.{self.name}"

        def on_layers(_result, bindings, *_args, **_kwargs):
            count(f"{span}.layers", len(bindings))

        simulator.simulate_layers = _wrap_call(
            tracer, span, simulator.simulate_layers, on_layers
        )
        return simulator

    patches.set(AcceleratorSpec, "create", create)

    # -- session and dse ----------------------------------------------------
    patches.set(Session, "compare", _wrap_call(tracer, "session", Session.__dict__["compare"]))

    def on_explore(result, *_args, **_kwargs):
        count("dse.points", len(result.evaluated))

    patches.set(Session, "explore", _wrap_call(tracer, "dse", Session.__dict__["explore"], on_explore))

    # -- core.compiler / schedule / isa: static compilation -----------------
    def on_compile(programs, *_args, **_kwargs):
        count("compiler.programs", len(programs))
        count("compiler.uops", sum(len(p.global_uops) for p in programs))

    patches.set(
        compiler_module,
        "compile_layer_programs",
        _wrap_call(tracer, "compiler", compiler_module.compile_layer_programs, on_compile),
    )

    # -- core.machine: cycle-level execution ---------------------------------
    def on_execution(execution, *_args, **_kwargs):
        count("machine.cycles", execution.cycles)
        count("machine.executed_pe_uops", execution.executed_pe_uops)

    for attr in ("run_transposed_conv", "run_conv"):
        patches.set(
            GanaxLayerExecutor,
            attr,
            _wrap_call(tracer, "executor", GanaxLayerExecutor.__dict__[attr], on_execution),
        )

    def on_machine_run(stats, *_args, **_kwargs):
        count("machine.stepped_cycles", stats.cycles)
        count("machine.pe_busy_cycles", stats.pe_busy_cycles)
        count("machine.pe_stall_cycles", stats.pe_stall_cycles)

    patches.set(GanaxMachine, "run", _wrap_call(tracer, "machine", GanaxMachine.__dict__["run"], on_machine_run))

    # -- staticcheck: the verifier --------------------------------------------
    def on_verify(findings, program, *_args, **_kwargs):
        count("staticcheck.uops", len(program.global_uops))
        count("staticcheck.findings", len(findings))

    patches.set(
        staticcheck_module,
        "verify_program",
        _wrap_call(tracer, "staticcheck", staticcheck_module.verify_program, on_verify),
    )

    # -- analysis / cli: rendering --------------------------------------------
    if cli:
        import repro.cli as cli_module

        patches.set(cli_module, "SerialBackend", serial_backend_class(tracer))
        for attr in ("format_table", "multi_comparison_chart", "multi_comparison_rows"):
            patches.set(cli_module, attr, _wrap_call(tracer, "render", cli_module.__dict__[attr]))
        patches.set(
            MultiComparison, "summary", _wrap_call(tracer, "render", MultiComparison.__dict__["summary"])
        )
        patches.set(json_module, "dump", _wrap_call(tracer, "render", json_module.__dict__["dump"]))
    return patches


def serial_backend_class(tracer: Optional[Tracer]) -> type:
    """The serial backend class; traced, its jobs run the wrapped ``execute_job``.

    The traced variant skips the backend's dispatch counters (a metrics
    registry update per batch), so that cost is absent from traced ops.
    """
    from repro.runner import DeferredJobFuture, SerialBackend

    if tracer is None:
        return SerialBackend

    class TracedSerialBackend(SerialBackend):
        def submit_jobs(self, jobs):
            return [DeferredJobFuture(job, tracer.execute_job) for job in jobs]

    return TracedSerialBackend
