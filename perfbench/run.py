"""Benchmark entry point for the GANAX reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` as a closed loop with one client on
the serial backend, checks every op's output, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the run measures pairs of untraced and traced ops on the
same input, and the metrics are the per-layer ones taken from the traced
ops' spans (written to ``perfbench/out/``), plus the tracing overhead.

``setup_s`` is the median of several set-ups: this process's own and
:data:`SETUP_PROBES` fresh interpreters that run ``--setup-probe`` first.

Other flags: ``--short`` runs a few ops and no probes (for ``selftest.py``);
``--corrupt`` perturbs one expected value after the warm-up op, so every op
must then fail its check.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Extra set-ups, each in a fresh interpreter, behind the median ``setup_s``.
SETUP_PROBES = 2
#: A full run keeps going past ``--seconds`` until it has this many ops, so
#: the tail percentile has ten ops beyond it.
MIN_OPS = 11
#: Ops per workload (and per traced/untraced half) in ``--short`` mode.
SHORT_OPS = 3
#: No run measures longer than this, whatever ``MIN_OPS`` asks for.
MAX_MEASURE_S = 120.0
ACCELERATORS = ("eyeriss", "ganax", "ganax-noskip", "ideal")


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    ok: bool
    work: object = None


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-probe", action="store_true")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up and one op
# ----------------------------------------------------------------------
def set_up(name: str, seed: int):
    """Import ``repro``, resolve the workload, run its set-up and a warm-up op."""
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    try:
        workload = workloads.WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload '{name}'; known: {', '.join(workloads.WORKLOADS)}")
    workload.setup()
    warm_up = run_op(workload, None)
    if not warm_up.ok:
        raise RuntimeError("the warm-up op failed its check")
    return workload, import_s


def run_op(workload, tracer, item=None) -> OpRecord:
    """prepare (untimed, unless ``item`` is given) -> op (timed) -> check (untimed)."""
    from tracing import install
    from workloads import CheckFailure

    if item is None:
        item = workload.prepare()
    patches = None
    if tracer is not None:
        tracer.op_id += 1
        if workload.in_process:
            patches = install(tracer)
        tracer.begin("op")
    start = time.perf_counter()
    try:
        output = workload.op(item, tracer)
    except Exception:  # an op that raises is a failed op, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return OpRecord(time.perf_counter() - start, tracer is not None, False)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
            if patches is not None:
                patches.undo()
    try:
        work = workload.check(item, output, tracer)
    except (CheckFailure, KeyError, ValueError, OSError) as exc:
        print(f"{workload.name}: op failed its check: {exc}", file=sys.stderr)
        return OpRecord(seconds, tracer is not None, False)
    return OpRecord(seconds, tracer is not None, True, work)


def measure(workload, seconds: float, trace: bool, short: bool):
    """Closed loop: ops back to back for ``seconds``.

    A traced run measures pairs of ops on the same input, one untraced and
    one traced, and alternates which of the two runs first.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    records: List[OpRecord] = []
    start = time.perf_counter()
    wanted = SHORT_OPS * (2 if trace else 1)
    while True:
        elapsed = time.perf_counter() - start
        if short:
            if len(records) >= wanted:
                break
        elif elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and len(records) >= MIN_OPS * (2 if trace else 1)
        ):
            break
        if not trace:
            records.append(run_op(workload, None))
            continue
        item = workload.prepare()
        order = (None, tracer) if len(records) % 4 == 0 else (tracer, None)
        for side in order:
            records.append(run_op(workload, side, item))
    return records, tracer


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(times: List[float]):
    """Highest nearest-rank percentile with at least ten ops beyond it.

    Returns ``(value, percentile, samples)``; with ten ops or fewer no such
    percentile exists and the maximum is reported at the 100th.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, records, setup_samples) -> Dict[str, float]:
    ok = [r for r in records if r.ok]
    if not ok:
        raise RuntimeError("no op passed its check; no metric can be measured")
    times = [r.seconds for r in ok]
    op_seconds = sum(times)
    works = [r.work for r in ok]
    uop_seconds = sum(w.uop_seconds if w.uop_seconds is not None else r.seconds for w, r in zip(works, ok))
    cycle_seconds = sum(
        w.cycle_seconds if w.cycle_seconds is not None else r.seconds for w, r in zip(works, ok)
    )
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "layers_per_s": sum(w.layers for w in works) / op_seconds,
        "uops_per_s": sum(w.uops for w in works) / uop_seconds,
        "sim_cycles_per_s": sum(w.sim_cycles for w in works) / cycle_seconds,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    metrics.update(workload.fidelity())
    return metrics


def per_layer(workload, records, tracer, import_s: float) -> Dict[str, float]:
    traced = [r for r in records if r.traced and r.ok]
    untraced = [r for r in records if not r.traced and r.ok]
    if not traced or not untraced:
        raise RuntimeError("the traced run needs passing traced and untraced ops")
    ops = len(traced)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per_op(name: str) -> float:
        return counts.get(name, 0) / ops

    def us(span: str, denominator: float) -> float:
        return 1e6 * self_s.get(span, 0.0) / denominator if denominator else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    if workload.in_process:
        import_repro_s, import_cli_s = import_s, 0.0
    else:
        import_repro_s = statistics.median(r["import_repro_s"] for r in workload.imports)
        import_cli_s = statistics.median(r["import_cli_s"] for r in workload.imports)
    hits, misses = counts.get("layer_memo.hits", 0), counts.get("layer_memo.misses", 0)
    busy = counts.get("machine.pe_busy_cycles", 0)
    metrics = {
        "import.repro_s": import_repro_s,
        "import.cli_s": import_cli_s,
        "workloads.resolve_us": us("workloads", calls.get("workloads", 0)),
        "workloads.resolved": per_op("workloads.resolved"),
        "runner.submit_us_per_job": us("runner", counts.get("runner.jobs", 0)),
        "runner.jobs": per_op("runner.jobs"),
        "runner.deduplicated": per_op("runner.deduplicated"),
        "runner.cache.hit_ratio": ratio(
            counts.get("runner.cache.hits", 0), counts.get("runner.cache.lookups", 0)
        ),
        "runner.execute_job_us": us("runner.job", calls.get("runner.job", 0)),
        "layer_memo.get_us": us("layer_memo.get", calls.get("layer_memo.get", 0)),
        "layer_memo.hits": hits / ops,
        "layer_memo.misses": misses / ops,
        "layer_memo.hit_ratio": ratio(hits, hits + misses),
        "layer_memo.put_us": us("layer_memo.put", calls.get("layer_memo.put", 0)),
        "layer_memo.stores": per_op("layer_memo.stores"),
        "analysis.fingerprint_us": us(
            "analysis.fingerprint", calls.get("analysis.fingerprint", 0)
        ),
        "analysis.render_s": self_s.get("render", 0.0) / ops,
        "dse.explore_self_s": self_s.get("dse", 0.0) / ops,
        "dse.points": per_op("dse.points"),
        "compiler.us_per_program": us("compiler", counts.get("compiler.programs", 0)),
        "compiler.uops": per_op("compiler.uops"),
        "staticcheck.us_per_uop": us("staticcheck", counts.get("staticcheck.uops", 0)),
        "staticcheck.findings": per_op("staticcheck.findings"),
        "machine.host_us_per_cycle": us("machine", counts.get("machine.stepped_cycles", 0)),
        "machine.cycles": per_op("machine.cycles"),
        "machine.pe_occupancy": ratio(busy, busy + counts.get("machine.pe_stall_cycles", 0)),
        "machine.executed_pe_uops": per_op("machine.executed_pe_uops"),
        "trace.overhead_s": statistics.median(r.seconds for r in traced)
        - statistics.median(r.seconds for r in untraced),
    }
    for accelerator in ACCELERATORS:
        metrics[f"estimate.us_per_layer.{accelerator}"] = us(
            f"estimate.{accelerator}", counts.get(f"estimate.{accelerator}.layers", 0)
        )
    metrics.update(workload.reference.model_metrics())
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def probe_setup(args) -> float:
    """One set-up in a fresh interpreter; returns its ``setup_s``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    if args.setup_probe:
        workload, _ = set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - _START
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probes = [] if args.short or args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_start = time.perf_counter() if probes else _START
    workload, import_s = set_up(args.workload, args.seed)
    setup_samples = probes + [time.perf_counter() - setup_start]
    try:
        if args.corrupt:
            workload.corrupt()
        records, tracer = measure(workload, args.seconds, bool(args.trace), args.short)
        failed = sum(not r.ok for r in records)
        if args.corrupt and failed:
            # Every op failed as it must; there is nothing left to measure.
            values, wanted = {}, []
        elif args.trace:
            values = per_layer(workload, records, tracer, import_s)
            wanted = spec["per_layer"]
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
            print(f"# spans: {len(tracer.spans)} kept, {tracer.dropped} dropped -> {spans}")
        else:
            values = end_to_end(workload, records, setup_samples)
            wanted = spec["end_to_end"]
    finally:
        workload.close()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    ok_times = [r.seconds for r in records if r.ok and not r.traced]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# ops attempted {len(records)}  failed {failed}  "
          f"failed_ops_frac {failed / len(records):.6g}")
    if ok_times and not args.trace:
        _, percentile, samples = tail(ok_times)
        print(f"# op_tail_s is p{percentile:.1f} of {samples} ops")
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    for name, entry in metrics.items():
        print(f"# {name:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
