"""Benchmark of the telemetry layer's overhead budgets.

Runs the six-GAN (eyeriss, ganax) comparison grid on fresh serial runners in
two telemetry states and enforces the observability contract.  Both caching
tiers are disabled for the timed grids: a cache-served replay finishes in a
couple of milliseconds, which is a degenerate denominator — the budgets are
fractions of *real simulation work*, the regime where overhead matters.

* **disabled hooks are near-free** — with metrics and tracing both off,
  every instrumented call site degrades to one ``is None`` check.  A
  micro-benchmark times a generous over-estimate of the grid's hook
  crossings through the real disabled path and requires the total to stay
  under **2%** of the dark grid's wall time;
* **full telemetry is cheap** — with metrics *and* tracing on (the most
  expensive configuration: every job allocates spans, every layer-memo
  lookup updates counters), the grid must stay within **10%** of the dark
  grid's wall time;
* **telemetry never perturbs the physics** — the full-telemetry grid's
  results equal the dark grid's results value-for-value.

The three configurations run in interleaved rounds with a rotating order,
and each budget gates on the median of its per-round ratios to the dark
grid.
"""

from __future__ import annotations

import statistics

from conftest import emit, interleaved_rounds, median_ratio

from repro.analysis.report import format_table
from repro.runner import (
    SerialBackend,
    SimulationJob,
    SimulationRunner,
    configure_layer_memo,
)
from repro.telemetry import (
    configure_metrics,
    configure_tracing,
    get_metrics,
    get_tracer,
)
from repro.workloads.registry import all_workloads

#: Maximum tolerated full-telemetry wall time, as a fraction of dark time.
MAX_FULL_TELEMETRY_OVERHEAD = 1.10

#: Maximum tolerated disabled-hook cost, as a fraction of dark time.
MAX_DISABLED_OVERHEAD = 0.02

#: Hook crossings budgeted per grid run in the disabled micro-benchmark.
#: With both caching tiers off the grid crosses instrumented sites ~100
#: times (per-job events, span guards and dispatch hooks for twelve jobs);
#: 300 is a 3x over-estimate.
DISABLED_HOOK_CALLS = 300

#: Interleaved rounds; each gate reads the median of the paired ratios.
ROUNDS = 41


def grid_jobs():
    return [
        job
        for model in all_workloads()
        for job in SimulationJob.comparison_pair(model)
    ]


def run_grid():
    # use_cache=False: every round simulates for real instead of replaying
    # the first round's results out of the content-addressed cache.
    runner = SimulationRunner(backend=SerialBackend(), use_cache=False)
    try:
        return runner.run_jobs(grid_jobs())
    finally:
        runner.close()


def dark_grid():
    configure_metrics(enabled=False)
    configure_tracing(enabled=False)
    return run_grid()


def disabled_hook_storm(calls=DISABLED_HOOK_CALLS):
    """The guard an instrumented call site runs when telemetry is off.

    Each site checks one registry (metrics *or* tracing, not both), so one
    iteration here is one real crossing; the tracer guard is asserted once
    outside the loop.  Switching telemetry off first is timed too, which
    only over-counts the cost.
    """
    configure_metrics(enabled=False)
    configure_tracing(enabled=False)
    if get_tracer() is not None:  # pragma: no cover - telemetry is off
        raise AssertionError("tracing unexpectedly enabled")
    for _ in range(calls):
        if get_metrics() is not None:  # pragma: no cover - telemetry is off
            raise AssertionError("metrics unexpectedly enabled")


def full_grid():
    """The grid with metrics and a fresh tracer on; returns what they saw."""
    registry = configure_metrics()
    tracer = configure_tracing()
    return run_grid(), tracer, registry


def test_telemetry_overhead_within_budget(benchmark):
    """Disabled hooks <= 2% of dark time; full telemetry <= 10%."""
    try:
        configure_layer_memo(enabled=False)
        dark_grid()  # warm the shape-grain lru caches before any timing
        seconds, results = benchmark.pedantic(
            lambda: interleaved_rounds(
                {"dark": dark_grid, "disabled": disabled_hook_storm, "full": full_grid},
                ROUNDS,
            ),
            iterations=1,
            rounds=1,
        )
        dark_seconds = seconds["dark"]

        disabled_fraction = median_ratio(seconds["disabled"], dark_seconds)
        assert disabled_fraction <= MAX_DISABLED_OVERHEAD, (
            f"{DISABLED_HOOK_CALLS} disabled hook crossings cost "
            f"{100 * disabled_fraction:.2f}% of the dark grid; budget is "
            f"{100 * MAX_DISABLED_OVERHEAD:.0f}%"
        )

        full_results, tracer, registry = results["full"]
        # Telemetry observes the simulation; it must not change it.
        assert full_results == results["dark"]
        # ...and it really was on: spans and counters were recorded.
        assert tracer.finished_spans()
        assert registry.counter_value("runner.jobs.scheduled") > 0

        overhead = median_ratio(seconds["full"], dark_seconds)
        assert overhead <= MAX_FULL_TELEMETRY_OVERHEAD, (
            f"full telemetry took {overhead:.2f}x the dark grid; "
            f"budget is {MAX_FULL_TELEMETRY_OVERHEAD:.2f}x"
        )

        jobs = len(grid_jobs())
        emit(
            format_table(
                ["Configuration", "Median wall time (ms)", "Median paired ratio"],
                [
                    ["telemetry off", 1e3 * statistics.median(dark_seconds), 1.0],
                    [
                        f"disabled hooks x{DISABLED_HOOK_CALLS}",
                        1e3 * statistics.median(seconds["disabled"]),
                        disabled_fraction,
                    ],
                    [
                        "metrics + tracing",
                        1e3 * statistics.median(seconds["full"]),
                        overhead,
                    ],
                ],
                title=(
                    f"Telemetry overhead: {jobs}-job six-GAN grid (serial, "
                    f"{ROUNDS} interleaved rounds)"
                ),
                float_format="{:.3f}",
            )
        )
    finally:
        # leave the process in the default state for whatever runs next
        configure_metrics()
        configure_tracing(enabled=False)
        configure_layer_memo()
