"""Cycle-level machine benchmarks: GANAX dataflow vs the dense dataflow.

These benchmarks execute the paper's running example (4x4 input, 5x5 filter,
stride 2) on the cycle-level machine with and without zero skipping, verifying
the functional result against NumPy and measuring the simulation cost.  The
PE-level operation counts quantify the microarchitectural benefit of the
reorganized dataflow independent of the analytical model.  A larger layer
(16x16 input, 4x4 filter, stride 2 on 8x4 PEs) reports the machine's cycle
count and host time per machine cycle; that report has no timing bound.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest
from conftest import emit

from repro.analysis.report import format_key_values
from repro.core.compiler import GanaxLayerExecutor
from repro.core.machine import GanaxMachine
from repro.nn.functional import transposed_conv2d

_RNG = np.random.default_rng(2018)
_X = _RNG.standard_normal((4, 4))
_W = _RNG.standard_normal((5, 5))
_REFERENCE = transposed_conv2d(_X[None], _W[None, None], stride=2, padding=2)[0]
_X16 = _RNG.standard_normal((16, 16))
_W4 = _RNG.standard_normal((4, 4))
_REFERENCE16 = transposed_conv2d(_X16[None], _W4[None, None], stride=2, padding=1)[0]


def _run_ganax():
    executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
    return executor.run_transposed_conv(_X, _W, stride=2, padding=2)


def _run_dense():
    executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=5, skip_zeros=False)
    return executor.run_transposed_conv(_X, _W, stride=2, padding=2)


def _run_large():
    executor = GanaxLayerExecutor(num_pvs=8, pes_per_pv=4, skip_zeros=True)
    return executor.run_transposed_conv(_X16, _W4, stride=2, padding=1)


def test_machine_ganax_dataflow(benchmark):
    """Cycle-level execution with zero skipping and row reorganization."""
    result = benchmark(_run_ganax)
    np.testing.assert_allclose(result.output, _REFERENCE, atol=1e-9)


def test_machine_dense_dataflow(benchmark):
    """Cycle-level execution of the conventional dense dataflow."""
    result = benchmark(_run_dense)
    np.testing.assert_allclose(result.output, _REFERENCE, atol=1e-9)


def test_machine_zero_skipping_ratio(benchmark):
    """Measure the PE-operation reduction of the GANAX dataflow."""

    def compare():
        ganax = _run_ganax()
        dense = _run_dense()
        return ganax, dense

    ganax, dense = benchmark.pedantic(compare, iterations=1, rounds=1)
    ratio = dense.executed_pe_uops / ganax.executed_pe_uops
    assert ratio > 1.5  # the example's inconsequential fraction is ~55-75%
    emit(
        format_key_values(
            "Cycle-level machine: dense vs GANAX dataflow (paper running example)",
            {
                "GANAX PE µops": ganax.executed_pe_uops,
                "Dense PE µops": dense.executed_pe_uops,
                "PE-operation reduction": f"{ratio:.2f}x",
                "GANAX machine cycles": ganax.cycles,
                "Dense machine cycles": dense.cycles,
            },
        )
    )


def test_machine_host_cost(monkeypatch):
    """Machine cycles and host µs per machine cycle (reported, not bounded)."""
    spent = []
    original_run = GanaxMachine.run

    def timed_run(self, *args, **kwargs):
        start = time.perf_counter()
        stats = original_run(self, *args, **kwargs)
        spent.append((time.perf_counter() - start, stats.cycles))
        return stats

    monkeypatch.setattr(GanaxMachine, "run", timed_run)
    report = {}
    for label, run, reference in (
        ("running example, GANAX (2x4 PEs)", _run_ganax, _REFERENCE),
        ("running example, dense (2x5 PEs)", _run_dense, _REFERENCE),
        ("16x16 K4/s2 tconv, GANAX (8x4 PEs)", _run_large, _REFERENCE16),
    ):
        per_cycle = []
        for _ in range(5):
            spent.clear()
            result = run()
            seconds = sum(s for s, _ in spent)
            per_cycle.append(1e6 * seconds / sum(c for _, c in spent))
        np.testing.assert_allclose(result.output, reference, atol=1e-9)
        report[f"{label}: cycles"] = result.cycles
        report[f"{label}: host µs/cycle"] = f"{statistics.median(per_cycle):.2f}"
    emit(format_key_values("Cycle-level machine: cycles and host cost per cycle", report))
