"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
rendered report is printed (run pytest with ``-s`` to see it inline) so the
benchmark run doubles as the textual regeneration of the evaluation section;
the same reports are available via ``repro-experiments`` and
``examples/paper_evaluation.py``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import pytest

from repro.experiments.base import ExperimentContext


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """One shared experiment context (models + simulator runs) per session."""
    return ExperimentContext()


def emit(report: str) -> None:
    """Print a rendered report so `pytest -s` shows the regenerated artefact."""
    print()
    print(report)


def interleaved_rounds(
    sides: Mapping[str, Callable[[], Any]], rounds: int
) -> Tuple[Dict[str, List[float]], Dict[str, Any]]:
    """Time every side once per round, rotating which side runs first.

    Running the sides back to back in one block lets host drift (frequency
    steps, a noisy neighbour) land on one side only; interleaving them and
    rotating the order spreads it over both.  Returns each side's wall times
    in round order and its last result.
    """
    names = list(sides)
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    results: Dict[str, Any] = {}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            results[name] = sides[name]()
            seconds[name].append(time.perf_counter() - start)
    return seconds, results


def median_ratio(numerator: Sequence[float], denominator: Sequence[float]) -> float:
    """Median of the per-round ratios ``numerator[i] / denominator[i]``."""
    return statistics.median(n / d for n, d in zip(numerator, denominator))
