"""Profiling hooks: timed regions into histograms, cProfile around blocks.

Two small, composable tools — deliberately thin wrappers so any layer can
adopt them without new dependencies:

* :func:`timed` — a context manager observing the block's wall time into a
  registry histogram (no-op when metrics are disabled), so a call site
  records a ``*_seconds`` histogram without hand-rolled clock arithmetic.
* :func:`profile_to` — a context manager running the block under
  :mod:`cProfile` and dumping pstats to a path; load the dump with
  ``python -m pstats`` or ``snakeviz``.  Profiling is always explicit and
  scoped — there is no ambient profiler to forget running.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from .metrics import Histogram, get_metrics

PathLike = Union[str, Path]


@contextmanager
def timed(name: str, **labels: Any) -> Iterator[None]:
    """Observe the block's duration (seconds) into histogram ``name``.

    Resolves the registry at entry, so a block running while metrics are
    disabled costs one ``None`` check and nothing else.
    """
    registry = get_metrics()
    if registry is None:
        yield
        return
    histogram: Histogram = registry.histogram(name, **labels)
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start)


@contextmanager
def profile_to(path: PathLike, enabled: bool = True) -> Iterator[Optional[cProfile.Profile]]:
    """Run the block under cProfile, dumping pstats to ``path`` on exit.

    ``enabled=False`` turns the whole thing into a no-op yield, so call
    sites can thread a flag through without branching themselves.  The
    profile object is yielded for in-process inspection before the dump.
    """
    if not enabled:
        yield None
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        profile.dump_stats(str(path))
