"""Profiling hook: cProfile around a block.

:func:`profile_to` is a context manager running the block under
:mod:`cProfile` and dumping pstats to a path; load the dump with
``python -m pstats`` or ``snakeviz``.  Profiling is always explicit and
scoped — there is no ambient profiler to forget running.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

PathLike = Union[str, Path]


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
