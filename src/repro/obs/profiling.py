"""All-thread cProfile harness for `scripts/task_cpu_census.py --profile`.

``cProfile`` instruments one thread, but the live plane's hot path
runs on IOLoop selector threads and executor workers — a main-thread
profile of a run shows nothing but waiting.  This module installs
a bootstrap hook via :func:`threading.setprofile` that, on the first
profile event of every newly started thread, swaps itself for a
dedicated per-thread C profiler.  At the end the per-thread profiles
are merged into one :class:`pstats.Stats`.

Accuracy notes: threads already running when the block is entered are
not captured (start the workload inside the block), and profiles are
merged after the workload's threads have stopped, so numbers are
flushed and stable.  Expect the usual cProfile slowdown (~1.5-2x on
this codebase); relative ranking of frames is what matters.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["profile_all_threads"]


@contextmanager
def profile_all_threads() -> Iterator[Callable[..., pstats.Stats]]:
    """Profile the calling thread plus every thread started inside the
    block.

    Yields a zero-argument callable that merges all per-thread
    profiles into a single :class:`pstats.Stats`.  Call it only after
    the profiled threads have finished (or at least gone idle): a
    thread that is still executing keeps appending to its profile
    while the merge walks it.
    """
    profiles: list[cProfile.Profile] = []
    lock = threading.Lock()

    def bootstrap(frame, event, arg) -> None:
        # First profile event on a brand-new thread: replace this
        # slow pure-Python hook with a per-thread C profiler.
        prof = cProfile.Profile()
        with lock:
            profiles.append(prof)
        sys.setprofile(None)
        prof.enable()

    main = cProfile.Profile()
    with lock:
        profiles.append(main)
    threading.setprofile(bootstrap)
    main.enable()
    try:
        yield lambda: _merge(profiles)
    finally:
        main.disable()
        threading.setprofile(None)


def _merge(profiles: list[cProfile.Profile]) -> pstats.Stats:
    stats: Optional[pstats.Stats] = None
    for prof in profiles:
        try:
            prof.create_stats()
        except (TypeError, ValueError):  # pragma: no cover - empty profile
            continue
        if stats is None:
            stats = pstats.Stats(prof, stream=io.StringIO())
        else:
            stats.add(prof)
    if stats is None:  # pragma: no cover - main profile always exists
        stats = pstats.Stats(cProfile.Profile(), stream=io.StringIO())
    return stats


def print_top(stats: pstats.Stats, limit: int = 20) -> str:
    """Format the top *limit* frames by cumulative time as a string."""
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats("cumulative").print_stats(limit)
    return out.getvalue()
