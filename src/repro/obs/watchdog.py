"""Stall watchdogs: turn silent wedges into explicit degraded signals.

The live plane's failure modes that *don't* close a socket are the
hard ones: an IOLoop thread starved by a blocking handler, a queue
that stops draining next to idle executors, a journal flusher wedged
on a dying disk.  Each gets a cheap probe here; the dispatcher's
watchdog timer evaluates them and surfaces the verdicts as registry
gauges plus ``degraded`` reason strings on ``/healthz``.

Design rules:

* Probes never block; they read plain attributes (GIL-atomic)
  written by the component being watched.
* A watchdog that can false-positive is worse than none: the stall
  detector suppresses the paused-but-empty queue (depth 0) and the
  sleep-heavy workload (all executors busy) — see
  :meth:`StallDetector.observe`.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["StallDetector", "WatchdogPanel"]


class StallDetector:
    """Queue-progress stall detection: depth > 0, idle capacity, and
    zero dispatches for ``stall_after`` seconds.

    ``observe`` is fed by the dispatcher's watchdog timer with three
    plain numbers: current queue depth, a monotonically increasing
    dispatch-progress counter, and the number of idle executors.  The
    timer resets whenever any of these excuses the silence:

    * **depth == 0** — nothing to dispatch (a paused or empty queue
      is not a stall);
    * **idle == 0** — nowhere to dispatch to (a sleep-heavy workload
      keeping every executor busy is backpressure, not a stall);
    * **progress moved** — dispatches are happening.

    Only "work waiting, workers idle, nothing moving" trips it.  Idle
    executors are pushed work, so no lost frame produces that (a lost
    WORK leaves its task dispatched, for the replay timer); a wake that
    never runs does — the signature of a wedged dispatcher loop.
    """

    def __init__(self, stall_after: float = 5.0) -> None:
        if stall_after <= 0:
            raise ValueError("stall_after must be positive")
        self.stall_after = stall_after
        self._last_progress: Optional[int] = None
        self._quiet_since: Optional[float] = None
        #: Seconds the current stall has lasted (0.0 when healthy);
        #: exported as the ``queue_stall_seconds`` gauge.
        self.stalled_for = 0.0

    def observe(self, now: float, depth: int, progress: int,
                idle: int) -> Optional[str]:
        """One sweep's verdict: a reason string, or ``None`` if healthy."""
        if depth <= 0 or idle <= 0 or progress != self._last_progress:
            self._last_progress = progress
            self._quiet_since = now
            self.stalled_for = 0.0
            return None
        quiet = now - (self._quiet_since if self._quiet_since is not None else now)
        if quiet < self.stall_after:
            return None
        self.stalled_for = quiet
        return (f"queue stalled: {depth} queued, {idle} idle executors, "
                f"no dispatch for {quiet:.1f}s")

    def reset(self) -> None:
        self._last_progress = None
        self._quiet_since = None
        self.stalled_for = 0.0


class WatchdogPanel:
    """Named health checks evaluated together into a reasons list.

    Each check is a zero-argument callable returning a degraded-reason
    string or ``None``.  A check that raises is itself reported as
    degraded (a broken probe must not silently read as healthy).
    """

    def __init__(self) -> None:
        self._checks: dict[str, Callable[[], Optional[str]]] = {}

    def add(self, name: str, check: Callable[[], Optional[str]]) -> None:
        self._checks[name] = check

    def names(self) -> list[str]:
        return list(self._checks)

    def reasons(self) -> list[str]:
        out = []
        for name, check in self._checks.items():
            try:
                reason = check()
            except Exception as exc:
                reason = f"watchdog {name!r} failed: {type(exc).__name__}: {exc}"
            if reason:
                out.append(reason)
        return out
