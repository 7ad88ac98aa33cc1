"""Frozen, typed stats snapshots for the live plane.

These replace the stringly-keyed ``stats()`` dicts: every component
returns a frozen dataclass whose fields are the contract;
:meth:`StatsSnapshot.as_dict` is the wire/JSON representation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

__all__ = ["StatsSnapshot", "DispatcherStats", "ExecutorStats", "ProvisionerStats"]


@dataclass(frozen=True)
class StatsSnapshot:
    """Base class: dataclass fields plus dict conversion both ways."""

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (the wire representation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StatsSnapshot":
        """Build from a wire dict, ignoring unknown keys and
        defaulting missing ones."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class DispatcherStats(StatsSnapshot):
    """One consistent snapshot of a live dispatcher.

    The provisioner's {POLL} reply is ``as_dict()`` of this; the
    latency fields are registry-derived percentiles in seconds.
    """

    queued: int = 0
    registered: int = 0
    busy: int = 0
    idle: int = 0
    accepted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    executors_declared_dead: int = 0
    reconnects: int = 0
    stale_results: int = 0
    frames_dropped: int = 0
    #: Admission control: SUBMIT bundles refused with SUBMIT_REJECT.
    submit_rejects: int = 0
    #: Poison-task quarantine: current size and lifetime admissions.
    dlq_size: int = 0
    dlq_total: int = 0
    #: Crash recovery: tasks rebuilt from the journal at boot, and
    #: dispatched tasks adopted from executors' REGISTER inflight echo.
    recovered: int = 0
    inflight_adopted: int = 0
    #: Federation: work-stealing traffic.  ``stolen_in``
    #: tasks were accepted from peers (and count in ``accepted``);
    #: ``stolen_completed``/``stolen_failed`` settled here on a peer's
    #: behalf (and count in ``completed``/``failed``).  Aggregators
    #: subtract them so a stolen task is attributed to its home shard
    #: exactly once; all four are 0 on single-shard deployments.
    stolen_in: int = 0
    stolen_out: int = 0
    stolen_completed: int = 0
    stolen_failed: int = 0
    #: STEAL_REQUESTs this shard answered with a non-empty grant.
    steals_granted: int = 0
    #: Journal records appended this incarnation (0 = journal off).
    journal_records: int = 0
    dispatch_latency_p50: float = math.nan
    dispatch_latency_p90: float = math.nan
    dispatch_latency_p99: float = math.nan
    #: Thread-CPU seconds spent inside each message handler (keyed by
    #: message type: ``submit``, ``result``, ``heartbeat``, ...) and in
    #: the ``sweep`` timer — which layer is burning the loop's CPU.
    handler_cpu_s: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutorStats(StatsSnapshot):
    """Snapshot of one live executor agent."""

    executor_id: str = ""
    tasks_executed: int = 0
    reconnects: int = 0
    exec_seconds_p50: float = math.nan
    exec_seconds_p99: float = math.nan


@dataclass(frozen=True)
class ProvisionerStats(StatsSnapshot):
    """Snapshot of the local adaptive provisioner."""

    pool_size: int = 0
    max_executors: int = 0
    allocations: int = 0
    reconnects: int = 0
    polls: int = 0
