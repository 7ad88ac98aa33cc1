"""The live plane: a real Falkon over TCP on this machine.

The same architecture as :mod:`repro.core`, implemented with threads
and sockets instead of simulated time:

* :mod:`repro.live.protocol` — framed-JSON connections (HMAC-signed in
  the GSI-stand-in security mode) plus task/result serialisation.
* :mod:`repro.live.dispatcher` — the dispatcher server: factory/
  instance client sessions, executor registry, FIFO queue, hybrid
  push/pull dispatch, piggy-backed acknowledgements, retries.
* :mod:`repro.live.executor` — an executor that registers, pulls work
  and runs it as a subprocess or a registered Python callable.
* :mod:`repro.live.client` — client API with bundled submission and
  result futures.
* :mod:`repro.live.provisioner` — spawns/retires local executor
  threads as queue depth changes (the adaptive provisioner, scaled to
  one machine).
* :mod:`repro.live.local` — :class:`LocalFalkon`, a one-line in-process
  deployment for the examples.
* :mod:`repro.live.faults` — seeded fault injection (drop/delay/
  duplicate/corrupt/kill) for deterministic failure-path testing.
* :mod:`repro.live.journal` — the dispatcher's crash-safe write-ahead
  journal (CRC-per-record JSONL, group commit, snapshot compaction)
  and restart recovery (``docs/RELIABILITY.md``).
* :mod:`repro.live.endpoint` — :class:`Endpoint`, the typed
  ``falkon://host:port`` address used across the live plane.
* :mod:`repro.live.federation` — multi-dispatcher federation: the
  consistent-hash :class:`ShardRouter` facade, shard-to-shard work
  stealing and :class:`LocalFederation` for in-process
  multi-shard deployments (``docs/API.md``).
"""

from repro.live.protocol import (
    Connection,
    task_to_dict,
    task_from_dict,
    result_to_dict,
    result_from_dict,
)
from repro.live.faults import FaultAction, FaultPlan, FaultyConnection
from repro.live.journal import Journal, RecoveredState, RecoveredTask, recover
from repro.live.endpoint import Endpoint, as_endpoint
from repro.live.dispatcher import LiveDispatcher
from repro.live.executor import LiveExecutor
from repro.live.client import LiveClient, TaskFuture
from repro.live.provisioner import LocalProvisioner
from repro.live.local import LocalFalkon
from repro.live.federation import (
    FederationStats,
    HashRing,
    LocalFederation,
    ShardRouter,
    aggregate_stats,
)

__all__ = [
    "Connection",
    "task_to_dict",
    "task_from_dict",
    "result_to_dict",
    "result_from_dict",
    "FaultAction",
    "FaultPlan",
    "FaultyConnection",
    "Journal",
    "RecoveredState",
    "RecoveredTask",
    "recover",
    "LiveDispatcher",
    "LiveExecutor",
    "LiveClient",
    "TaskFuture",
    "LocalProvisioner",
    "LocalFalkon",
    "Endpoint",
    "as_endpoint",
    "HashRing",
    "ShardRouter",
    "FederationStats",
    "aggregate_stats",
    "LocalFederation",
]
