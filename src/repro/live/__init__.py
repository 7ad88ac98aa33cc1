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

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.live.protocol": ("Connection", "task_to_dict", "task_from_dict",
                            "result_to_dict", "result_from_dict"),
    "repro.live.faults": ("FaultAction", "FaultPlan", "FaultyConnection"),
    "repro.live.journal": ("Journal", "RecoveredState", "RecoveredTask",
                           "recover"),
    "repro.live.endpoint": ("Endpoint", "as_endpoint"),
    "repro.live.dispatcher": ("LiveDispatcher",),
    "repro.live.executor": ("LiveExecutor",),
    "repro.live.client": ("LiveClient", "TaskFuture"),
    "repro.live.provisioner": ("LocalProvisioner",),
    "repro.live.local": ("LocalFalkon",),
    "repro.live.federation": ("FederationStats", "HashRing",
                              "LocalFederation", "ShardRouter",
                              "aggregate_stats"),
})
