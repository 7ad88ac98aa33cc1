"""The live provisioner: adaptive executor pool on one machine.

The §4.6 provisioner, scaled to a single host: it polls the dispatcher
with STATUS messages {POLL}, and when queued work exceeds the pool's
capacity it "allocates" more executors — here, local threads standing
in for GRAM4/PBS-provisioned nodes.  Release is distributed: executors
carry an ``idle_timeout`` and retire themselves (§3.1).
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.live.endpoint import EndpointLike, as_endpoint
from repro.live.executor import LiveExecutor
from repro.live.protocol import RECONNECT_ATTEMPTS, Connection, backoff
from repro.net.message import Message, MessageType
from repro.obs import DispatcherStats, MetricsRegistry, ProvisionerStats

__all__ = ["LocalProvisioner"]

#: Seconds between two STATUS polls {POLL}.
POLL_INTERVAL = 0.5


class LocalProvisioner:
    """Grows/shrinks a pool of :class:`LiveExecutor` threads."""

    def __init__(
        self,
        address: "EndpointLike",
        key: Optional[bytes] = None,
        max_executors: int = 4,
        idle_timeout: float = 60.0,
        executor_factory: Optional[Callable[..., LiveExecutor]] = None,
    ) -> None:
        if max_executors < 0:
            raise ValueError("max_executors must be >= 0")
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        #: The dispatcher's address as an :class:`Endpoint` (accepts a
        #: ``falkon://host:port`` / ``host:port`` string; the legacy
        #: tuple spelling is gone).
        self.endpoint = as_endpoint(address, owner="LocalProvisioner")
        self.key = key
        self.max_executors = max_executors
        self.idle_timeout = idle_timeout
        self.executor_factory = executor_factory or self._default_factory
        self.metrics = MetricsRegistry(prefix="provisioner")
        self._m_allocations = self.metrics.counter(
            "allocations", help="Executors allocated into the pool")
        self._m_reconnects = self.metrics.counter(
            "reconnects", help="Dispatcher poll connections re-established")
        self._m_polls = self.metrics.counter(
            "polls", help="STATUS polls answered by the dispatcher")
        self.metrics.gauge("pool_size", help="Live executors owned",
                           fn=lambda: len(self._pool))
        self._pool: list[LiveExecutor] = []
        self._replies: "queue.Queue[dict]" = queue.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="provisioner", daemon=True)
        self._conn: Optional[Connection] = None

    def _default_factory(self, **kwargs) -> LiveExecutor:
        return LiveExecutor(self.endpoint, key=self.key, **kwargs)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "LocalProvisioner":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop provisioning and retire the whole pool."""
        self._stop.set()
        if self._conn is not None:
            self._conn.close()
        for executor in self._pool:
            executor.stop()
        for executor in self._pool:
            executor.join(timeout=5.0)

    @property
    def pool_size(self) -> int:
        """Live executors currently owned by this provisioner."""
        self._reap()
        return len(self._pool)

    # Back-compat read views over the registry counters.
    @property
    def allocations(self) -> int:
        return self._m_allocations.value

    @property
    def reconnects(self) -> int:
        return self._m_reconnects.value

    def stats(self) -> ProvisionerStats:
        """Typed snapshot of the adaptive pool."""
        return ProvisionerStats(
            pool_size=self.pool_size,
            max_executors=self.max_executors,
            allocations=self._m_allocations.value,
            reconnects=self._m_reconnects.value,
            polls=self._m_polls.value,
        )

    # -- internals -------------------------------------------------------------
    def _reap(self) -> None:
        self._pool = [e for e in self._pool if e.running]

    def _dial(self) -> Optional[Connection]:
        try:
            return Connection.dial(self.endpoint, self._on_message,
                                   key=self.key, name="provisioner",
                                   timeout=10.0)
        except OSError:
            return None

    def _reconnect(self) -> bool:
        """Re-dial the dispatcher on the shared backoff schedule."""
        for delay in backoff(RECONNECT_ATTEMPTS):
            if self._stop.wait(delay):
                return False
            conn = self._dial()
            if conn is not None:
                self._conn = conn
                self._m_reconnects.inc()
                return True
        return False

    def _run(self) -> None:
        self._conn = self._dial()
        if self._conn is None:
            return
        while not self._stop.is_set():
            stats = self._poll()
            if stats is None:
                if self._conn is not None:
                    self._conn.close()
                if not self._reconnect():
                    break
                continue
            self._reap()
            demand = stats.queued + stats.busy
            target = min(self.max_executors, demand)
            if target > len(self._pool):
                self._scale_to(target)
            self._stop.wait(POLL_INTERVAL)

    def _poll(self) -> Optional[DispatcherStats]:
        # The poll piggy-backs this provisioner's own stats (same
        # pattern as heartbeat-carried executor stats) — the
        # dispatcher's telemetry plane sees pool size and allocation
        # churn without any extra frame.
        stats_payload = {
            "stats": {
                "pool_size": len(self._pool),
                "allocations": self._m_allocations.value,
                "polls": self._m_polls.value,
                "reconnects": self._m_reconnects.value,
            }
        }
        try:
            self._conn.send(Message(MessageType.STATUS, sender="provisioner",
                                    payload=stats_payload))
            payload = self._replies.get(timeout=5.0)
        except Exception:
            return None
        self._m_polls.inc()
        return DispatcherStats.from_dict(payload)

    def _on_message(self, msg: Message) -> None:
        if msg.type is MessageType.STATUS_REPLY:
            self._replies.put(msg.payload)

    def _scale_to(self, target: int) -> None:
        while len(self._pool) < target and not self._stop.is_set():
            executor = self.executor_factory(idle_timeout=self.idle_timeout)
            executor.start()
            self._pool.append(executor)
            self._m_allocations.inc()

    def __repr__(self) -> str:
        return f"<LocalProvisioner pool={len(self._pool)}/{self.max_executors}>"
