"""Multi-dispatcher federation: sharding + work stealing behind one
logical Falkon.

Topology
--------
N :class:`~repro.live.dispatcher.LiveDispatcher` shards, each with its
own executors, journal and metrics, joined two ways:

* **Client side** — :class:`ShardRouter` speaks to every shard and
  routes each SUBMIT by consistent hash of the task id
  (:class:`HashRing`).  It retargets a bundle on SUBMIT_REJECT or a
  shard death, and its futures are exactly-once-visible: a task
  resubmitted to a survivor *and* completed by the recovering original
  shard settles the caller's future once (first result wins).

* **Shard side** — every shard holds an outbound :class:`PeerLink` to
  every other shard (a full mesh of directed links).  Links gossip
  queue depths over HEARTBEAT frames each monitor sweep; an idle shard
  steals a bounded batch of *queued* (never in-flight) tasks from the
  deepest fresh peer via STEAL_REQUEST / STEAL_GRANT.  Stolen tasks
  are journalled on the thief with their origin before first dispatch
  and settle on their first result — the donor keeps the retry budget
  and the DLQ, so every task has exactly one home shard.

:class:`LocalFederation` wires all of it up in-process (the unit-test
and scenario plane); :func:`shard_main` runs one shard as a standalone
process for ``repro shard`` / ``repro live --shards N``, where real
parallel speedup needs separate interpreters.
"""

from __future__ import annotations

import hashlib
import bisect
import os
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ProtocolError, ReconnectError
from repro.live.client import LiveClient, TaskFuture
from repro.live.dispatcher import LiveDispatcher, PEER_PREFIX
from repro.live.endpoint import Endpoint, EndpointLike
from repro.live.protocol import Connection
from repro.net.message import Message, MessageType
from repro.obs.stats import StatsSnapshot
from repro.types import TaskResult, TaskSpec

__all__ = [
    "HashRing",
    "PeerLink",
    "ShardRouter",
    "FederationStats",
    "aggregate_stats",
    "LocalFederation",
    "shard_main",
]


class HashRing:
    """Consistent hashing over shard labels (md5, virtual nodes).

    Deterministic: the same node list (any order) and the same key
    always map to the same owner, so every router instance and every
    test run agrees on task placement.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("HashRing nodes must be unique")
        self.nodes = list(nodes)
        points: list[tuple[int, str]] = []
        for node in nodes:
            for i in range(vnodes):
                points.append((self._hash(f"{node}#{i}"), node))
        points.sort()
        self._points = points
        self._keys = [p[0] for p in points]

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.md5(text.encode("utf-8")).digest()[:8], "big")

    def owner(self, key: str) -> str:
        """The node owning *key*."""
        idx = bisect.bisect(self._keys, self._hash(key)) % len(self._points)
        return self._points[idx][1]

    def preference(self, key: str) -> list[str]:
        """All nodes in fallback order for *key*: the owner first, then
        the remaining nodes walking the ring — the retarget order."""
        start = bisect.bisect(self._keys, self._hash(key)) % len(self._points)
        seen: list[str] = []
        for _, node in self._points[start:] + self._points[:start]:
            if node not in seen:
                seen.append(node)
            if len(seen) == len(self.nodes):
                break
        return seen


class PeerLink:
    """One directed shard-to-shard connection (thief side).

    The owning dispatcher gossips its queue depth over the link every
    monitor sweep and steals through it when starved.  The remote end
    sees a ``peer`` session and mirrors us as a ``peer:<id>``
    pseudo-executor.  Dials (and redials, with capped backoff) happen
    on a background thread so a dead peer never stalls the monitor.
    """

    def __init__(
        self,
        dispatcher: LiveDispatcher,
        shard_id: str,
        endpoint: Endpoint,
        key: Optional[bytes] = None,
        steal_timeout: float = 5.0,
        dial_backoff_cap: float = 2.0,
    ) -> None:
        self.dispatcher = dispatcher
        self.shard_id = shard_id  # the PEER's shard id
        self.endpoint = Endpoint.parse(endpoint)
        self.key = key
        self.steal_timeout = steal_timeout
        self.dial_backoff_cap = dial_backoff_cap
        self._lock = threading.Lock()
        self._conn: Optional[Connection] = None
        self._caps: tuple[str, ...] = ()
        self._dialing = False
        self._next_dial = 0.0
        self._dial_delay = 0.05
        self._outstanding_t: Optional[float] = None
        self._closed = False
        #: Steal traffic over this link (thief-side view).
        self.steals_requested = 0
        self.steals_received = 0

    # -- state ----------------------------------------------------------------
    @property
    def connected(self) -> bool:
        conn = self._conn
        return conn is not None and not conn.closed

    @property
    def ready(self) -> bool:
        """Connected *and* the peer advertised the "steal" capability
        in its gossip reply."""
        return self.connected and "steal" in self._caps

    # -- lifecycle -------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One monitor sweep's worth of link upkeep: redial when down,
        gossip when up, expire a stuck steal request."""
        if self._closed:
            return
        with self._lock:
            if (self._outstanding_t is not None
                    and now - self._outstanding_t > self.steal_timeout):
                self._outstanding_t = None  # the grant is lost; re-arm
            if self._conn is None or self._conn.closed:
                if self._dialing or now < self._next_dial:
                    return
                self._dialing = True
                dial = True
            else:
                dial = False
        if dial:
            threading.Thread(
                target=self._dial,
                name=f"peer-dial-{self.shard_id}",
                daemon=True,
            ).start()
            return
        self.gossip()

    def _dial(self) -> None:
        try:
            sock = socket.create_connection(self.endpoint.address, timeout=2.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = Connection(
                sock,
                handler=self._on_message,
                on_close=self._conn_closed,
                key=self.key,
                name=f"peer-{self.shard_id}",
            ).start()
        except OSError:
            with self._lock:
                self._dialing = False
                self._next_dial = (time.monotonic() + self._dial_delay)
                self._dial_delay = min(self._dial_delay * 2,
                                       self.dial_backoff_cap)
            return
        with self._lock:
            self._dialing = False
            self._dial_delay = 0.05
            if self._closed:
                conn.close()
                return
            self._conn = conn
        self.gossip()

    def _conn_closed(self) -> None:
        with self._lock:
            self._conn = None
            self._caps = ()
            self._outstanding_t = None
            self._next_dial = time.monotonic() + self._dial_delay

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    # -- traffic ---------------------------------------------------------------
    def _send(self, message: Message) -> bool:
        conn = self._conn
        if conn is None or conn.closed:
            return False
        try:
            conn.send(message)
        except ProtocolError:
            return False
        return True

    def gossip(self) -> None:
        """Advertise our depth; the reply refreshes the peer's."""
        self._send(self.dispatcher._gossip_message(rsvp=True))

    def maybe_steal(self, want: int) -> bool:
        """Request up to *want* tasks, one outstanding request at a
        time (the donor answers every request, even with an empty
        grant, which re-arms the flag)."""
        if want <= 0 or not self.ready:
            return False
        with self._lock:
            if self._outstanding_t is not None:
                return False
            self._outstanding_t = time.monotonic()
        sent = self._send(
            Message(MessageType.STEAL_REQUEST,
                    sender=f"shard:{self.dispatcher.shard_id}",
                    payload={"want": int(want)})
        )
        if sent:
            self.steals_requested += 1
        else:
            with self._lock:
                self._outstanding_t = None
        return sent

    def send_results(self, entries: list[dict]) -> bool:
        """Return settled stolen-task results to the donor; ``True``
        only when the frame left this process."""
        if not entries:
            return True
        return self._send(
            Message(MessageType.RESULT,
                    sender=f"shard:{self.dispatcher.shard_id}",
                    payload={"results": entries})
        )

    # -- inbound ---------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        # This runs on the shared loop; what touches the owning
        # dispatcher's state is posted to that dispatcher's loop.
        dispatcher = self.dispatcher
        if msg.type is MessageType.HEARTBEAT:
            shard = msg.payload.get("shard")
            if isinstance(shard, dict) and str(shard.get("id")) == self.shard_id:
                caps = tuple(c for c in (shard.get("caps") or ())
                             if isinstance(c, str))
                self._caps = caps
                dispatcher._post(
                    dispatcher._note_peer_depth, self.shard_id,
                    shard.get("stats") or {}, list(caps), shard.get("health"))
        elif msg.type is MessageType.STEAL_GRANT:
            with self._lock:
                self._outstanding_t = None
            tasks = msg.payload.get("tasks") or []
            if tasks:
                self.steals_received += 1
                dispatcher._post(dispatcher._ingest_stolen, self.shard_id, tasks)
        elif msg.type is MessageType.NOTIFY:
            # The donor NOTIFYed us as an idle pseudo-executor: it has
            # queued work.  Steal eagerly instead of waiting a sweep.
            dispatcher._post(dispatcher._steal_hint, self)
        # RESULT_ACK / NO_WORK / ERROR need no action here.

    def __repr__(self) -> str:
        state = "ready" if self.ready else ("up" if self.connected else "down")
        return f"<PeerLink ->{self.shard_id} {self.endpoint.url} {state}>"


class _RouterFuture(TaskFuture):
    """The router's exactly-once-visible wrapper future.

    Inner per-shard futures forward into it; the first settlement wins
    even when a resubmitted task completes on two shards.
    """


class ShardRouter:
    """A thin federated client: one facade over N shard dispatchers.

    Routes each task to its hash-owner shard; a rejected or failed
    bundle retargets along the ring (the survivor adopts the work).
    Implements the same :class:`~repro.api.FalkonClient` surface as
    :class:`~repro.live.client.LiveClient`.
    """

    def __init__(
        self,
        endpoints: Union[str, Iterable[EndpointLike]],
        key: Optional[bytes] = None,
        bundle_size: int = 300,
        down_ttl: float = 2.0,
        max_reconnects: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
    ) -> None:
        self.endpoints = Endpoint.parse_list(endpoints)
        if len({e.url for e in self.endpoints}) != len(self.endpoints):
            raise ValueError("duplicate shard endpoints")
        self.key = key
        self.bundle_size = bundle_size
        self.down_ttl = down_ttl
        self._client_kwargs = dict(
            bundle_size=bundle_size,
            max_reconnects=max_reconnects,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            # The router owns retarget policy: a SUBMIT_REJECT must
            # surface immediately so the bundle can move shards instead
            # of camping on a full queue.
            max_submit_retries=0,
        )
        self.ring = HashRing([e.url for e in self.endpoints])
        self._by_url = {e.url: e for e in self.endpoints}
        self._lock = threading.Lock()
        self._clients: dict[str, LiveClient] = {}
        self._down: dict[str, float] = {}  # url -> monotonic retry-at
        self._futures: dict[str, _RouterFuture] = {}
        self._specs: dict[str, TaskSpec] = {}
        self._owners: dict[str, str] = {}  # task id -> accepting shard url
        self._closed = False
        #: Bundles moved off their hash-owner shard (reject/failover).
        self.retargets = 0
        #: Tasks resubmitted to a survivor after a shard died under them.
        self.resubmits = 0

    # -- shard bookkeeping -----------------------------------------------------
    def _client(self, url: str) -> Optional[LiveClient]:
        with self._lock:
            client = self._clients.get(url)
        if client is not None:
            return client
        endpoint = self._by_url[url]
        try:
            client = LiveClient(endpoint, key=self.key,
                                **self._client_kwargs)
        except OSError:
            self._mark_down(url)
            return None
        with self._lock:
            existing = self._clients.get(url)
            if existing is not None:
                client.close()
                return existing
            self._clients[url] = client
        return client

    def _mark_down(self, url: str) -> None:
        with self._lock:
            self._down[url] = time.monotonic() + self.down_ttl
            # Drop the dead client so the next attempt redials fresh
            # (its reconnect loop may have given up for good).
            client = self._clients.pop(url, None)
        if client is not None:
            client.close()

    def _is_down(self, url: str) -> bool:
        with self._lock:
            retry_at = self._down.get(url)
            if retry_at is None:
                return False
            if time.monotonic() >= retry_at:
                del self._down[url]
                return False
            return True

    def owner(self, task_id: str) -> Optional[Endpoint]:
        """The shard that actually accepted *task_id* (after any
        retargeting), or ``None`` if unknown — the ``repro trace``
        resolver for federated runs."""
        with self._lock:
            url = self._owners.get(task_id)
        return self._by_url.get(url) if url else None

    # -- submission ------------------------------------------------------------
    def submit(self, tasks):
        """Submit one spec (returns its future) or a sequence (returns
        a list of futures, same order)."""
        if self._closed:
            raise RuntimeError("router is shut down")
        if isinstance(tasks, TaskSpec):
            return self._submit_many([tasks])[0]
        return self._submit_many(list(tasks))

    def _submit_many(self, specs: list[TaskSpec]) -> list[_RouterFuture]:
        if not specs:
            return []
        futures: list[_RouterFuture] = []
        with self._lock:
            seen: set[str] = set()
            for spec in specs:
                if spec.task_id in self._futures:
                    raise ValueError(
                        f"task id {spec.task_id!r} already submitted")
                if spec.task_id in seen:
                    raise ValueError(
                        f"duplicate task id {spec.task_id!r} in bundle")
                seen.add(spec.task_id)
            for spec in specs:
                future = _RouterFuture(spec.task_id)
                self._futures[spec.task_id] = future
                self._specs[spec.task_id] = spec
                futures.append(future)
        groups: dict[str, list[TaskSpec]] = {}
        for spec in specs:
            groups.setdefault(self.ring.owner(spec.task_id), []).append(spec)
        for url, group in groups.items():
            self._place(url, group)
        return futures

    def _place(self, primary_url: str, specs: list[TaskSpec]) -> None:
        """Land a bundle on its primary shard, walking the ring past
        rejecting/dead shards; all-shards-down fails the futures."""
        urls = [e.url for e in self.endpoints]
        start = urls.index(primary_url)
        order = urls[start:] + urls[:start]
        candidates = [u for u in order if not self._is_down(u)]
        # Desperation pass: every shard is marked down — try them all
        # anyway rather than failing without a single connection attempt.
        candidates += [u for u in order if u not in candidates]
        for attempt, url in enumerate(candidates):
            client = self._client(url)
            if client is None:
                continue
            try:
                inner = client.submit(list(specs))
            except ValueError:
                # A prior incarnation of a resubmitted id still lingers
                # as a done future on this client; clear and retry once.
                client.release_settled()
                try:
                    inner = client.submit(list(specs))
                except Exception:
                    self._mark_down(url)
                    continue
            except ReconnectError:
                self._mark_down(url)
                continue
            except (ProtocolError, OSError):
                # SUBMIT_REJECT (admission control) or a dying
                # connection — either way this shard is not taking the
                # bundle right now.
                self._mark_down(url)
                continue
            if attempt > 0:
                self.retargets += 1
            with self._lock:
                for spec in specs:
                    self._owners[spec.task_id] = url
            for spec, inner_future in zip(specs, inner):
                inner_future.add_done_callback(
                    self._forward(spec, inner_future))
            return
        error = ReconnectError(
            f"no shard accepted the bundle (tried {len(candidates)}): "
            + ",".join(e.url for e in self.endpoints)
        )
        for spec in specs:
            with self._lock:
                future = self._futures.get(spec.task_id)
            if future is not None:
                future._fail(error)

    def _forward(self, spec: TaskSpec, inner: TaskFuture):
        def done(_f) -> None:
            with self._lock:
                future = self._futures.get(spec.task_id)
            if future is None or future.done():
                return
            if inner._result is not None:
                future._fulfill(inner._result)
                return
            if inner.cancelled():
                future.cancel()
                return
            # The shard died under the task (ReconnectError after the
            # budget): resubmit to a survivor off this callback thread.
            # The original shard may still recover and complete the
            # task from its journal — the wrapper future's first-wins
            # rule keeps the caller's view exactly-once.
            self.resubmits += 1
            threading.Thread(
                target=self._resubmit, args=(spec,),
                name=f"router-resubmit-{spec.task_id}", daemon=True,
            ).start()

        return done

    def _resubmit(self, spec: TaskSpec) -> None:
        with self._lock:
            future = self._futures.get(spec.task_id)
            owner = self._owners.get(spec.task_id)
        if future is None or future.done() or self._closed:
            return
        if owner is not None:
            self._mark_down(owner)
        self._place(self.ring.owner(spec.task_id), [spec])

    # -- FalkonClient surface --------------------------------------------------
    def run(
        self, tasks: Iterable[TaskSpec], timeout: Optional[float] = None
    ) -> list[TaskResult]:
        """Submit and wait for every result, in task order."""
        futures = self._submit_many(list(tasks))
        return [f.result(timeout) for f in futures]

    def map(
        self, tasks: Iterable[TaskSpec], timeout: Optional[float] = None
    ) -> list[TaskResult]:
        """Alias of :meth:`run` (the FalkonClient protocol name)."""
        return self.run(tasks, timeout=timeout)

    def as_completed(
        self, futures: Iterable[TaskFuture], timeout: Optional[float] = None
    ) -> Iterator[TaskFuture]:
        from repro.api import as_completed

        return as_completed(futures, timeout=timeout)

    def release_settled(self) -> int:
        """Forget settled wrapper futures (and the per-shard ones)."""
        with self._lock:
            done = [tid for tid, f in self._futures.items() if f.done()]
            for tid in done:
                self._futures.pop(tid, None)
                self._specs.pop(tid, None)
                self._owners.pop(tid, None)
            clients = list(self._clients.values())
        for client in clients:
            client.release_settled()
        return len(done)

    def shutdown(self) -> None:
        self._closed = True
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()

    close = shutdown

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"<ShardRouter shards={len(self.endpoints)} "
                f"outstanding={len(self._futures)}>")


@dataclass(frozen=True)
class FederationStats(StatsSnapshot):
    """One consistent aggregate over all shards of a federation.

    Work stealing makes naive summation double-count: a stolen task is
    ``accepted`` on both its home shard (at SUBMIT) and the thief (at
    ingest), and settles on the thief while the donor also records the
    returned result.  The aggregation therefore subtracts the thief's
    share — ``accepted = Σ(accepted - stolen_in)``, ``completed =
    Σ(completed - stolen_completed)``, ``failed = Σ(failed -
    stolen_failed)`` — attributing every task to its home shard
    exactly once.  ``dlq_total`` sums cleanly: only home shards
    quarantine.
    """

    shards: int = 0
    queued: int = 0
    registered: int = 0
    accepted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    dlq_size: int = 0
    dlq_total: int = 0
    submit_rejects: int = 0
    stolen_tasks: int = 0
    steals_granted: int = 0


def aggregate_stats(per_shard: Sequence) -> FederationStats:
    """Fold per-shard :class:`DispatcherStats` into one
    :class:`FederationStats` (see its docstring for the math)."""
    agg = dict(shards=len(per_shard), queued=0, registered=0, accepted=0,
               completed=0, failed=0, retries=0, dlq_size=0, dlq_total=0,
               submit_rejects=0, stolen_tasks=0, steals_granted=0)
    for stats in per_shard:
        agg["queued"] += stats.queued
        agg["registered"] += stats.registered
        agg["accepted"] += stats.accepted - stats.stolen_in
        agg["completed"] += stats.completed - stats.stolen_completed
        agg["failed"] += stats.failed - stats.stolen_failed
        agg["retries"] += stats.retries
        agg["dlq_size"] += stats.dlq_size
        agg["dlq_total"] += stats.dlq_total
        agg["submit_rejects"] += stats.submit_rejects
        agg["stolen_tasks"] += stats.stolen_in
        agg["steals_granted"] += getattr(stats, "steals_granted", 0)
    return FederationStats(**agg)


class LocalFederation:
    """An in-process federation: N shards, their executor pools, the
    full peer mesh and a :class:`ShardRouter` — the federated
    equivalent of :class:`~repro.live.local.LocalFalkon`.

    In-process shards share the GIL, so this is the *correctness*
    plane (tests, scenarios, chaos); throughput scaling experiments
    use subprocess shards (``benchmarks/test_shard_scaling.py``).
    """

    def __init__(
        self,
        shards: int = 2,
        executors_per_shard: int = 2,
        key: Optional[bytes] = None,
        max_retries: int = 3,
        heartbeat_interval: Optional[float] = None,
        heartbeat_miss_budget: int = 3,
        replay_timeout: Optional[float] = None,
        monitor_interval: Optional[float] = None,
        python_registry=None,
        pipeline_depth: int = 1,
        bundle_size: int = 300,
        journal_root: Optional[str] = None,
        queue_limit: Optional[int] = None,
        http_port: Optional[int] = None,
        retain_settled: Optional[int] = None,
        flight: bool = True,
        flight_dir: Optional[str] = None,
        stall_after: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if executors_per_shard < 0:
            raise ValueError("executors_per_shard must be >= 0")
        self.key = key
        self.python_registry = python_registry or {}
        self.flight_dir = flight_dir
        self._kwargs = dict(
            max_retries=max_retries,
            heartbeat_interval=heartbeat_interval,
            heartbeat_miss_budget=heartbeat_miss_budget,
            replay_timeout=replay_timeout,
            monitor_interval=monitor_interval,
            queue_limit=queue_limit,
            retain_settled=retain_settled,
            flight=flight,
            flight_dump_dir=flight_dir,
            stall_after=stall_after,
        )
        self._executor_kwargs = dict(
            heartbeat_interval=heartbeat_interval,
            pipeline=pipeline_depth,
            flight=flight,
        )
        self.journal_root = journal_root
        self.executors_per_shard = executors_per_shard
        self.shard_ids = [f"s{i}" for i in range(shards)]
        self.dispatchers: dict[str, Optional[LiveDispatcher]] = {}
        self.executors: dict[str, list] = {s: [] for s in self.shard_ids}
        self.http = None
        for shard_id in self.shard_ids:
            self.dispatchers[shard_id] = self._start_dispatcher(shard_id)
        self._mesh()
        for shard_id in self.shard_ids:
            self._start_executors(shard_id)
        self.router = ShardRouter(
            [d.endpoint for d in self.dispatchers.values()],
            key=key, bundle_size=bundle_size,
        )
        if http_port is not None:
            first = self.dispatchers[self.shard_ids[0]]
            self.http = first.serve_http(
                port=http_port, registries_fn=self.metrics_registries,
                fleet_fn=self.fleet_snapshot)

    # -- wiring ----------------------------------------------------------------
    def _journal_dir(self, shard_id: str) -> Optional[str]:
        if self.journal_root is None:
            return None
        path = os.path.join(self.journal_root, shard_id)
        os.makedirs(path, exist_ok=True)
        return path

    def _start_dispatcher(self, shard_id: str, port: int = 0) -> LiveDispatcher:
        dispatcher = LiveDispatcher(
            port=port,
            key=self.key,
            shard_id=shard_id,
            journal_dir=self._journal_dir(shard_id),
            **self._kwargs,
        )
        dispatcher.trace_fallback = self._trace_fallback(shard_id)
        return dispatcher

    def _trace_fallback(self, shard_id: str):
        def fallback(task_id: str):
            for other_id, other in self.dispatchers.items():
                if other_id == shard_id or other is None:
                    continue
                chain = other.spans.chain(task_id)
                if chain:
                    return [span.to_dict() for span in chain]
            return None

        return fallback

    def _mesh(self) -> None:
        for a, dispatcher in self.dispatchers.items():
            if dispatcher is None:
                continue
            for b, other in self.dispatchers.items():
                if a != b and other is not None:
                    dispatcher.add_peer(b, other.endpoint)

    def _start_executors(self, shard_id: str) -> None:
        from repro.live.executor import LiveExecutor

        dispatcher = self.dispatchers[shard_id]
        assert dispatcher is not None
        pool = []
        for _ in range(self.executors_per_shard):
            executor = LiveExecutor(
                dispatcher.endpoint,
                key=self.key,
                python_registry=self.python_registry,
                **self._executor_kwargs,
            ).start()
            pool.append(executor)
        for executor in pool:
            executor.wait_registered()
        self.executors[shard_id] = pool

    # -- chaos / recovery ------------------------------------------------------
    def kill_shard(self, shard_id: str) -> None:
        """Die like ``kill -9``: unflushed journal window dropped, all
        sockets closed, no goodbyes.  Executors keep redialling the
        port and re-register (with their inflight echo) on restart."""
        dispatcher = self.dispatchers[shard_id]
        if dispatcher is None:
            return
        self._dead_ports = getattr(self, "_dead_ports", {})
        self._dead_ports[shard_id] = dispatcher.port
        dispatcher.simulate_crash()
        self.dispatchers[shard_id] = None

    def restart_shard(self, shard_id: str) -> LiveDispatcher:
        """Boot a fresh dispatcher on the dead shard's port + journal;
        peers' links redial it, and it re-joins the mesh itself."""
        if self.dispatchers.get(shard_id) is not None:
            raise RuntimeError(f"shard {shard_id} is still running")
        port = getattr(self, "_dead_ports", {}).get(shard_id)
        if port is None:
            raise RuntimeError(f"shard {shard_id} was never killed")
        dispatcher = self._start_dispatcher(shard_id, port=port)
        self.dispatchers[shard_id] = dispatcher
        for other_id, other in self.dispatchers.items():
            if other_id != shard_id and other is not None:
                dispatcher.add_peer(other_id, other.endpoint)
        return dispatcher

    # -- observability ---------------------------------------------------------
    def stats(self) -> FederationStats:
        per_shard = [d.stats() for d in self.dispatchers.values()
                     if d is not None]
        return aggregate_stats(per_shard)

    def shard_stats(self) -> dict:
        return {shard_id: (d.stats() if d is not None else None)
                for shard_id, d in self.dispatchers.items()}

    def trace(self, task_id: str):
        """The span chain from whichever shard holds it (steals move
        tasks across shards, so every shard is consulted)."""
        for dispatcher in self.dispatchers.values():
            if dispatcher is None:
                continue
            chain = dispatcher.trace(task_id)
            if chain:
                return chain
        return []

    def dlq_union(self) -> dict[str, dict]:
        """All quarantined tasks across shards (ids are disjoint:
        stolen tasks never DLQ on the thief)."""
        union: dict[str, dict] = {}
        for dispatcher in self.dispatchers.values():
            if dispatcher is None:
                continue
            for entry in dispatcher.dlq_list():
                union[entry["task_id"]] = entry
        return union

    def metrics_registries(self):
        registries = []
        for shard_id in self.shard_ids:
            dispatcher = self.dispatchers[shard_id]
            if dispatcher is not None:
                registries.append(dispatcher.metrics)
            registries.extend(e.metrics for e in self.executors[shard_id])
        return registries

    def fleet_snapshot(self) -> dict:
        """The ``GET /fleet`` payload: every shard's status, health and
        steal traffic merged into one document — fleet state in a
        single round trip instead of N ``/status`` scrapes.

        Dead shards appear with ``alive: false`` (their last state is
        whatever peers observed via gossip); the steal matrix is the
        thief-side view of every directed link.
        """
        shards: dict[str, dict] = {}
        steals: dict[str, dict] = {}
        for shard_id in self.shard_ids:
            dispatcher = self.dispatchers[shard_id]
            if dispatcher is None:
                shards[shard_id] = {"alive": False}
                continue
            status = dispatcher.status_snapshot()
            status["alive"] = True
            shards[shard_id] = status
            links = dict(dispatcher._peer_links)
            steals[shard_id] = {
                peer: {
                    "requested": link.steals_requested,
                    "received": link.steals_received,
                    "connected": link.connected,
                }
                for peer, link in links.items()
            }
        alive = sum(1 for s in shards.values() if s.get("alive"))
        degraded = sorted(
            shard_id for shard_id, s in shards.items()
            if s.get("alive") and (s.get("health") or {}).get("degraded")
        )
        return {
            "shards": shards,
            "aggregate": asdict(self.stats()),
            "steals": steals,
            "alive": alive,
            "total": len(self.shard_ids),
            "degraded_shards": degraded,
        }

    def dump_flight(self, directory: Optional[str] = None,
                    reason: str = "manual") -> list[str]:
        """Flush every live component's flight ring to *directory*
        (default: the federation's ``flight_dir``); returns the paths.

        A shard killed earlier already dumped at death (reason
        ``crash``) into the same directory, so after a chaos run the
        directory holds the full fleet story for ``repro doctor``.
        """
        paths: list[str] = []
        for shard_id in self.shard_ids:
            dispatcher = self.dispatchers[shard_id]
            if dispatcher is not None and dispatcher.flight.enabled:
                paths.append(dispatcher.dump_flight(
                    reason=reason, directory=directory))
            for executor in self.executors[shard_id]:
                if executor.flight.enabled:
                    target = directory
                    if target is None and dispatcher is not None:
                        target = dispatcher.flight_dump_directory()
                    if target is not None:
                        paths.append(executor.flight.dump_to_dir(
                            target, reason=reason))
        return paths

    # -- FalkonClient surface (delegated to the router) ------------------------
    def submit(self, tasks):
        return self.router.submit(tasks)

    def run(self, tasks, timeout: Optional[float] = None):
        return self.router.run(tasks, timeout=timeout)

    def map(self, tasks, timeout: Optional[float] = None):
        return self.router.map(tasks, timeout=timeout)

    def as_completed(self, futures, timeout: Optional[float] = None):
        return self.router.as_completed(futures, timeout=timeout)

    def shutdown(self) -> None:
        self.close()

    def close(self) -> None:
        self.router.shutdown()
        for pool in self.executors.values():
            for executor in pool:
                executor.stop()
        for pool in self.executors.values():
            for executor in pool:
                executor.join(timeout=5.0)
        for shard_id, dispatcher in self.dispatchers.items():
            if dispatcher is not None:
                dispatcher.close()
                self.dispatchers[shard_id] = None

    def __enter__(self) -> "LocalFederation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for d in self.dispatchers.values() if d is not None)
        return f"<LocalFederation shards={alive}/{len(self.shard_ids)}>"


def shard_main(
    shard_id: str,
    port: int,
    peers: dict[str, EndpointLike],
    executors: int = 2,
    pipeline: int = 1,
    key: Optional[bytes] = None,
    stop_event: Optional[threading.Event] = None,
    ready_line: bool = True,
    **dispatcher_kwargs,
) -> None:
    """Run one federation shard as a (sub)process: dispatcher +
    executor pool + peer links, until *stop_event* (or EOF on stdin
    when embedded under ``repro shard`` / the bench harness).

    ``peers`` maps sibling shard ids to their endpoints; every shard
    process gets the full mesh map and dials its own links.

    When run in a process's main thread, SIGTERM flushes the shard's
    flight recorder (reason ``sigterm``) before shutting down, so an
    orchestrator's polite kill still leaves post-mortem evidence.
    """
    import signal
    import sys

    from repro.live.executor import LiveExecutor

    dispatcher = LiveDispatcher(port=port, key=key, shard_id=shard_id,
                                **dispatcher_kwargs)

    def _on_sigterm(signum, frame) -> None:
        if dispatcher.flight.enabled:
            try:
                dispatcher.dump_flight(reason="sigterm")
            except OSError:
                pass
        if stop_event is not None:
            stop_event.set()
        else:
            raise SystemExit(143)  # finally-blocks run: clean teardown

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # embedded in a non-main thread: no signal plumbing

    pool = []
    try:
        for peer_id, endpoint in peers.items():
            dispatcher.add_peer(peer_id, Endpoint.parse(endpoint))
        for _ in range(executors):
            pool.append(
                LiveExecutor(dispatcher.endpoint, key=key, pipeline=pipeline).start()
            )
        for executor in pool:
            executor.wait_registered()
        if ready_line:
            # The parent (bench/CLI) waits for this before routing.
            print(f"READY {shard_id} {dispatcher.endpoint.url}", flush=True)
        if stop_event is not None:
            stop_event.wait()
        else:
            # Parent-lifetime coupling: the parent closing our stdin
            # (or dying, which closes the pipe) shuts the shard down.
            for _ in sys.stdin:
                pass
    finally:
        for executor in pool:
            executor.stop()
        for executor in pool:
            executor.join(timeout=5.0)
        dispatcher.close()
