"""Multi-dispatcher federation: sharding + work stealing behind one
logical Falkon.

Topology
--------
N :class:`~repro.live.dispatcher.LiveDispatcher` shards, each with its
own executors, journal and metrics, joined two ways:

* **Client side** — :class:`ShardRouter` speaks to every shard and
  routes each SUBMIT by consistent hash of the task id
  (:class:`HashRing`).  A bundle its owner refuses (SUBMIT_REJECT) or
  cannot take (a dead shard) moves to the next shard in endpoint-list
  order after the owner, wrapping around.  Its futures are
  exactly-once-visible: a task resubmitted to a survivor *and*
  completed by the recovering original shard settles the caller's
  future once (first result wins).

* **Shard side** — a dispatcher built with a ``shard_id`` builds one
  :class:`_ShardPlane`, the only code that speaks the shard-to-shard
  protocol, and keeps one :class:`PeerLink` record per peer shard: its
  depth gossip, the outbound link this shard dials to it (a full mesh
  of directed links), and its inbound pseudo-executor session.  Links
  gossip queue depths over HEARTBEAT frames each sweep; an idle shard
  steals a bounded batch of *queued* (never in-flight) tasks from the
  deepest fresh peer via STEAL_REQUEST / STEAL_GRANT.  Stolen tasks
  are journalled on the thief with their origin before first dispatch
  and settle on their first result — the donor keeps the retry budget
  and the DLQ, so every task has exactly one home shard.  All of it
  runs on the dispatcher's loop, the links' connections included;
  only a link's connect runs on a short-lived thread, so a dead peer
  never stalls the loop.

:class:`LocalFederation` wires all of it up in-process (the unit-test
and scenario plane); :func:`shard_main` runs one shard as a standalone
process for ``repro shard`` / ``repro live --shards N``, where real
parallel speedup needs separate interpreters.
"""

from __future__ import annotations

import hashlib
import bisect
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ProtocolError, ReconnectError
from repro.live.client import LiveClient, TaskFuture
from repro.live.dispatcher import (
    PEER_PREFIX,
    LiveDispatcher,
    _ExecutorSession,
    _LiveRecord,
    _notify_payload,
)
from repro.live.endpoint import Endpoint, EndpointLike
from repro.live.protocol import (
    RECONNECT_BASE,
    Connection,
    backoff,
    result_to_dict,
    spec_task_id,
)
from repro.net.message import Message, MessageType
from repro.net.wire import encode_message_v4
from repro.obs import flight as fl
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

#: Seconds a peer link waits for a STEAL_GRANT before re-arming.
STEAL_TIMEOUT = 5.0
#: Seconds the router skips a shard it saw fail before dialling it again.
DOWN_TTL = 2.0
#: Ignore gossiped peer depths older than this many seconds when
#: choosing a steal victim — a stale depth must not trigger a raid on
#: a shard that already drained.
PEER_DEPTH_TTL = 2.0
#: Most tasks one STEAL_GRANT may hand over.
STEAL_BATCH_MAX = 32
#: Queue depth below which a shard neither grants steals nor raids
#: peers (the last few tasks are cheaper run locally than shipped).
STEAL_MIN_QUEUE = 2


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


class PeerLink:
    """One peer shard as this shard sees it — the plane's one record
    per peer, on the dispatcher's loop:

    * gossip: the peer's last queue depth, capabilities and health,
      and when it arrived (``seen``; ``None`` before the first and once
      its inbound session is lost);
    * session: its ``peer:<id>`` pseudo-executor, while it holds a
      link to us;
    * link: the outbound connection this shard gossips over and steals
      through, once ``add_peer`` named the endpoint.  A short-lived
      thread only connects (redials follow :func:`backoff`) and hands
      the connection to the loop, where it lives.
    """

    def __init__(self, plane: "_ShardPlane", shard_id: str,
                 endpoint: Optional[Endpoint] = None) -> None:
        self.plane = plane
        self.shard_id = shard_id  # the PEER's shard id
        #: Its pseudo-executor id on a donor and pseudo-client id on a
        #: thief, as spans, flight events and the journal write it.
        self.identity = PEER_PREFIX + shard_id
        self.endpoint = endpoint
        self.queued = 0
        self.caps: tuple[str, ...] = ()
        self.health: Optional[dict] = None
        self.seen: Optional[float] = None
        self.session: Optional[_ExecutorSession] = None
        self._conn: Optional[Connection] = None
        self._dialing = False
        self._next_dial = 0.0
        self._dial_delays = backoff(None)
        self._outstanding_t: Optional[float] = None
        #: Steal traffic over the link (thief-side view).
        self.steals_requested = 0
        self.steals_received = 0

    @property
    def connected(self) -> bool:
        conn = self._conn
        return conn is not None and not conn.closed

    @property
    def ready(self) -> bool:
        """Connected *and* the peer advertised the "steal" capability
        in its gossip."""
        return self.connected and "steal" in self.caps

    def note(self, shard: dict) -> None:
        """Take one gossip frame's ``shard`` object.  Health rides the
        gossip so ``/fleet`` can report a shard's last observed
        degradation even after the shard itself dies."""
        try:
            queued = int((shard.get("stats") or {}).get("queued", 0))
        except (AttributeError, TypeError, ValueError):
            queued = 0
        self.queued = max(0, queued)
        self.caps = tuple(c for c in (shard.get("caps") or ())
                          if isinstance(c, str))
        health = shard.get("health")
        self.health = health if isinstance(health, dict) else None
        self.seen = self.plane.dispatcher._loop.now()

    # -- the link ----------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One sweep's link upkeep: expire a stuck steal request,
        gossip when up, redial when down."""
        if (self._outstanding_t is not None
                and now - self._outstanding_t > STEAL_TIMEOUT):
            self._outstanding_t = None  # the grant is lost; re-arm
        if self.connected:
            self.gossip()
        elif (self.endpoint is not None and not self._dialing
              and now >= self._next_dial):
            self._dialing = True
            threading.Thread(target=self._dial, name=f"peer-dial-{self.shard_id}",
                             daemon=True).start()

    def _dial(self) -> None:
        """The dial thread: connect onto the dispatcher's loop, then
        hand the connection (or the failure) to that loop."""
        dispatcher = self.plane.dispatcher
        try:
            conn = Connection.dial(self.endpoint, self._on_message,
                                   on_close=self._conn_closed, key=dispatcher.key,
                                   name=f"peer-{self.shard_id}", timeout=2.0,
                                   loop=dispatcher._loop)
        except OSError:
            conn = None
        if conn is not None and self.plane.closed:
            conn.close()  # the dispatcher closed while we dialled
        else:
            dispatcher._loop.call_soon(lambda: self._dialed(conn))

    def _dialed(self, conn: Optional[Connection]) -> None:
        self._dialing = False
        if conn is None:
            self._next_dial = (self.plane.dispatcher._loop.now()
                               + next(self._dial_delays))
        elif self.plane.closed:
            conn.close()
        else:
            self._conn = conn
            self._dial_delays = backoff(None)
            self.gossip()

    def _conn_closed(self) -> None:
        self._conn = None
        self._outstanding_t = None
        self._next_dial = self.plane.dispatcher._loop.now() + RECONNECT_BASE

    def close(self) -> None:
        conn = self._conn
        if conn is not None:
            conn.close()

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
        self._send(self.plane.gossip_message(rsvp=True))

    def maybe_steal(self, want: int) -> None:
        """Request up to *want* tasks, one outstanding request at a
        time (the donor answers every request, even with an empty
        grant, which re-arms the flag)."""
        if want <= 0 or not self.ready or self._outstanding_t is not None:
            return
        self._outstanding_t = self.plane.dispatcher._loop.now()
        if self._send(Message(MessageType.STEAL_REQUEST, sender=self.plane.sender,
                              payload={"want": int(want)})):
            self.steals_requested += 1
        else:
            self._outstanding_t = None

    def send_results(self, entries: list[dict]) -> bool:
        """Return settled stolen-task results to the donor; ``True``
        only when the frame left this process."""
        return self._send(Message(MessageType.RESULT, sender=self.plane.sender,
                                  payload={"results": entries}))

    def _on_message(self, msg: Message) -> None:
        # An inbound frame on the link, on the dispatcher's loop.
        if msg.type is MessageType.HEARTBEAT:
            shard = msg.payload.get("shard")
            if isinstance(shard, dict) and str(shard.get("id")) == self.shard_id:
                self.note(shard)
        elif msg.type is MessageType.STEAL_GRANT:
            self._outstanding_t = None
            tasks = msg.payload.get("tasks") or []
            if tasks:
                self.steals_received += 1
                self.plane.ingest(self.shard_id, tasks)
        elif msg.type is MessageType.NOTIFY:
            # The donor NOTIFYed us as an idle pseudo-executor: it has
            # queued work.  Steal now if starved, not a sweep later.
            self.maybe_steal(self.plane.want())
        # RESULT_ACK / NO_WORK / ERROR need no action here.

    def __repr__(self) -> str:
        state = "ready" if self.ready else ("up" if self.connected else "down")
        url = self.endpoint.url if self.endpoint is not None else "inbound"
        return f"<PeerLink ->{self.shard_id} {url} {state}>"


class _ShardPlane:
    """The shard side of a federation: what a dispatcher with a
    ``shard_id`` does for its peers — gossip, the steal grant (donor),
    steal ingest and results home (thief), the steal tick and hint —
    over one :class:`PeerLink` per peer.  Its dispatcher calls it on
    its loop (``status``, ``gossiping`` and ``close`` from any
    thread).  It keeps no task state: stolen work goes through the
    dispatcher's own transitions.
    """

    def __init__(self, dispatcher: LiveDispatcher) -> None:
        self.dispatcher = dispatcher
        #: One record per peer shard, by identity (``peer:<id>``).
        self.peers: dict[str, PeerLink] = {}
        self.sender = f"shard:{dispatcher.shard_id}"
        self.closed = False
        # NOTIFY carries no state: one frame, encoded and signed once,
        # sent to every idle peer shard as its steal hint.
        self._notify = encode_message_v4(
            Message(MessageType.NOTIFY, sender="dispatcher"), key=dispatcher.key)

    def _peer(self, shard_id: str) -> PeerLink:
        peer = self.peers.get(PEER_PREFIX + shard_id)
        if peer is None:
            peer = PeerLink(self, shard_id)
            self.peers[peer.identity] = peer
        return peer

    def add_peer(self, shard_id: str, endpoint: Endpoint) -> None:
        """Name a peer's endpoint: the next tick dials it."""
        peer = self._peer(shard_id)
        if peer.endpoint is None:
            peer.endpoint = endpoint

    def close(self) -> None:
        self.closed = True
        for peer in list(self.peers.values()):
            peer.close()

    # -- gossip ------------------------------------------------------------------
    def gossip_message(self, rsvp: bool) -> Message:
        """Our side of the depth gossip, as a HEARTBEAT frame."""
        degraded = self.dispatcher._degraded
        payload: dict = {"shard": {
            "id": self.dispatcher.shard_id,
            "caps": ["steal"],
            "stats": {"queued": len(self.dispatcher._queue)},
            "health": {"status": "degraded" if degraded else "ok",
                       "degraded": list(degraded)},
        }}
        if rsvp:
            # Ask the receiver for its gossip in return.  Replies never
            # set it, so gossip cannot ping-pong forever.
            payload["rsvp"] = True
        return Message(MessageType.HEARTBEAT, sender="dispatcher", payload=payload)

    def on_gossip(self, session, msg: Message) -> bool:
        """Take a HEARTBEAT on an inbound session if it is a peer
        shard's gossip (it carries a ``shard`` object).

        The first one on a session is its REGISTER: the session becomes
        a ``peer`` and the peer a pseudo-executor, so stolen-out tasks
        reuse the executor machinery (busy accounting, in-flight replay
        on drop, liveness eviction).
        """
        shard = msg.payload.get("shard")
        role = session.role
        if (not isinstance(shard, dict) or not shard.get("id")
                or (role is not None and role[0] != "peer")):
            return False
        shard_id = str(shard["id"])
        if shard_id == self.dispatcher.shard_id:
            return True
        peer = self._peer(shard_id)
        if role is None:
            session.role = ("peer", peer.identity)
        elif role[1] != peer.identity:
            return True  # a session cannot change shard identity mid-stream
        self._session(peer, session.conn)
        self.dispatcher.flight.record(fl.GOSSIP, shard_id)
        peer.note(shard)
        if msg.payload.get("rsvp"):
            session.conn.send(self.gossip_message(rsvp=False))
        return True

    def _session(self, peer: PeerLink, conn: Connection) -> _ExecutorSession:
        """The peer's pseudo-executor on *conn*, registered on demand."""
        executor = peer.session
        if executor is not None and executor.conn is conn:
            return executor
        dispatcher = self.dispatcher
        # A reconnecting peer supersedes its old (likely half-open)
        # session; its in-flight stolen-out tasks replay here.
        dispatcher._drop_executor(peer.identity, reason="peer-reconnect")
        executor = _ExecutorSession(peer.identity, conn, pipeline=STEAL_BATCH_MAX)
        executor.peer = True
        executor.last_seen = dispatcher._loop.now()
        dispatcher._executors[peer.identity] = executor
        peer.session = executor
        return executor

    def session_lost(self, executor: _ExecutorSession) -> None:
        """The peer's pseudo-executor left the table: its gossip is no
        longer a steal target, nor a live peer on ``/status``."""
        peer = self.peers[executor.executor_id]
        peer.session = None
        peer.seen = None

    # -- stealing ------------------------------------------------------------------
    def _spare(self) -> int:
        """Spare slots on real (non-peer) executors."""
        return sum(e.capacity() for e in self.dispatcher._executors.values()
                   if not e.peer)

    def want(self) -> int:
        """What a steal could put to work right now: nothing while
        tasks are queued here, else the spare slots (one grant's
        worth at most)."""
        if self.dispatcher._queue:
            return 0
        return min(self._spare(), STEAL_BATCH_MAX)

    def tick(self, now: float) -> None:
        """The sweep's federation duties: link upkeep and gossip, then
        a steal from the deepest peer with fresh gossip when this shard
        is starved (empty queue, spare executor capacity)."""
        if self.closed:
            return
        for peer in self.peers.values():
            peer.tick(now)
        want = self.want()
        if want <= 0:
            return
        depth_floor = max(1, STEAL_MIN_QUEUE)
        victims = [peer for peer in self.peers.values()
                   if peer.ready and peer.queued >= depth_floor
                   and peer.seen is not None
                   and now - peer.seen <= PEER_DEPTH_TTL]  # never on stale gossip
        if victims:
            max(victims, key=lambda peer: peer.queued).maybe_steal(want)

    def hint(self, executor: _ExecutorSession) -> None:
        """The steal hint to an idle peer's pseudo-executor (the shared
        NOTIFY bytes), once until the sweep re-arms it."""
        executor.notified = True
        dispatcher = self.dispatcher
        dispatcher.flight.record(fl.FRAME_TX, "NOTIFY", executor=executor.executor_id)
        try:
            executor.conn.send_encoded(self._notify)
        except Exception:
            dispatcher._drop_executor(executor.executor_id, only_conn=executor.conn)

    def on_steal_request(self, session, msg: Message) -> None:
        """Donor side: grant queued (never in-flight) tasks to an idle
        peer, bounded by our own surplus."""
        role = session.role
        if role is None or role[0] != "peer":
            return
        dispatcher = self.dispatcher
        peer = self.peers[role[1]]
        executor = self._session(peer, session.conn)
        dispatcher.flight.record(fl.STEAL_REQUEST, peer.shard_id)
        try:
            want = int(msg.payload.get("want", 0))
        except (TypeError, ValueError):
            want = 0
        # Keep enough queued work to feed our own idle capacity (plus
        # the floor); only the surplus travels.
        grant = min(want, STEAL_BATCH_MAX,
                    len(dispatcher._queue) - max(self._spare(), STEAL_MIN_QUEUE))
        granted = dispatcher._claim_many(executor, grant, "steal") if grant > 0 else []
        # An empty grant still goes out: it clears the thief's
        # outstanding-request flag so it can try another peer.  The
        # attempt echo: the thief returns it with each result, so a
        # donor-side replay in the meantime makes the late result stale
        # instead of double-settling.
        session.conn.send(Message(
            MessageType.STEAL_GRANT, sender="dispatcher",
            payload={"shard": dispatcher.shard_id,
                     "tasks": [{"task": record.spec_dict, "attempt": record.attempts}
                               for record in granted]}))
        dispatcher._mark_delivered_many(granted, executor)
        if granted:
            dispatcher._m_steals_granted.inc()
            dispatcher._m_stolen_out.inc(len(granted))
            dispatcher.flight.record(fl.STEAL_GRANT, peer.shard_id, tasks=len(granted))

    def ingest(self, donor_shard: str, entries: list) -> None:
        """Thief side: admit a STEAL_GRANT's tasks to our own queue,
        journalled with their origin before the first dispatch.

        Journalling is append-only (no commit barrier on the loop): a
        crash inside the flush window loses the steal, which the
        donor's replay timeout covers.  A duplicate grant (the donor
        replayed after dropping us) refreshes the attempt echo; a
        duplicate of an already-settled task re-returns the stored
        result at once, so both shards converge.
        """
        dispatcher = self.dispatcher
        accepted: dict[str, _LiveRecord] = {}
        resend = []
        client_id = PEER_PREFIX + donor_shard
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            raw = entry.get("task")
            try:
                task_id = spec_task_id(raw)
                attempt = int(entry.get("attempt", 0))
            except (KeyError, TypeError, ValueError):
                continue
            record = dispatcher._records.get(task_id) or accepted.get(task_id)
            if record is not None:
                record.origin_attempt = attempt
                if record.state.terminal and record.result is not None:
                    resend.append((record.client_id, _notify_payload(record.result),
                                   record))
                continue
            accepted[task_id] = _LiveRecord(
                task_id=task_id, client_id=client_id, spec_dict=raw,
                origin_shard=donor_shard, origin_attempt=attempt)
        dispatcher._admit(list(accepted.values()), "stolen", (("stolen", True),))
        if accepted:
            dispatcher._m_stolen_in.inc(len(accepted))
            dispatcher.flight.record(fl.STEAL_INGEST, donor_shard, tasks=len(accepted))
            dispatcher._wake_idle()
        if resend:
            dispatcher._notify_clients(resend)

    def results_home(self, settled: list) -> None:
        """Send settled stolen-task results home over each donor's link.

        Delivered results are acked and evicted like client notifies;
        an unreachable donor leaves them terminal and un-acked, so a
        re-grant after the donor recovers re-returns the stored result
        instead of re-running the task.
        """
        by_donor: dict[str, list] = {}
        for notify in settled:
            by_donor.setdefault(notify[2].origin_shard, []).append(notify)
        for donor_shard, notifies in by_donor.items():
            peer = self.peers.get(PEER_PREFIX + donor_shard)
            if peer is None:
                continue
            entries = []
            for _, _, record in notifies:
                timeline = record.timeline
                seconds = (max(0.0, timeline.completed - timeline.dispatched)
                           if timeline.dispatched else 0.0)
                entries.append({"result": result_to_dict(record.result),
                                "attempt": record.origin_attempt,
                                "exec": {"seconds": seconds}})
            if peer.send_results(entries):
                self.dispatcher._mark_acked([record for _, _, record in notifies])

    # -- what other threads read -----------------------------------------------------
    def gossiping(self) -> int:
        """Peers with gossip on record (the ``peers`` gauge)."""
        return sum(1 for peer in list(self.peers.values()) if peer.seen is not None)

    def status(self, now: float) -> dict:
        """The ``/status`` ``federation`` section."""
        dispatcher = self.dispatcher
        peers = {}
        for peer in list(self.peers.values()):
            seen = peer.seen
            if seen is not None:
                peers[peer.shard_id] = {"queued": peer.queued,
                                        "age_s": max(0.0, now - seen),
                                        "caps": list(peer.caps),
                                        "health": peer.health}
        return {
            "shard_id": dispatcher.shard_id,
            "peers": peers,
            "steals_granted": dispatcher._m_steals_granted.value,
            "stolen_in": dispatcher._m_stolen_in.value,
            "stolen_out": dispatcher._m_stolen_out.value,
            "stolen_completed": dispatcher._m_stolen_done.value,
            "stolen_failed": dispatcher._m_stolen_failed.value,
        }


class _RouterFuture(TaskFuture):
    """The router's exactly-once-visible wrapper future.

    Inner per-shard futures forward into it; the first settlement wins
    even when a resubmitted task completes on two shards.
    """


class ShardRouter:
    """A thin federated client: one facade over N shard dispatchers.

    Routes each task to its hash-owner shard; a rejected or failed
    bundle retargets to the next shard in endpoint-list order (the
    survivor adopts the work).
    Implements the same :class:`~repro.api.FalkonClient` surface as
    :class:`~repro.live.client.LiveClient`.
    """

    def __init__(
        self,
        endpoints: Union[str, Iterable[EndpointLike]],
        key: Optional[bytes] = None,
        bundle_size: int = 300,
    ) -> None:
        self.endpoints = Endpoint.parse_list(endpoints)
        if len({e.url for e in self.endpoints}) != len(self.endpoints):
            raise ValueError("duplicate shard endpoints")
        self.key = key
        self.bundle_size = bundle_size
        self._client_kwargs = dict(
            bundle_size=bundle_size,
            # A dead shard fails its futures after two redials (0.05 s
            # and 0.1 s) so they move to a survivor promptly.
            max_reconnects=2,
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
        self._owners: dict[str, str] = {}  # task id -> accepting shard url
        # Tasks a dead shard failed, by that shard's url; a key is
        # present while that shard's re-placing thread runs.
        self._orphans: dict[str, list[TaskSpec]] = {}
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
            self._down[url] = time.monotonic() + DOWN_TTL
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
                futures.append(future)
        groups: dict[str, list[TaskSpec]] = {}
        for spec in specs:
            groups.setdefault(self.ring.owner(spec.task_id), []).append(spec)
        for url, group in groups.items():
            self._place(url, group)
        return futures

    def _place(self, primary_url: str, specs: list[TaskSpec]) -> None:
        """Land a bundle on its primary shard, else on the next shards
        in endpoint-list order from it (wrapping around) past
        rejecting/dead shards; all-shards-down fails the futures."""
        urls = [e.url for e in self.endpoints]
        start = urls.index(primary_url)
        order = urls[start:] + urls[:start]
        candidates = [u for u in order if not self._is_down(u)]
        # Desperation pass: every shard is marked down — try them all
        # anyway rather than failing without a single connection attempt.
        candidates += [u for u in order if u not in candidates]
        for url in candidates:
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
            if url != primary_url:
                self.retargets += 1
            with self._lock:
                for spec in specs:
                    self._owners[spec.task_id] = url
            for spec, inner_future in zip(specs, inner):
                inner_future.add_done_callback(
                    self._forward(url, spec, inner_future))
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

    def _forward(self, url: str, spec: TaskSpec, inner: TaskFuture):
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
            # budget).  The original shard may still recover and
            # complete the task from its journal — the wrapper future's
            # first-wins rule keeps the caller's view exactly-once.
            self._orphaned(url, spec)

        return done

    def _orphaned(self, url: str, spec: TaskSpec) -> None:
        """Queue *spec* for re-placement off the dead shard *url*.

        A dead shard fails all its futures in one burst; the first
        starts the one thread that re-places them, the rest join its
        batch — one thread and a few bundles per dead shard, not one
        of each per task.
        """
        with self._lock:
            self.resubmits += 1
            draining = url in self._orphans
            self._orphans.setdefault(url, []).append(spec)
            if draining:
                return
        threading.Thread(
            target=self._resubmit, args=(url,),
            name=f"router-resubmit-{url}", daemon=True,
        ).start()

    def _resubmit(self, url: str) -> None:
        """Re-place the dead shard's orphans by hash owner, in bundles,
        until none arrive between two rounds."""
        self._mark_down(url)
        while True:
            with self._lock:
                specs = self._orphans[url]
                if not specs or self._closed:
                    del self._orphans[url]
                    return
                self._orphans[url] = []
                live = [spec for spec in specs
                        if (f := self._futures.get(spec.task_id)) is not None
                        and not f.done()]
            groups: dict[str, list[TaskSpec]] = {}
            for spec in live:
                groups.setdefault(self.ring.owner(spec.task_id), []).append(spec)
            for owner, group in groups.items():
                self._place(owner, group)

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
        flight_dir: Optional[str] = None,
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
            flight_dump_dir=flight_dir,
        )
        self._executor_kwargs = dict(
            heartbeat_interval=heartbeat_interval,
            pipeline=pipeline_depth,
        )
        self.journal_root = journal_root
        self.executors_per_shard = executors_per_shard
        self.shard_ids = [f"s{i}" for i in range(shards)]
        self.dispatchers: dict[str, Optional[LiveDispatcher]] = {}
        self.executors: dict[str, list] = {s: [] for s in self.shard_ids}
        self.http = None
        self._dead_ports: dict[str, int] = {}  # killed shard -> its port
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
        # /tasks/<id> on any shard resolves a chain held by another.
        dispatcher.trace_fallback = (
            lambda task_id: [span.to_dict() for span in self.trace(task_id)] or None)
        return dispatcher

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
        self._dead_ports[shard_id] = dispatcher.port
        dispatcher.simulate_crash()
        self.dispatchers[shard_id] = None

    def restart_shard(self, shard_id: str) -> LiveDispatcher:
        """Boot a fresh dispatcher on the dead shard's port + journal;
        peers' links redial it, and it re-joins the mesh itself."""
        if self.dispatchers.get(shard_id) is not None:
            raise RuntimeError(f"shard {shard_id} is still running")
        port = self._dead_ports.get(shard_id)
        if port is None:
            raise RuntimeError(f"shard {shard_id} was never killed")
        dispatcher = self._start_dispatcher(shard_id, port=port)
        self.dispatchers[shard_id] = dispatcher
        self._mesh()  # links that exist already are left alone
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
            steals[shard_id] = {
                peer.shard_id: {
                    "requested": peer.steals_requested,
                    "received": peer.steals_received,
                    "connected": peer.connected,
                }
                for peer in list(dispatcher._federation.peers.values())
                if peer.endpoint is not None
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
            if dispatcher is not None:
                paths.append(dispatcher.dump_flight(
                    reason=reason, directory=directory))
            for executor in self.executors[shard_id]:
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
            dispatcher.add_peer(peer_id, endpoint)
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
