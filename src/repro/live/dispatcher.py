"""The live dispatcher: a selector-driven TCP server.

Implements the full Figure 2 exchange over real sockets:

* clients CREATE_INSTANCE (factory/instance pattern, §3.2), SUBMIT
  bundles of tasks, and receive CLIENT_NOTIFY messages as results
  arrive;
* executors REGISTER and, while idle, are pushed WORK straight away
  (no NOTIFY → GET_WORK round trip); they deliver RESULT and get a
  RESULT_ACK that piggy-backs queued work (§3.4) — both up to the
  executor's advertised ``pipeline`` depth.  Nothing is pulled: a
  GET_WORK frame gets the ERROR any unexpected type gets; NOTIFY is
  only the steal hint to peer shards;
* a STATUS message answers the provisioner's poll {POLL}.

Failed or disconnected executors have their in-flight tasks replayed
up to ``max_retries`` (§3.1's replay policy).

I/O model: all sessions share one :class:`repro.live.ioloop.IOLoop` —
a single epoll-driven thread owns accept, reads, and deferred writes,
so executor count no longer implies thread count.  Handlers run on
the loop thread and must not block; sends are buffered and flushed
non-blocking.

One owner (see ``docs/PERFORMANCE.md``): the loop thread is the only
writer of dispatcher state — the ready queue, the task, executor and
client tables, the DLQ, the retention FIFO, every task record and
executor session, and a shard's federation plane — so no lock guards
them.  Every handler runs there, and so do the sweep, a loop timer
(:meth:`LiveDispatcher._expire`), and the peer links' inbound frames
(their connections live on this loop).  What another thread starts —
``dlq_retry`` from the HTTP thread, ``add_peer``, a peer link's new
connection from its dial thread, a session's close callback, which
fires on whichever thread closed the connection — is *posted*
(:meth:`LiveDispatcher._post`, ``IOLoop.call_soon``), or run inline
when the poster is the loop.  Every time the dispatcher reads is the loop's clock
(``IOLoop.now``).  Readers on other threads (``stats()``, ``/status``,
gauges, flight dumps, the watchdogs on the shared loop) take
GIL-atomic single reads — ``len()``, ``list(d.values())``, ``dict(d)``
— and never iterate a live table.

Liveness (the fault-tolerance leg): executors HEARTBEAT on an agreed
interval; the sweep declares an executor dead once it has been
silent for ``heartbeat_interval * heartbeat_miss_budget`` seconds —
catching the half-open sockets that a TCP close never reports — and
requeues its in-flight tasks through the same replay path.  An optional
``replay_timeout`` re-dispatches tasks whose response never arrives
(e.g. the WORK frame was lost); stale deliveries from superseded
attempts are detected by attempt number and dropped.

Observability (the unified plane, see ``docs/OBSERVABILITY.md``): every
counter lives in a typed :class:`repro.obs.MetricsRegistry`, dispatch/
exec/end-to-end latencies feed fixed-bucket histograms (p50/p90/p99),
and each task accumulates an ordered span chain ``submit → enqueue →
notify → pull → exec → result → ack`` in the one event ring that is
also its flight recorder (:class:`repro.obs.FlightRecorder`), queryable
with :meth:`LiveDispatcher.trace`.  Each task transition — admit,
dispatch, delivery, settle, requeue — is one method, the only writer of
that transition's state, its event, WAL row and counters.  The attempt
number each WORK/RESULT_ACK task entry carries and each RESULT entry
echoes is all the executor's exec window needs to
land on the right attempt of the chain, even across replays.

Durability (see ``docs/RELIABILITY.md``): with ``journal_dir`` set,
every lifecycle transition is written through a crash-safe
:class:`repro.live.journal.Journal` (CRC-per-record JSONL, fsync
batching on the 20 ms window, read-free compaction).  SUBMIT is
acknowledged only after its records are durable; a restarted
dispatcher replays base+tail, re-enqueues non-terminal tasks, and
keeps settled results queryable so reconnecting clients resolve their
futures.  Executors echo still-held work on REGISTER (``inflight``)
so a task that survived on an agent across the crash is adopted by
attempt-echo instead of double-executed.

Overload protection: a bounded ``queue_limit`` turns excess SUBMIT
bundles into SUBMIT_REJECT frames carrying a ``retry_after`` hint —
backpressure instead of OOM.  Poison tasks that exhaust their retry
budget land in a dead-letter queue (``repro dlq list|show|retry``)
instead of cycling through executor evictions forever.

Federation (see ``repro.live.federation``): with ``shard_id`` set,
the dispatcher is one shard of a multi-dispatcher deployment and
builds that module's shard plane (peer links, gossip, stealing); a
dispatcher without one never loads the module.  The core calls the
plane at a few seams: gossip in, STEAL_REQUEST in, the sweep tick,
the idle-peer hint, results home, a lost peer session, ``/status``
and close.  What stays here is task state.  A thief is a
pseudo-executor session on its donor (marked ``peer``; id
``peer:<shard>``), so stolen work reuses the executor machinery —
attempt-echoed results, stale-result dropping, in-flight replay when
the peer link dies — and exactly-once-visible completion holds across
steals.  A stolen record carries its origin, settles on its first
result, pass or fail, and goes home: the donor owns the retry budget
and the DLQ, so each task has one home.
"""

from __future__ import annotations

import itertools
import math
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.live.endpoint import Endpoint, EndpointLike
from repro.live.ioloop import IOLoop, default_loop
from repro.live.journal import Journal, RecoveredState
from repro.live.protocol import (
    _SPEC0,
    Connection,
    result_from_dict,
    result_to_dict,
    spec_task_id,
    stats_from_payload,
)
from repro.net.message import Message, MessageType
from repro.obs import flight as fl
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import DispatcherStats
from repro.obs.trace import Span
from repro.obs.watchdog import StallDetector, WatchdogPanel
from repro.types import TaskResult, TaskState, TaskTimeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.faults import FaultPlan
    from repro.obs.httpd import StatusServer

__all__ = ["LiveDispatcher", "PEER_PREFIX"]

#: Sanity cap on an executor's advertised pipeline depth.
MAX_PIPELINE_DEPTH = 64

#: Identity prefix for peer shards, written to spans, flight events
#: and the journal: the donor registers a thief as a pseudo-executor
#: ``peer:<shard-id>`` and the thief records the donor as pseudo-client
#: ``peer:<shard-id>`` on stolen records (the federation plane builds
#: both; nothing here parses them).
PEER_PREFIX = "peer:"

#: The ``retry_after`` hint (seconds) carried on SUBMIT_REJECT.
REJECT_RETRY_AFTER = 0.25

#: Watchdog thresholds (seconds).  An IOLoop whose wakeup lag exceeds
#: the first is being starved by a blocking handler; a journal flush
#: slower than the second points at a dying disk.
IOLOOP_LAG_DEGRADED = 1.0
JOURNAL_FLUSH_DEGRADED = 1.0
#: With buffered journal records and no completed flush for this many
#: seconds, the flusher thread is presumed wedged.
JOURNAL_STALE_DEGRADED = 5.0
#: Seconds of "work queued, executors idle, nothing dispatched" before
#: the stall watchdog reports degraded.
STALL_AFTER = 5.0

#: ``/status`` reports completions per second over this many seconds.
RATE_WINDOW = 5.0

#: Events the dispatcher's ring keeps: whole chains for the newest
#: 100 000 tasks of a pipelined sleep-0 run, which records about 7.1
#: events per task (7 transitions, a tenth of a frame event).
EVENT_CAPACITY = 720_000

#: Task lengths (seconds) of ``/status``'s efficiency curve — the
#: paper's Figure 5 sweep of efficiency vs task length.
EFFICIENCY_TASK_LENGTHS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def efficiency_curve(
    overhead_per_task_s: float,
    lengths: tuple[float, ...] = EFFICIENCY_TASK_LENGTHS,
) -> dict[str, float]:
    """Efficiency ``L / (L + overhead)`` for each task length *L*.

    The paper's Figure 5 shape: with a fixed per-task dispatch overhead,
    longer tasks amortise it and efficiency approaches 1.  NaN overhead
    (no settled tasks yet) yields NaN everywhere.
    """
    out: dict[str, float] = {}
    for length in lengths:
        if math.isnan(overhead_per_task_s) or length <= 0:
            out[f"{length:g}s"] = math.nan
        else:
            out[f"{length:g}s"] = length / (length + max(0.0, overhead_per_task_s))
    return out


def _wal_object(data: dict) -> dict:
    """A wire object (a record's kept spec dict, a ``result_to_dict``)
    as a WAL row stores it: a copy minus ``task_id``, which the row's
    ``id`` carries and recovery restores.  A copy, because the spec
    dict is the one the record keeps sending."""
    row = data.copy()
    del row["task_id"]
    return row


def _notify_payload(result: TaskResult, payload: Optional[dict] = None) -> dict:
    """*result* as a CLIENT_NOTIFY entry: its wire object (*payload*, if
    built already) plus a ``timeline`` object of the stamps that are known.

    An unknown stamp (NaN — a result recovered from the journal has a
    fresh timeline) is omitted, as defaults are everywhere on the wire,
    and so is the whole key when no stamp is known: ``NaN`` is not JSON.
    """
    if payload is None:
        payload = result_to_dict(result)
    timeline = result.timeline
    isfinite = math.isfinite
    stamps = {}
    if isfinite(timeline.submitted):
        stamps["submitted"] = timeline.submitted
    if isfinite(timeline.dispatched):
        stamps["dispatched"] = timeline.dispatched
    if isfinite(timeline.completed):
        stamps["completed"] = timeline.completed
    if stamps:
        payload["timeline"] = stamps
    return payload


@dataclass(slots=True)
class _LiveRecord:
    task_id: str
    client_id: str
    state: TaskState = TaskState.QUEUED
    attempts: int = 0
    executor_id: str = ""
    #: Whether the current dispatch actually left this process.  A task
    #: whose WORK/ack transmission failed is *undelivered*: requeueing
    #: it must not burn an attempt or count as a retry.
    delivered: bool = False
    #: How the current attempt was handed over ("push"/"piggyback"/
    #: "adopted"/"steal").
    dispatch_mode: str = ""
    #: The task's spec, kept only as the wire dict it arrived as (a
    #: SUBMIT entry, a steal grant's, the journal's ``submit`` row):
    #: admission parses it to refuse a malformed entry, and nothing
    #: keeps the parsed :class:`~repro.types.TaskSpec`.  A WORK /
    #: RESULT_ACK frame re-serialises this shared dict at C speed.
    #: (Pre-encoded byte splicing was measured slower: many small
    #: Python-level ops lose to one big C ``dumps``; see
    #: docs/PERFORMANCE.md.)  Kept while the task can still be sent —
    #: queued, dispatched, or quarantined in the DLQ (``dlq_retry``
    #: requeues it) — and released at every other terminal settle.
    spec_dict: Optional[dict] = None
    timeline: TaskTimeline = field(default_factory=TaskTimeline)
    result: Optional[TaskResult] = None
    #: Whether the settled result's CLIENT_NOTIFY left this process
    #: (journalled as ``acked``; delivery-guarantee bookkeeping).
    acked: bool = False
    #: Federation: non-empty on tasks stolen *from* a peer shard — the
    #: donor's shard id and the donor-side attempt number this shard's
    #: eventual result must echo (the donor dedupes by attempt).
    origin_shard: str = ""
    origin_attempt: int = 0


#: One settled result on its way out: the owning client's id, its
#: CLIENT_NOTIFY entry (built once, where the result settled), and the
#: record it settled — in hand at every call site, so the notify path
#: marks it acked (and sends a stolen task home by its
#: ``origin_shard``) without a second table lookup.
_Notify = tuple[str, dict, "_LiveRecord"]


class _ExecutorSession:
    def __init__(self, executor_id: str, conn: Connection, pipeline: int = 1) -> None:
        self.executor_id = executor_id
        self.conn = conn
        self.pipeline = max(1, min(int(pipeline), MAX_PIPELINE_DEPTH))
        self.busy: set[str] = set()  # task ids in flight on this agent
        self.notified = False
        self.last_seen = 0.0  # the dispatcher stamps it, on its loop's clock
        #: The last HEARTBEAT's sanitized ``stats``: this executor's
        #: ``/status`` row.  Replaced whole on the loop thread, never
        #: mutated, so a reader on another thread takes one load.
        self.telemetry: dict[str, float] = {}
        #: Whether this is a peer shard's pseudo-executor (set by the
        #: federation plane that creates it): a link, not a worker —
        #: never pushed work, no local capacity, not counted in stats.
        self.peer = False
        self._dispatch_attrs: dict[str, tuple] = {}

    def dispatch_attrs(self, mode: str) -> tuple:
        """The notify/pull span attrs for *mode* — one shared tuple
        per session and mode, not two fresh ones per dispatch."""
        attrs = self._dispatch_attrs.get(mode)
        if attrs is None:
            attrs = self._dispatch_attrs[mode] = (
                ("executor", self.executor_id), ("mode", mode))
        return attrs

    def capacity(self) -> int:
        return max(0, self.pipeline - len(self.busy))


class _ClientSession:
    def __init__(self, client_id: str, conn: Connection) -> None:
        self.client_id = client_id
        self.conn = conn


class LiveDispatcher:
    """Falkon dispatcher listening on ``host:port``.

    Parameters (beyond the seed ones)
    ---------------------------------
    heartbeat_interval:
        Expected executor heartbeat period in seconds; ``None``
        disables liveness eviction (socket-close detection still
        applies).
    heartbeat_miss_budget:
        Consecutive missed heartbeats tolerated before an executor is
        declared dead.
    replay_timeout:
        Re-dispatch a task whose result has not arrived this many
        seconds after dispatch; ``None`` disables the timer.
    monitor_interval:
        Period of the liveness/replay sweep and of the watchdogs;
        defaults to a fraction of the tightest configured deadline.
    fault_plan:
        A :class:`repro.live.faults.FaultPlan`; when set, every inbound
        session speaks through a fault-injecting connection.
    journal_dir:
        Directory for the crash-safe write-ahead journal.  When it
        already holds state from a previous incarnation, the
        dispatcher recovers on boot: non-terminal tasks re-enter the
        queue, settled results stay queryable for reconnecting
        clients, and the dead-letter queue is restored.  ``None``
        (default) keeps durability off — no disk I/O on the hot path.
    queue_limit:
        Bound on the ready queue.  A SUBMIT bundle that would push the
        queue past this limit is refused with SUBMIT_REJECT (carrying
        a ``retry_after`` hint) instead of accepted into unbounded
        memory.  ``None`` keeps admission open.
    journal_compact_every:
        Compact the journal (rewrite its base from the rows of
        unreleased tasks) once its tail holds this many records.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        key: Optional[bytes] = None,
        max_retries: int = 3,
        heartbeat_interval: Optional[float] = None,
        heartbeat_miss_budget: int = 3,
        replay_timeout: Optional[float] = None,
        monitor_interval: Optional[float] = None,
        fault_plan: Optional["FaultPlan"] = None,
        journal_dir: Optional[str] = None,
        queue_limit: Optional[int] = None,
        journal_compact_every: int = 50_000,
        retain_settled: Optional[int] = None,
        shard_id: Optional[str] = None,
        flight_dump_dir: Optional[str] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 when set")
        if retain_settled is not None and retain_settled < 1:
            raise ValueError("retain_settled must be >= 1 when set")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when set")
        if heartbeat_miss_budget < 1:
            raise ValueError("heartbeat_miss_budget must be >= 1")
        if replay_timeout is not None and replay_timeout <= 0:
            raise ValueError("replay_timeout must be positive when set")
        self.key = key
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_budget = heartbeat_miss_budget
        self.replay_timeout = replay_timeout
        self.fault_plan = fault_plan
        self.queue_limit = queue_limit
        #: Federation identity: ``None`` keeps the classic single-shard
        #: dispatcher (gossip HEARTBEATs are ignored, STEAL frames are
        #: refused, ``repro.live.federation`` is never loaded).
        self.shard_id = shard_id
        #: Bounded terminal-state retention: keep at most this many
        #: acked, settled, non-DLQ records in memory (and prune the
        #: same set from journal snapshots).  ``None`` retains
        #: everything — the safe default; endurance runs set a cap so
        #: RSS and compaction cost stay flat at millions of tasks.
        #: Trade-off: an evicted task id resubmitted later runs again
        #: instead of replaying its cached result.
        self.retain_settled = retain_settled
        self._settled_fifo: deque[str] = deque()
        if monitor_interval is None:
            deadlines = [d for d in (heartbeat_interval, replay_timeout) if d]
            monitor_interval = min([0.25] + [d / 2 for d in deadlines])
        self.monitor_interval = monitor_interval

        # Written only on the loop thread (see the module docstring's
        # "one owner").
        self._queue: deque[str] = deque()  # task ids
        self._records: dict[str, _LiveRecord] = {}
        self._executors: dict[str, _ExecutorSession] = {}
        self._clients: dict[str, _ClientSession] = {}
        # A shard's federation plane: peer links, gossip, stealing.
        self._federation = None
        if shard_id is not None:
            from repro.live.federation import _ShardPlane

            self._federation = _ShardPlane(self)
        self._client_seq = itertools.count(1)
        self._session_seq = itertools.count(1)
        # The one event ring — span chains, flight dumps, lifecycle
        # log — and the loop, whose clock stamps timelines (_now) from
        # recovery on.
        self.flight = self.spans = FlightRecorder(
            "dispatcher", shard_id=shard_id, capacity=EVENT_CAPACITY)
        self._started = self.flight.t0
        self._closing = threading.Event()
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._loop = IOLoop(name=f"dispatcher-{self.port}")
        # The observability plane: typed instruments replace the old
        # hand-rolled integer attributes (kept readable via properties).
        # Federated shards get a per-shard metric prefix so N shards'
        # registries render side by side without name collisions.
        prefix = ("dispatcher" if shard_id is None
                  else "dispatcher_" + shard_id.replace("-", "_"))
        self.metrics = MetricsRegistry(prefix=prefix)
        # Telemetry is read where it is kept (see status_snapshot): an
        # executor session holds its last heartbeat's stats, this the
        # provisioner's last poll's, and each sweep appends one
        # ``(t, completed)`` pair for the dispatch rate — 256 cover
        # RATE_WINDOW down to a 20 ms sweep.
        self._provisioner_stats: dict[str, float] = {}
        self._completions: deque[tuple[float, int]] = deque(maxlen=256)
        self._http: Optional[StatusServer] = None
        #: Optional cross-shard trace resolver: called with a task id
        #: when the local ring has no chain, so ``/tasks/<id>``
        #: on any shard of a federation resolves the owning shard
        #: instead of 404ing (set by the federation wiring).
        self.trace_fallback = None
        self._m_accepted = self.metrics.counter(
            "tasks_accepted", help="Tasks accepted from clients")
        self._m_completed = self.metrics.counter(
            "tasks_completed", help="Tasks settled with return code 0")
        self._m_failed = self.metrics.counter(
            "tasks_failed", help="Tasks settled as failed")
        self._m_retries = self.metrics.counter(
            "retries", help="Replay/retry re-enqueues")
        self._m_dead = self.metrics.counter(
            "executors_declared_dead", help="Liveness evictions")
        self._m_reconnects = self.metrics.counter(
            "reconnects", help="Client/executor session resumptions")
        self._m_stale = self.metrics.counter(
            "stale_results", help="Late deliveries from superseded attempts")
        self._m_rejects = self.metrics.counter(
            "submit_rejects", help="SUBMIT bundles refused by admission control")
        self._m_dlq = self.metrics.counter(
            "dlq_tasks", help="Tasks quarantined in the dead-letter queue")
        self._m_recovered = self.metrics.counter(
            "recovered_tasks", help="Tasks rebuilt from the journal at boot")
        self._m_adopted = self.metrics.counter(
            "inflight_adopted",
            help="Dispatched tasks adopted from executors' REGISTER inflight echo")
        # Federation instruments (flat zero on single-shard deployments).
        self._m_steals_granted = self.metrics.counter(
            "steals_granted", help="Non-empty STEAL_GRANTs sent to peer shards")
        self._m_stolen_out = self.metrics.counter(
            "tasks_stolen_out", help="Queued tasks handed to peer shards")
        self._m_stolen_in = self.metrics.counter(
            "tasks_stolen_in", help="Tasks accepted from peer shards via steals")
        self._m_stolen_done = self.metrics.counter(
            "stolen_completed", help="Stolen tasks settled ok on behalf of a peer")
        self._m_stolen_failed = self.metrics.counter(
            "stolen_failed", help="Stolen tasks settled failed on behalf of a peer")
        # The ring is bounded: a chain missing from it is evicted, not
        # a lost task, and these two say which.
        self.metrics.counter(
            "trace_spans", help="Events recorded by the dispatcher's ring",
            fn=lambda: self.spans.recorded)
        self.metrics.counter(
            "trace_evicted",
            help="Events evicted from the bounded ring (oldest first)",
            fn=lambda: self.spans.evicted)
        self.metrics.gauge(
            "peers", help="Peer shards with fresh gossip",
            fn=lambda: (self._federation.gossiping()
                        if self._federation is not None else 0))
        self.metrics.gauge("dlq_size", help="Tasks currently quarantined",
                           fn=lambda: len(self._dlq))
        self.metrics.gauge("queued", help="Tasks in the wait queue",
                           fn=lambda: len(self._queue))
        self.metrics.gauge("registered", help="Registered executors",
                           fn=lambda: len(self._executors))
        self.metrics.gauge(
            "busy", help="Executors with a task in flight",
            fn=lambda: sum(1 for e in list(self._executors.values()) if e.busy))
        self._h_dispatch = self.metrics.histogram(
            "dispatch_latency_seconds",
            help="Submit -> WORK-frame-delivered latency per dispatch")
        self._h_exec = self.metrics.histogram(
            "exec_latency_seconds",
            help="Executor-reported task execution wall time")
        self._h_e2e = self.metrics.histogram(
            "e2e_latency_seconds",
            help="Submit -> settle latency per task")
        # Where the loop thread's CPU goes, by message type (plus the
        # sweep): thread-CPU seconds spent inside each handler.
        self._m_handler_cpu = {
            name: self.metrics.counter(
                f"handler_{name}_cpu_seconds",
                help=f"Thread CPU seconds spent in the {name} handler")
            for name in (*_Session.HANDLER_NAMES.values(), "sweep")
        }

        #: Where unsolicited dumps (crash, SIGTERM, debug) land;
        #: ``None`` falls back to a per-process temp directory.
        self.flight_dump_dir = flight_dump_dir
        # Watchdog plane: evaluated by _watch, surfaced as gauges plus
        # the ``degraded`` reasons list on /healthz.
        self._stall = StallDetector(STALL_AFTER)
        self._degraded: list[str] = []
        self._watchdogs = WatchdogPanel()
        self.metrics.gauge(
            "ioloop_lag_seconds",
            help="Latest IOLoop scheduled-vs-actual wakeup delta",
            fn=lambda: self._loop.lag_s)
        self.metrics.gauge(
            "queue_stall_seconds",
            help="Seconds the queue has had depth>0, idle executors, and "
                 "zero dispatches (0 = healthy)",
            fn=lambda: self._stall.stalled_for)
        self.metrics.gauge(
            "journal_flush_seconds",
            help="Duration of the journal's most recent write+fsync batch",
            fn=lambda: (self.journal.last_flush_s
                        if self.journal is not None else 0.0))
        self.metrics.gauge(
            "journal_compact_seconds",
            help="Duration of the journal's most recent compaction",
            fn=lambda: (self.journal.last_compact_s
                        if self.journal is not None else 0.0))
        # No locks are left to wait on.  The gauge stays, pinned at 0,
        # only because bench/run.py parses it (lines 220 and 725); the
        # next benchmark change retires it.
        self.metrics.gauge(
            "lock_wait_seconds",
            help="Always 0: the dispatcher holds no locks",
            fn=lambda: 0.0)
        self.metrics.gauge(
            "degraded",
            help="1 while any watchdog reports a degraded reason",
            fn=lambda: 1 if self._degraded else 0)

        # Poison-task quarantine: task id -> dead-letter entry dict.
        self._dlq: dict[str, dict] = {}
        # Durability plane: recover *before* the loop accepts —
        # reconnecting peers must find the rebuilt state, not a race.
        self.journal: Optional[Journal] = None
        self.recovered_tasks = 0
        if journal_dir is not None:
            # Opening the journal reads the directory once: the state
            # it hands over is the one its own table was seeded from.
            journal = Journal(
                journal_dir,
                compact_every=journal_compact_every,
                prune_settled=retain_settled is not None,
            )
            self._recover_from_journal(journal.recovered)
            journal.recovered = None
            journal.flight = self.flight
            self.journal = journal

        self._loop.flight = self.flight
        self._loop.start()
        # Watchdog checks over the subsystems just built (_watch runs
        # the queue stall check itself).
        self._watchdogs.add("ioloop", self._check_ioloop_lag)
        self._watchdogs.add("journal", self._check_journal)
        self._loop.add_server(self._server, self._accept)
        self._loop.call_later(self.monitor_interval, self._expire)
        default_loop().call_later(self.monitor_interval, self._watch)

    # -- public --------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def endpoint(self) -> Endpoint:
        """This dispatcher's address as a typed :class:`Endpoint`."""
        return Endpoint(self.host, self.port)

    def _now(self) -> float:
        """Seconds since start on the loop's clock (the timelines')."""
        return self._loop.now() - self._started

    # -- the one owner ---------------------------------------------------------
    def _post(self, op, *args) -> None:
        """Run ``op(*args)`` on the loop thread, the only writer of
        dispatcher state: inline when already there, else at the
        loop's next iteration."""
        if self._loop.in_loop_thread():
            op(*args)
        else:
            self._loop.call_soon(lambda: op(*args))

    def _call(self, op, *args) -> bool:
        """:meth:`_post` for an answer: block until ``op(*args)`` has
        run on the loop thread and return what it returned — ``False``
        once the loop is stopped."""
        if self._loop.in_loop_thread():
            return op(*args)
        done = threading.Event()
        answer = [False]

        def run() -> None:
            try:
                answer[0] = op(*args)
            finally:
                done.set()

        self._loop.call_soon(run)
        while not done.wait(0.05):
            if self._loop.stopped:
                return False
        return answer[0]

    # Back-compat read views over the registry counters.
    @property
    def tasks_accepted(self) -> int:
        return self._m_accepted.value

    @property
    def tasks_completed(self) -> int:
        return self._m_completed.value

    @property
    def tasks_failed(self) -> int:
        return self._m_failed.value

    @property
    def retries(self) -> int:
        return self._m_retries.value

    @property
    def executors_declared_dead(self) -> int:
        return self._m_dead.value

    @property
    def reconnects(self) -> int:
        return self._m_reconnects.value

    @property
    def stale_results(self) -> int:
        return self._m_stale.value

    def stats(self) -> DispatcherStats:
        """One typed snapshot (the provisioner's poll data)."""
        frames_dropped = (
            self.fault_plan.snapshot()["frames_dropped"] if self.fault_plan else 0
        )
        # Peer pseudo-executors are shard links, not workers — they are
        # excluded so registered/busy/idle describe real agents.
        executors = [e for e in list(self._executors.values()) if not e.peer]
        busy = sum(1 for executor in executors if executor.busy)
        return DispatcherStats(
            queued=len(self._queue),
            registered=len(executors),
            busy=busy,
            idle=len(executors) - busy,
            accepted=self._m_accepted.value,
            completed=self._m_completed.value,
            failed=self._m_failed.value,
            retries=self._m_retries.value,
            executors_declared_dead=self._m_dead.value,
            reconnects=self._m_reconnects.value,
            stale_results=self._m_stale.value,
            frames_dropped=frames_dropped,
            submit_rejects=self._m_rejects.value,
            dlq_size=len(self._dlq),
            dlq_total=self._m_dlq.value,
            recovered=self._m_recovered.value,
            inflight_adopted=self._m_adopted.value,
            stolen_in=self._m_stolen_in.value,
            stolen_out=self._m_stolen_out.value,
            stolen_completed=self._m_stolen_done.value,
            stolen_failed=self._m_stolen_failed.value,
            steals_granted=self._m_steals_granted.value,
            journal_records=(self.journal.stats()["records"]
                             if self.journal is not None else 0),
            dispatch_latency_p50=self._h_dispatch.p50,
            dispatch_latency_p90=self._h_dispatch.p90,
            dispatch_latency_p99=self._h_dispatch.p99,
            handler_cpu_s={name: counter.value for name, counter
                           in self._m_handler_cpu.items()},
        )

    def trace(self, task_id: str) -> list[Span]:
        """The ordered span chain recorded for *task_id*."""
        return self.spans.chain(task_id)

    # -- durability ------------------------------------------------------------
    def _journal_append(self, kind: str, task_id: str, **fields) -> None:
        """One WAL record; free when no journal is attached."""
        journal = self.journal
        if journal is not None:
            journal.append(kind, task_id, **fields)

    def _recover_from_journal(self, state: RecoveredState) -> None:
        """Rebuild records, queue and DLQ from the journal's replay.

        Runs in ``__init__``, before the loop thread exists."""
        if not state.tasks:
            return
        records: list[_LiveRecord] = []
        for task in state.pending() + [t for t in state.tasks.values() if t.terminal]:
            try:
                task_id = spec_task_id(task.spec)
            except (KeyError, TypeError, ValueError):
                continue  # a record from a future/foreign spec version
            # Queued *and* dispatched tasks both re-enter the queue: a
            # dispatched task whose executor still holds it will be
            # adopted back via the REGISTER inflight echo; until then,
            # re-dispatching it to someone else is the at-least-once
            # default.  Settled ones stay queryable, never runnable, and
            # keep their spec only if quarantined.
            record = _LiveRecord(
                task_id=task_id, client_id=task.client_id,
                state=(TaskState.QUEUED if not task.terminal
                       else TaskState.COMPLETED if task.state == "completed"
                       else TaskState.FAILED),
                spec_dict=task.spec if task.in_dlq or not task.terminal else None)
            record.attempts = task.attempts
            record.acked = task.acked
            if task.origin is not None:
                # A task stolen from a peer shard: restore the donor
                # identity so the eventual (re-)execution still returns
                # its result with the right attempt echo.
                record.origin_shard = str(task.origin.get("shard", ""))
                try:
                    record.origin_attempt = int(task.origin.get("attempt", 0))
                except (TypeError, ValueError):
                    record.origin_attempt = 0
                self._m_stolen_in.inc()
            if task.terminal:
                if task.result is not None:
                    try:
                        record.result = result_from_dict(task.result)
                    except (KeyError, TypeError, ValueError):
                        # A malformed journalled result (version skew,
                        # corruption that passed the CRC) degrades to
                        # the synthesized failure below — one bad
                        # record must not abort the whole boot.
                        record.result = None
                if record.result is None:
                    record.result = TaskResult(
                        task.task_id, return_code=1,
                        error=task.dlq_error or "failed before crash",
                        attempts=task.attempts,
                    )
                if record.result.ok:
                    self._m_completed.inc()
                else:
                    self._m_failed.inc()
            if task.in_dlq:
                self._dlq[task.task_id] = self._dlq_entry_from_record(
                    record, task.dlq_error)
            records.append(record)
        self.recovered_tasks = len(state.tasks)
        self._m_recovered.inc(len(state.tasks))
        self.flight.record(fl.RECOVER, "dispatcher",
                           tasks=len(state.tasks),
                           requeued=sum(1 for r in records
                                        if r.state is TaskState.QUEUED),
                           truncated=state.truncated,
                           from_snapshot=state.from_snapshot)
        self._admit(records, "recovered", (("recovered", True),))

    def _adopt_inflight(self, executor: _ExecutorSession, echo) -> None:
        """Adopt REGISTER-echoed tasks the executor still holds.

        Only QUEUED records whose attempt counter equals the echoed
        attempt are adopted — equality proves the executor holds the
        *current* attempt (a recovered dispatch re-entered the queue
        without burning a new attempt).  Anything else is left alone:
        the queue re-dispatches it and the echoing executor's late
        result loses the attempt-number race.
        """
        for entry in echo:
            if not isinstance(entry, dict):
                continue
            task_id = entry.get("task_id")
            attempt = entry.get("attempt")
            if not task_id or not isinstance(attempt, int):
                continue
            record = self._records.get(task_id)
            if (record is None or record.state is not TaskState.QUEUED
                    or record.attempts != attempt):
                continue
            # Recovery queued this task before the executor reappeared;
            # pull the entry so the queue stat and idle push reflect
            # reality (claimers would skip the DISPATCHED record anyway).
            try:
                self._queue.remove(task_id)
            except ValueError:
                pass
            self._mark_dispatched([record], executor, "adopted")
            self._m_adopted.inc()

    @staticmethod
    def _dlq_entry_from_record(record: _LiveRecord, error: str = "") -> dict:
        result = record.result
        return {
            "task_id": record.task_id,
            "client_id": record.client_id,
            "command": record.spec_dict.get("command", _SPEC0.command),
            "attempts": record.attempts,
            "error": error or (result.error if result is not None else ""),
            "return_code": result.return_code if result is not None else 1,
            "quarantined_t_wall": time.time(),
        }

    def _maybe_crash(self, point: str) -> bool:
        """Fault-injected process death at a named protocol position."""
        plan = self.fault_plan
        if plan is None or not plan.crash_points:
            return False
        if not plan.should_crash(point):
            return False
        threading.Thread(
            target=self.simulate_crash, name="dispatcher-crash", daemon=True
        ).start()
        return True

    def simulate_crash(self) -> None:
        """Die like ``kill -9``: drop the journal's unflushed window,
        close every socket, send no goodbyes.  Recovery is exercised
        by constructing a new dispatcher over the same journal dir.

        The one concession to forensics: the flight ring is flushed
        first (a real deployment gets the same artifact from the
        SIGTERM/SIGQUIT handler or an external ``POST /debug/dump``),
        so post-mortem analysis sees the shard's final seconds and its
        in-flight inventory at death.
        """
        try:
            self.dump_flight(reason="crash")
        except OSError:
            pass  # dying anyway; the dump is best-effort
        if self.journal is not None:
            self.journal.abandon()
        self.close()

    # -- dead-letter queue -----------------------------------------------------
    def dlq_list(self) -> list[dict]:
        """Current quarantine, oldest first."""
        return sorted(list(self._dlq.values()),
                      key=lambda e: e.get("quarantined_t_wall", 0.0))

    def dlq_entry(self, task_id: str) -> Optional[dict]:
        entry = self._dlq.get(task_id)
        return dict(entry) if entry is not None else None

    def dlq_retry(self, task_id: str) -> bool:
        """Re-queue a quarantined task with a fresh retry budget (on
        the loop thread; callable from any thread).

        The owning client already saw the failure result (futures are
        exactly-once-visible; the first settle wins), so a later
        success reaches it only through GET_RESULTS polling — the DLQ
        retry is an operator-plane action.
        """
        return self._call(self._requeue_quarantined, task_id)

    def _requeue_quarantined(self, task_id: str) -> bool:
        if self._dlq.pop(task_id, None) is None:
            return False
        record = self._records.get(task_id)
        if record is None:
            return False  # orphan DLQ entry (record evicted); drop it
        self._requeue(record, "dlq-retry")
        self._wake_idle()
        return True

    # -- HTTP status surface --------------------------------------------------
    def serve_http(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registries_fn=None,
        fleet_fn=None,
    ) -> StatusServer:
        """Start the scrape/status endpoint (``repro live --http-port``).

        ``registries_fn`` optionally supplies extra metric registries
        for ``/metrics`` (e.g. co-located executor/provisioner
        registries in :class:`~repro.live.local.LocalFalkon`); it is a
        callable so executors provisioned after startup still appear.
        ``fleet_fn`` wires ``GET /fleet`` — federation hosts pass a
        callable returning the merged multi-shard snapshot.
        """
        if self._http is not None:
            return self._http
        # Imported here, not at the top: http.server, http.client and
        # email are a dispatcher's start-up cost only when it serves.
        from repro.obs.exporters import render_prometheus
        from repro.obs.httpd import StatusServer

        def metrics_text() -> str:
            registries = [self.metrics]
            if registries_fn is not None:
                registries += [r for r in registries_fn() if r is not self.metrics]
            return render_prometheus(*registries)

        def task(task_id: str):
            chain = self.spans.chain(task_id)
            if chain:
                return [span.to_dict() for span in chain]
            if self.trace_fallback is not None:
                # Federated runs: the task may live on (or have been
                # stolen by) a sibling shard — ask the federation
                # wiring before answering 404.
                return self.trace_fallback(task_id)
            return None

        self._http = StatusServer(
            metrics_text=metrics_text,
            status=self.status_snapshot,
            task=task,
            host=host,
            port=port,
            dlq=self.dlq_list,
            dlq_entry=self.dlq_entry,
            dlq_retry=self.dlq_retry,
            healthz=self.health_snapshot,
            fleet=fleet_fn,
            debug_dump=lambda reason: self.dump_flight(reason=reason),
        )
        return self._http

    @property
    def http(self) -> Optional[StatusServer]:
        return self._http

    def status_snapshot(self) -> dict:
        """The ``/status`` payload: dispatcher stats, derived cluster
        gauges, and a per-executor telemetry table.

        Built at read time from where each fact is kept.  The executor
        table merges session-side truth (busy set, pipeline depth,
        liveness age) with the session's last heartbeat-carried stats
        when the executor streams them — so the table is useful even
        against agents that heartbeat without stats or not at all.
        """
        now = self._loop.now()
        table = {
            executor.executor_id: {
                "busy_tasks": len(executor.busy),
                "pipeline": executor.pipeline,
                "age_s": max(0.0, now - executor.last_seen),
                **executor.telemetry,
            }
            for executor in list(self._executors.values())
        }
        stats = self.stats()
        snapshot = {
            "dispatcher": stats.as_dict(),
            "cluster": self._cluster_gauges(stats),
            "executors": table,
            "provisioner": dict(self._provisioner_stats),
            "latency": {
                "dispatch_p50_s": self._h_dispatch.p50,
                "dispatch_p90_s": self._h_dispatch.p90,
                "dispatch_p99_s": self._h_dispatch.p99,
                "e2e_p50_s": self._h_e2e.p50,
                "e2e_p99_s": self._h_e2e.p99,
            },
            "journal": self.journal.stats() if self.journal is not None else None,
            "trace": {
                "capacity": self.spans.capacity,
                "traces": self.spans.traces,
                "spans_total": self.spans.recorded,
                "evicted_total": self.spans.evicted,
            },
            "dlq": self.dlq_list(),
            "uptime_s": now - self._started,
            # Shard identity at top level: fleet aggregation and
            # ``repro doctor`` attribute payloads without guessing
            # from ports.
            "shard_id": self.shard_id,
            "wire": "v4",
            "health": self.health_snapshot(),
        }
        if self._federation is not None:
            snapshot["federation"] = self._federation.status(now)
        return snapshot

    def _cluster_gauges(self, stats: DispatcherStats) -> dict:
        """``/status``'s derived cluster gauges: the counts are
        ``stats()``'s (real executors only), the per-task overhead is
        ``(Σ e2e − Σ exec) / settled`` off the two latency histograms,
        and the rate is :meth:`_dispatch_rate`."""
        settled = self._h_e2e.count
        overhead = (max(0.0, self._h_e2e.sum - self._h_exec.sum) / settled
                    if settled else math.nan)
        return {
            "utilization": (stats.busy / stats.registered
                            if stats.registered else math.nan),
            "dispatch_rate_tasks_per_s": self._dispatch_rate(),
            "queued": stats.queued,
            "registered": stats.registered,
            "busy": stats.busy,
            "overhead_per_task_s": overhead,
            "efficiency_vs_task_length": efficiency_curve(overhead),
        }

    def _dispatch_rate(self) -> float:
        """Completions per second across the sweep samples of the last
        :data:`RATE_WINDOW` seconds; NaN until two samples span time."""
        samples = list(self._completions)
        if len(samples) < 2:
            return math.nan
        t1, done1 = samples[-1]
        t0, done0 = next(s for s in samples if s[0] >= t1 - RATE_WINDOW)
        return (done1 - done0) / (t1 - t0) if t1 > t0 else math.nan

    def close(self) -> None:
        """Shut the server and every session down."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._federation is not None:
            self._federation.close()
        if self._http is not None:
            self._http.close()
        self.flight.close()
        try:
            self._server.close()
        except OSError:
            pass
        sessions = [e.conn for e in list(self._executors.values())]
        sessions += [c.conn for c in list(self._clients.values())]
        for conn in sessions:
            conn.close()
        self._loop.stop()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "LiveDispatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accept / demux -------------------------------------------------------
    def _accept(self, sock: socket.socket) -> None:
        if self._closing.is_set():
            sock.close()
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The session's role is unknown until its first message.
        _Session(self, sock).start()

    # -- the sweep -------------------------------------------------------------
    def _expire(self) -> None:
        """The sweep, a loop timer that re-arms itself first: sample the
        completed counter for the dispatch rate, evict executors silent
        past the heartbeat deadline, replay dispatches past
        ``replay_timeout``, push whatever is queued to the idle
        (re-arming idle peer shards' steal hint), the federation tick."""
        self._loop.call_later(self.monitor_interval, self._expire)
        started = time.thread_time()
        now = self._loop.now()
        self._completions.append((now, self._m_completed.value))
        if self.heartbeat_interval is not None:
            deadline = self.heartbeat_interval * self.heartbeat_miss_budget
            silent = [e.executor_id for e in self._executors.values()
                      if now - e.last_seen > deadline]
            for executor_id in silent:
                if self._drop_executor(executor_id, reason="heartbeat-timeout",
                                       kind=fl.EXECUTOR_EVICT):
                    self._m_dead.inc()
        if self.replay_timeout is not None:
            now_rel = now - self._started
            reason = f"no response within replay_timeout={self.replay_timeout}s"
            overdue = [r for r in self._records.values()
                       if r.state is TaskState.DISPATCHED
                       and now_rel - r.timeline.dispatched > self.replay_timeout]
            notifies: list[_Notify] = []
            for record in overdue:
                executor = self._executors.get(record.executor_id)
                if executor is not None:
                    executor.busy.discard(record.task_id)
                    executor.notified = False
                notifies += self._settle([(record, None, 0.0)],
                                         record.executor_id, lost=reason)
            self._notify_clients(notifies)
        if self._queue:
            for executor in self._executors.values():
                if not executor.busy:
                    executor.notified = False
            self._wake_idle()
        if self._federation is not None:
            self._federation.tick(now)
        self._m_handler_cpu["sweep"].inc(time.thread_time() - started)

    # -- watchdogs -------------------------------------------------------------
    def _check_ioloop_lag(self) -> Optional[str]:
        worst = self._loop.drain_max_lag()
        if worst > IOLOOP_LAG_DEGRADED:
            return f"ioloop wakeup lag {worst:.2f}s (handler blocking the loop?)"
        return None

    def _check_journal(self) -> Optional[str]:
        journal = self.journal
        if journal is None:
            return None
        if journal.failed:
            return "journal failed: writes are no longer durable"
        if journal.last_flush_s > JOURNAL_FLUSH_DEGRADED:
            return f"journal flush took {journal.last_flush_s:.2f}s"
        if journal.last_compact_s > JOURNAL_FLUSH_DEGRADED:
            return f"journal compaction took {journal.last_compact_s:.2f}s"
        stats = journal.stats()
        stale = time.monotonic() - journal.last_flush_t
        if stats["pending"] > 0 and stale > JOURNAL_STALE_DEGRADED:
            return (f"journal flusher stalled: {stats['pending']} buffered "
                    f"records, no flush for {stale:.1f}s")
        return None

    def _watch(self) -> None:
        """Evaluate every watchdog into the ``degraded`` reasons list.

        A timer on the shared loop: one on the loop it watches could not
        see that loop wedged.  Transitions (a reason appearing) land in the
        flight ring, so a dump shows when degradation started.
        """
        if self._closing.is_set():
            return
        default_loop().call_later(self.monitor_interval, self._watch)
        # Peer links have no local capacity.
        idle = sum(1 for e in list(self._executors.values())
                   if not e.busy and not e.peer)
        reasons = []
        stall = self._stall.observe(self._loop.now(), len(self._queue),
                                    self._h_dispatch.count, idle)
        if stall:
            reasons.append(stall)
        reasons.extend(self._watchdogs.reasons())
        known = set(self._degraded)
        for reason in reasons:
            if reason not in known:
                self.flight.record(fl.WATCHDOG, reason.split(":", 1)[0],
                                   reason=reason)
        self._degraded = reasons

    def health_snapshot(self) -> dict:
        """The ``/healthz`` payload: liveness plus shard identity and
        the watchdogs' current degraded reasons."""
        reasons = list(self._degraded)
        return {
            "status": "degraded" if reasons else "ok",
            "degraded": reasons,
            "shard_id": self.shard_id,
            "wire": "v4",
            "uptime_s": self._now(),
        }

    # -- flight dumps ----------------------------------------------------------
    def _flight_extra(self) -> dict:
        """Dump-time context: the exact open-task inventory, so the
        doctor never has to reconstruct it from a (possibly wrapped)
        event ring."""
        return {
            "inflight": [r.task_id for r in list(self._records.values())
                         if r.state is TaskState.DISPATCHED],
            "queued": list(self._queue),
            "degraded": list(self._degraded),
            # None tells the doctor no HEARTBEAT was ever due.
            "heartbeat_interval": self.heartbeat_interval,
        }

    def flight_dump_directory(self) -> str:
        """Where unsolicited dumps land: the configured
        ``flight_dump_dir``, or a per-process temp directory."""
        if self.flight_dump_dir is not None:
            return self.flight_dump_dir
        import tempfile

        return os.path.join(tempfile.gettempdir(), f"repro-flight-{os.getpid()}")

    def dump_flight(self, path: Optional[str] = None,
                    reason: str = "manual",
                    directory: Optional[str] = None) -> str:
        """Flush the flight ring (plus open-task inventory) to a dump.

        Without an explicit *path*, the dump lands in *directory*
        (defaulting to :meth:`flight_dump_directory`) under a
        collision-resistant name.
        """
        extra = self._flight_extra()
        if path is not None:
            return self.flight.dump(path, reason=reason, extra=extra)
        if directory is None:
            directory = self.flight_dump_directory()
        return self.flight.dump_to_dir(directory, reason=reason, extra=extra)

    def _touch(self, executor_id: str) -> None:
        executor = self._executors.get(executor_id)
        if executor is not None:
            executor.last_seen = self._loop.now()

    # -- client protocol ------------------------------------------------------
    def _on_create_instance(self, session: "_Session", msg: Message) -> None:
        requested = msg.payload.get("epr")
        stale_conn: Optional[Connection] = None
        if requested:
            # A reconnecting client resumes its instance: results
            # settled while it was away stay queryable under the same
            # endpoint reference.
            client_id = str(requested)
            old = self._clients.get(client_id)
            if old is not None and old.conn is not session.conn:
                stale_conn = old.conn
            self._m_reconnects.inc()
        else:
            client_id = f"client-{next(self._client_seq):04d}"
        self._clients[client_id] = _ClientSession(client_id, session.conn)
        session.role = ("client", client_id)
        self.flight.record(fl.CLIENT_CONNECT, client_id, resumed=bool(requested))
        if stale_conn is not None:
            stale_conn.close()
        session.conn.send(
            Message(MessageType.INSTANCE_CREATED, sender="dispatcher",
                    payload={"epr": client_id})
        )

    def _on_submit(self, session: "_Session", msg: Message) -> None:
        role = session.role
        if role is None or role[0] != "client":
            session.conn.send(Message(MessageType.ERROR, payload={"error": "not a client"}))
            return
        client_id = role[1]
        raw_specs = msg.payload.get("tasks", ())
        # One pass judges each raw entry (a malformed one raises before
        # anything changed: the session drops, the bundle unacked) and
        # builds the bundle's records.  Dedupe against known ids and within the bundle (first
        # occurrence wins): a client retrying a SUBMIT whose ack was
        # lost (or rejected bundle it re-sends) must not double-enqueue
        # — resubmission is idempotent per task id.  Each fresh record
        # keeps the wire dict its spec arrived as, verbatim, and no
        # parsed spec: dispatch re-serialises this shared dict.
        #
        # A duplicate of an already-settled task (resubmission after a
        # lost ack, or a reused journal directory) must still converge:
        # its original CLIENT_NOTIFY may have gone out long ago, so the
        # stored result is re-pushed to the submitter below.  The
        # future's first-wins rule dedupes on the client.
        known_records = self._records
        fresh: dict[str, _LiveRecord] = {}
        settled_dupes: list[_Notify] = []
        for raw in raw_specs:
            task_id = spec_task_id(raw)
            known = known_records.get(task_id)
            if known is not None:
                if known.result is not None:
                    settled_dupes.append(
                        (client_id, _notify_payload(known.result), known))
            elif task_id not in fresh:
                fresh[task_id] = _LiveRecord(task_id, client_id, spec_dict=raw)
        bundle = len(raw_specs)
        # Admission control: the whole bundle is accepted or refused
        # atomically — partial acceptance would force clients to diff
        # their bundles against an ack they cannot correlate.
        if self.queue_limit is not None and bundle:
            qlen = len(self._queue)
            if qlen + bundle > self.queue_limit:
                self._m_rejects.inc()
                self.flight.record(fl.SUBMIT_REJECT, client_id,
                                   bundle=bundle, queued=qlen,
                                   limit=self.queue_limit)
                session.conn.send(
                    Message(MessageType.SUBMIT_REJECT, sender="dispatcher",
                            payload={"retry_after": REJECT_RETRY_AFTER,
                                     "queued": qlen,
                                     "limit": self.queue_limit})
                )
                return
        if not self._admit(list(fresh.values()), "submit",
                           (("bundle", bundle),), durable=True):
            # The journal cannot confirm durability (fsync failure
            # or commit timeout): acking anyway would silently void
            # the whole crash-safety promise.  Refuse the bundle —
            # the client's capped-backoff resubmission converges if
            # the stall was transient, and nothing was enqueued (the
            # built records are discarded), so no state needs
            # unwinding.
            self._m_rejects.inc()
            self.flight.record(fl.SUBMIT_REJECT, client_id,
                               bundle=bundle, reason="journal")
            session.conn.send(
                Message(MessageType.SUBMIT_REJECT, sender="dispatcher",
                        payload={"retry_after": REJECT_RETRY_AFTER,
                                 "reason": "journal"})
            )
            return
        session.conn.send(
            Message(MessageType.SUBMIT_ACK, sender="dispatcher",
                    payload={"accepted": bundle})
        )
        if settled_dupes:
            self._notify_clients(settled_dupes)
        self._wake_idle()

    def _on_get_results(self, session: "_Session", msg: Message) -> None:
        # Results are pushed via CLIENT_NOTIFY; GET_RESULTS answers with
        # whatever has finished so far (messages {9, 10}).
        role = session.role
        if role is None or role[0] != "client":
            return
        client_id = role[1]
        settled = [record for record in self._records.values()
                   if record.client_id == client_id and record.result is not None]
        try:
            session.conn.send(
                Message(MessageType.RESULTS, sender="dispatcher",
                        payload={"results": [result_to_dict(record.result)
                                             for record in settled]})
            )
        except ProtocolError:
            return  # the client went away; results remain queryable
        # The backfill delivered them as a CLIENT_NOTIFY would have:
        # acked, so retention and journal pruning can release them.
        unacked = [record for record in settled if not record.acked]
        if unacked:
            self._mark_acked(unacked)

    def _on_destroy_instance(self, session: "_Session", msg: Message) -> None:
        role = session.role
        if role and role[0] == "client":
            self._forget_client(role[1], session.conn)

    def _forget_client(self, client_id: str, conn: Connection) -> None:
        current = self._clients.get(client_id)
        if current is not None and current.conn is conn:
            del self._clients[client_id]

    # -- executor protocol -----------------------------------------------------
    def _on_register(self, session: "_Session", msg: Message) -> None:
        executor_id = msg.payload.get("executor_id") or msg.sender
        if not executor_id:
            session.conn.send(Message(MessageType.ERROR, payload={"error": "missing id"}))
            return
        reconnect = bool(msg.payload.get("reconnect"))
        pipeline = int(msg.payload.get("pipeline", 1) or 1)
        if executor_id in self._executors:
            if not reconnect:
                session.conn.send(
                    Message(MessageType.ERROR, payload={"error": "duplicate executor id"})
                )
                return
            # A reconnecting executor supersedes its old (likely
            # half-open) session; the old in-flight tasks replay.
            self._drop_executor(executor_id)
        executor = _ExecutorSession(executor_id, session.conn, pipeline=pipeline)
        executor.last_seen = self._loop.now()
        self._executors[executor_id] = executor
        if reconnect:
            self._m_reconnects.inc()
        session.role = ("executor", executor_id)
        self.flight.record(fl.EXECUTOR_REGISTER, executor_id,
                           reconnect=reconnect, pipeline=executor.pipeline)
        # Inflight echo: tasks the executor already executed (or still
        # holds) across a dispatcher restart.  A matching attempt
        # adopts the dispatch instead of re-running it elsewhere; a
        # mismatch means the task was already superseded — the
        # executor's resent result will be dropped as stale.
        self._adopt_inflight(executor, msg.payload.get("inflight") or ())
        session.conn.send(Message(MessageType.REGISTER_ACK, sender="dispatcher"))
        self._wake_idle()

    def _on_deregister(self, session: "_Session", msg: Message) -> None:
        role = session.role
        if role and role[0] == "executor":
            self._drop_executor(role[1], only_conn=session.conn)
            session.role = None

    def _on_heartbeat(self, session: "_Session", msg: Message) -> None:
        # A shard's peers gossip over HEARTBEAT; the plane takes theirs.
        if self._federation is not None and self._federation.on_gossip(session, msg):
            return
        # Receipt alone refreshes ``last_seen`` (see _Session._handle).
        # Executors piggy-back a compact stats dict; it becomes their
        # session's telemetry row.  Only sessions that completed
        # REGISTER have a row — a raw peer spraying junk heartbeats
        # must not mint one.
        role = session.role
        if role is None or role[0] != "executor":
            return
        executor = self._executors.get(role[1])
        stats = stats_from_payload(msg.payload)
        if executor is not None and stats is not None:
            executor.telemetry = stats

    def _on_steal_request(self, session: "_Session", msg: Message) -> None:
        # Only a shard grants steals; a plain dispatcher never
        # advertises the capability, so no peer asks it.
        if self._federation is not None:
            self._federation.on_steal_request(session, msg)

    def _mark_acked(self, settled: list[_LiveRecord]) -> None:
        """The frame carrying *settled* left this process: journal the
        delivery so recovery knows which results the receiver may have
        seen.  (Buffered send ≠ receipt — the ``acked`` bit is a
        best-effort delivery marker, not an end-to-end ack; the
        client-side future dedupes any re-notify.)  One journal record
        covers the whole frame — ``ids`` keeps the hot path at one
        append per flush, not one per task."""
        acked_ids = []
        for record in settled:
            record.acked = True
            acked_ids.append(record.task_id)
        self._journal_append("acked", "", ids=acked_ids)
        self._evict_settled(acked_ids)

    def add_peer(self, shard_id: str, endpoint: EndpointLike) -> None:
        """Join this shard to a peer (one direction of the mesh): the
        outbound link this shard gossips over and steals through.  The
        peer learns of us from the link's first gossip frame.  A full
        mesh is N*(N-1) calls, made by the federation wiring, not by
        users.  Callable from any thread."""
        if self._federation is None:
            raise RuntimeError("add_peer() requires a dispatcher with a shard_id")
        self._call(self._federation.add_peer, shard_id, Endpoint.parse(endpoint))

    def _on_result(self, session: "_Session", msg: Message) -> None:
        role = session.role
        if role is None or role[0] not in ("executor", "peer"):
            return
        # Chaos hook: die with a RESULT frame in hand but unprocessed —
        # the executor did the work, but no settle/ack/journal record
        # exists; recovery must not lose or double-complete the task.
        if self._maybe_crash("before-result"):
            return
        # A peer session returns results for tasks it stole from us;
        # they settle through the same pseudo-executor that carried
        # the grant, so busy accounting and attempt echoes line up.
        is_peer = role[0] == "peer"
        executor_id = role[1]
        # A "results" list whose entries each carry their own attempt
        # echo and exec window — one frame (and one ack) for a whole
        # executor-side batch, judged and settled in one pass.  A
        # malformed entry is skipped untouched (its task stays in
        # ``busy`` for the replay paths), and nothing below raises.
        executor = self._executors.get(executor_id)
        busy = executor.busy if executor is not None else set()
        records, queue = self._records, self._queue
        isfinite = math.isfinite
        settles: list[tuple[_LiveRecord, TaskResult, float]] = []
        entries = stale = 0
        for item in msg.payload.get("results", ()):
            if not isinstance(item, dict):
                continue
            payload = item.get("result")
            attempt = item.get("attempt")
            exec_info = item.get("exec") or {}
            if (
                not isinstance(payload, dict)
                or not isinstance(task_id := payload.get("task_id"), str)
                or not isinstance(exec_info, dict)
                or not (attempt is None or isinstance(attempt, int))
            ):
                continue
            try:
                exec_seconds = float(exec_info.get("seconds", 0.0))
            except (TypeError, ValueError):
                continue
            if not isfinite(exec_seconds):
                continue
            entries += 1
            busy.discard(task_id)
            record = records.get(task_id)
            if record is None:
                continue
            # DISPATCHED is the state a result is expected in;
            # only the others pay for the ``terminal`` property.
            state = record.state
            if state is not TaskState.DISPATCHED and state.terminal:
                continue
            if attempt is not None and attempt != record.attempts:
                # A superseded attempt (the replay timer already
                # re-dispatched this task): drop the stale result.
                stale += 1
                continue
            # The result adopts its record's timeline (what _settle hands
            # the client anyway) and task id string — the frame's decoded
            # copies are garbage once the frame is.
            result = result_from_dict(payload, record.timeline)
            result.task_id = record.task_id
            if state is TaskState.QUEUED:
                # The replay timer requeued this attempt: its failure
                # is already a retry; a success settles, out of the queue.
                if not result.ok:
                    stale += 1
                    continue
                try:
                    queue.remove(task_id)
                except ValueError:
                    pass
            if not (is_peer and result.executor_id):
                # Peer-returned results keep the remote executor's
                # identity when the thief filled it in.
                result.executor_id = executor_id
            settles.append((record, result, exec_seconds))
        if not entries:
            return
        if executor is not None:
            executor.notified = False
        if stale:
            self._m_stale.inc(stale)
        notifies = self._settle(settles, executor_id)
        # Piggy-back queued work on the acknowledgement {7}, up to the
        # executor's remaining pipeline capacity (§3.4 extended).
        # Never to a federation peer: stealing is explicit-request-only,
        # a piggy-backed task would be a push the thief never asked for.
        claimed: list[_LiveRecord] = []
        if executor is not None and not is_peer:
            claimed = self._claim_many(executor, executor.capacity(), mode="piggyback")
        ack = Message(MessageType.RESULT_ACK, sender="dispatcher", payload={})
        if claimed:
            self._fill_task_payload(ack, claimed)
        ack_delivered = True
        try:
            session.conn.send(ack)
        except ProtocolError:
            # The connection died between the completion frame and the
            # piggy-backed ack.  The close callback has already requeued
            # the undelivered piggy-backs without charging an attempt or
            # a retry (see _drop_executor); the settled results below
            # must still reach the client.
            ack_delivered = False
        else:
            if claimed:
                self._mark_delivered_many(claimed, executor)
        self._record_acks(notifies, (("executor", executor_id),
                                     ("delivered", ack_delivered)))
        if not claimed:
            # Nothing piggy-backed (a peer's results, or this executor
            # has no room left): whatever is queued goes to the idle.
            self._wake_idle()
        self._notify_clients(notifies)

    # -- provisioner protocol ----------------------------------------------------
    def _on_status(self, session: "_Session", msg: Message) -> None:
        # The provisioner's poll may piggy-back its own stats
        # (mirroring executor heartbeats); the last one is its row.
        stats = stats_from_payload(msg.payload)
        if stats is not None:
            self._provisioner_stats = stats
        session.conn.send(
            Message(MessageType.STATUS_REPLY, sender="dispatcher",
                    payload=self.stats().as_dict())
        )

    # -- task transitions ------------------------------------------------------
    # Each transition of a task has one writer, which also pays what the
    # transition owes — its one event in the ring, WAL row and
    # counters: _admit puts a task in the queue, _mark_dispatched
    # hands it to an executor, _mark_delivered_many notes that the frame
    # left, _settle decides how the attempt ended and _requeue sends it
    # back.  (_record_acks writes the "ack" span that closes a chain.)
    def _admit(self, records: list[_LiveRecord], reason: str,
               submit_attrs: tuple = (), durable: bool = False) -> bool:
        """Admit *records* to the table — the one way a task gets in:
        SUBMIT (*reason* ``submit``), steal ingest (``stolen``) and boot
        recovery (``recovered``).

        A QUEUED record is stamped submitted, opens its chain with a
        ``submit`` span (attrs: its client plus *submit_attrs*) and an
        ``enqueue`` span (``queue.enq`` in the flight view) and joins the
        queue; a
        recovered settled one only joins the table, queryable for
        reconnecting clients.  With a journal, one ``submit`` WAL row per
        record goes first (a stolen record's carries its origin;
        recovery writes none — the rows are what it was rebuilt from),
        in the sparse wire form and buffered under one lock.  *durable*
        commits them before anything changes, so a SUBMIT_ACK is a
        promise the tasks survive a crash, and returns ``False`` with
        nothing changed when the journal cannot confirm.
        """
        if not records:
            return True
        now = self._now()
        journal = self.journal
        if journal is not None and reason != "recovered":
            wal = []
            for record in records:
                row = {"k": "submit", "id": record.task_id,
                       "spec": _wal_object(record.spec_dict),
                       "client": record.client_id}
                if record.origin_shard:
                    row["origin"] = {"shard": record.origin_shard,
                                     "attempt": record.origin_attempt}
                wal.append(row)
            journal.append_many(wal)
            if durable and not journal.commit():
                return False
        table = self._records
        # One shared attrs tuple per client, not one per task.
        by_client: dict[str, tuple] = {}
        queued: list[str] = []
        submit_attrs_col: list[tuple] = []
        attempts: list[int] = []
        for record in records:
            task_id = record.task_id
            table[task_id] = record
            if record.state is not TaskState.QUEUED:
                continue
            record.timeline.submitted = now
            attrs = by_client.get(record.client_id)
            if attrs is None:
                attrs = by_client[record.client_id] = (
                    ("client", record.client_id), *submit_attrs)
            submit_attrs_col.append(attrs)
            queued.append(task_id)
            attempts.append(record.attempts + 1)
        spans = self.spans
        spans.record_frame("submit", queued, now, [0] * len(queued), submit_attrs_col)
        spans.record_frame("enqueue", queued, now, attempts, (("reason", reason),))
        self._queue.extend(queued)
        self._m_accepted.inc(len(records))
        return True

    def _claim_many(
        self, executor: _ExecutorSession, limit: int, mode: str
    ) -> list[_LiveRecord]:
        """Claim up to *limit* runnable records for *executor*."""
        claimed: list[_LiveRecord] = []
        # A record stays QUEUED until _mark_dispatched below, so a
        # duplicate entry (a retry of an already requeued task) would
        # otherwise be claimed twice into one frame and settle twice.
        claimed_ids: set[str] = set()
        queue, records = self._queue, self._records
        while queue and len(claimed) < limit:
            task_id = queue.popleft()
            record = records.get(task_id)
            if (record is None or record.state is not TaskState.QUEUED
                    or task_id in claimed_ids):
                continue  # evicted, or a duplicate entry from a replay path
            claimed_ids.add(task_id)
            claimed.append(record)
        if claimed:
            self._mark_dispatched(claimed, executor, mode)
        return claimed

    def _mark_dispatched(
        self, records: list[_LiveRecord], executor: _ExecutorSession, mode: str
    ) -> None:
        """QUEUED → DISPATCHED on *executor*, for every way a task is
        handed over: ``push``, ``piggyback`` and ``steal`` claims start a
        new attempt; ``adopted`` (a REGISTER inflight echo of the current
        attempt) keeps it, and is delivered already.

        One clock reading, one ring append and one WAL append cover the
        burst.  The dispatch rows ride the journal's flush window, so a
        crash may lose the last ~20 ms of them — recovery then replays
        those dispatches (at-least-once).
        """
        now = self._now()
        attrs = executor.dispatch_attrs(mode)
        adopted = mode == "adopted"
        executor_id = executor.executor_id
        busy = executor.busy
        ids: list[str] = []
        attempts: list[int] = []
        wal: Optional[list[dict]] = [] if self.journal is not None else None
        for record in records:
            if not adopted:
                record.attempts += 1
            record.state = TaskState.DISPATCHED
            record.executor_id = executor_id
            record.delivered = adopted
            record.dispatch_mode = mode
            record.timeline.dispatched = now
            task_id = record.task_id
            busy.add(task_id)
            ids.append(task_id)
            attempts.append(record.attempts)
            if wal is not None:
                row = {"k": "dispatch", "id": task_id,
                       "attempt": record.attempts, "executor": executor_id}
                if adopted:
                    row["adopted"] = True
                wal.append(row)
        self.spans.record_frame("notify", ids, now, attempts, attrs)
        if wal:
            self.journal.append_many(wal)

    def _mark_delivered_many(
        self, records: list[_LiveRecord], executor: _ExecutorSession
    ) -> None:
        """The WORK/ack frame carrying *records* left this process.

        The "pull" spans for the whole frame are one ring append (the
        frame's records were claimed together, so they share a dispatch
        mode and its attrs), not one per task.  A record no longer
        dispatched here (a fault-injected close inside the send already
        requeued it) is skipped.
        """
        executor_id = executor.executor_id
        ids: list[str] = []
        attempts: list[int] = []
        latencies: list[float] = []
        mode = ""
        # One clock reading for the frame: it left in one send.
        now = self._now()
        for record in records:
            if record.state is TaskState.DISPATCHED and record.executor_id == executor_id:
                record.delivered = True
                mode = record.dispatch_mode
                ids.append(record.task_id)
                attempts.append(record.attempts)
                latencies.append(now - record.timeline.submitted)
        if ids:
            self.spans.record_frame("pull", ids, now, attempts,
                                    executor.dispatch_attrs(mode))
            self._h_dispatch.observe_many(latencies)
            self.flight.record(fl.FRAME_TX, "WORK", tasks=len(ids),
                               executor=executor_id)
        # Chaos hook: die right after a WORK/ack frame left — the task
        # is on an executor but its result will never be processed
        # here.  One draw per record keeps seeded crash schedules
        # aligned with the historical per-record call pattern.
        plan = self.fault_plan
        if plan is not None and plan.crash_points:
            for _ in records:
                self._maybe_crash("after-dispatch")

    def _settle(
        self,
        settles: list[tuple[_LiveRecord, Optional[TaskResult], float]],
        executor_id: str,
        lost: Optional[str] = None,
    ) -> list[_Notify]:
        """Decide how each attempt ended and write it — the one place a
        record turns terminal or goes back for a retry.  Returns the
        notifies of the settled records.

        *settles* holds ``(record, result, exec_seconds)`` per DISPATCHED
        record.  The outcome is ``ok``; or ``fail`` once the retry budget
        is spent, or on a stolen task's first failed result (the donor
        shard owns its retry budget and DLQ — each task has exactly one
        home — so the failure travels back); else ``retry``, which
        :meth:`_requeue` carries out.  Each attempt's ``exec`` and
        ``result`` spans land in one span call, stamped on one clock
        reading; the executor measured the execution on its own clock,
        so the exec span is anchored at result arrival: it starts
        *exec_seconds* before the ``result`` stamp, and the ring reads
        its ``seconds`` back as that gap (one shared attrs tuple per
        frame, like every other transition's).

        With *lost* set (the replay timer, or the executor is gone) no
        executor frame will ever close these attempts, and *result* is
        ``None``.  One with budget left, or one whose frame never left
        this process, goes back to the queue.  A spent one settles as a
        failure carrying *lost* as its error; the dispatcher is the
        observer of record, so synthetic exec/result/ack spans close
        its chain.
        """
        now = self._now()
        max_retries = self.max_retries
        journal = self.journal
        executor_attr = ("executor", executor_id)
        outcome_attrs: dict[str, tuple] = {}
        exec_attrs = (executor_attr,) if lost is None else (
            executor_attr, ("synthetic", True))
        lost_result = (*exec_attrs, ("outcome", "fail"), ("reason", lost))
        # The exec and result rows of the settled attempts, as columns.
        ids: list[str] = []
        attempts_col: list[int] = []
        result_attrs_col: list[tuple] = []
        wal: list[dict] = []
        exec_samples: list[float] = []
        exec_starts: list[float] = []
        e2e: list[float] = []
        notifies: list[_Notify] = []
        retries: list[_LiveRecord] = []
        quarantined: list[tuple[str, int, str]] = []
        completed = failed = 0
        for record, result, exec_seconds in settles:
            task_id = record.task_id
            attempts = record.attempts
            stolen = bool(record.origin_shard)
            if result is not None:
                ok = result.ok
                outcome = ("ok" if ok else
                           "fail" if stolen or attempts > max_retries else "retry")
                result_attrs = outcome_attrs.get(outcome)
                if result_attrs is None:
                    result_attrs = outcome_attrs[outcome] = (
                        executor_attr, ("outcome", outcome))
                exec_samples.append(exec_seconds)
                exec_starts.append(now - exec_seconds)
                ids.append(task_id)
                attempts_col.append(attempts)
                result_attrs_col.append(result_attrs)
            elif record.delivered and attempts > max_retries:
                ok, outcome = False, "fail"
                result = TaskResult(task_id, return_code=1, error=lost,
                                    executor_id=executor_id)
                exec_starts.append(now)
                ids.append(task_id)
                attempts_col.append(attempts)
                result_attrs_col.append(lost_result)
            else:
                outcome = "retry"
            if outcome == "retry":
                retries.append(record)
                continue
            timeline = record.timeline
            record.state = TaskState.COMPLETED if ok else TaskState.FAILED
            timeline.completed = now
            result.attempts = attempts
            result.timeline = timeline
            record.result = result
            if ok:
                completed += 1
                if stolen:
                    self._m_stolen_done.inc()
            else:
                failed += 1
                if stolen:
                    self._m_stolen_failed.inc()
            e2e.append(now - timeline.submitted)
            # The wire object, built once: the WAL row keeps a copy (the
            # flusher serialises it later), and it is the notify entry.
            payload = result_to_dict(result)
            if journal is not None:
                wal.append({"k": "result", "id": task_id, "outcome": outcome,
                            "result": _wal_object(payload)})
            if not ok and not stolen:
                # Poison task: the retry budget is spent.  The client
                # still sees the terminal failure (no hanging futures);
                # the task is additionally quarantined for inspection
                # and operator-driven retry (``repro dlq``).
                self._dlq[task_id] = self._dlq_entry_from_record(record)
                self._m_dlq.inc()
                if journal is not None:
                    wal.append({"k": "dlq", "id": task_id, "error": result.error})
                quarantined.append((task_id, attempts, result.error))
            else:
                # Never sent again: only a DLQ'd task is (dlq_retry).
                record.spec_dict = None
            notifies.append((record.client_id, _notify_payload(result, payload), record))
        self.spans.record_frame("exec", ids, exec_starts, attempts_col, exec_attrs)
        self.spans.record_frame("result", ids, now, attempts_col, result_attrs_col)
        # After the rows: a task's dlq.add follows its settle.
        for task_id, attempts, error in quarantined:
            self.flight.record(fl.DLQ_ADD, task_id, attempts=attempts, error=error)
        if wal:
            journal.append_many(wal)
        if completed:
            self._m_completed.inc(completed)
        if failed:
            self._m_failed.inc(failed)
        self._h_exec.observe_many(exec_samples)
        self._h_e2e.observe_many(e2e)
        for record in retries:
            self._requeue(record, "retry" if lost is None else lost)
        if lost is not None:
            self._record_acks(notifies, (executor_attr, ("synthetic", True),
                                         ("delivered", False)))
        return notifies

    def _requeue(self, record: _LiveRecord, reason: str) -> None:
        """Send *record* back to the ready queue — the one writer of
        that transition, logged as an ``enqueue`` span for the next
        attempt with *reason*.

        * A settled one is an operator's ``dlq retry``: a fresh retry
          budget and timeline (reason ``dlq-retry``, ``dlq.retry`` in
          the flight view).
        * An undelivered dispatch — its WORK/ack never left this
          process — gets its attempt back uncharged and returns to the
          head it was claimed from, with reason ``undelivered``.
        * Anything else (a failed result, the replay timer, a lost
          executor) is a retry: counted, queued at the tail
          (``queue.requeue`` in the flight view).

        The WAL row carries the attempt the record now holds, so
        recovery reads what the live table does.
        """
        task_id = record.task_id
        now = self._now()
        if record.state.terminal:
            record.attempts = 0
            record.result = None
            record.acked = False
            record.timeline = TaskTimeline(submitted=now)
            self._queue.append(task_id)
            self._journal_append("dlq-retry", task_id)
        elif record.state is TaskState.DISPATCHED and not record.delivered:
            reason = "undelivered"
            record.attempts -= 1
            self._queue.appendleft(task_id)
            self._journal_append("requeue", task_id, attempt=record.attempts)
        else:
            self._m_retries.inc()
            self._queue.append(task_id)
            self._journal_append("requeue", task_id, attempt=record.attempts)
        record.state = TaskState.QUEUED
        record.executor_id = ""
        record.delivered = False
        self.spans.record_frame("enqueue", [task_id], now, [record.attempts + 1],
                                (("reason", reason),))

    def _record_acks(self, notifies: list[_Notify], attrs: tuple) -> None:
        """The ``ack`` spans closing the settled attempts' chains: after
        the RESULT_ACK went out (*attrs* say to whom and whether it
        left), or synthetic, from :meth:`_settle`."""
        if notifies:
            records = [record for _, _, record in notifies]
            self.spans.record_frame("ack", [record.task_id for record in records],
                                    self._now(),
                                    [record.attempts for record in records], attrs)

    # -- dispatch internals --------------------------------------------------------
    def _fill_task_payload(
        self, message: Message, claimed: list[_LiveRecord]
    ) -> None:
        """Attach claimed tasks to a WORK/RESULT_ACK message as a
        ``tasks`` list whose entries carry their own attempt (the
        executor echoes it on RESULT).  Spec dicts are the records' kept
        wire dicts — never rebuilt per frame.
        """
        message.payload["tasks"] = [
            {"task": record.spec_dict, "attempt": record.attempts}
            for record in claimed
        ]

    def _wake_idle(self) -> None:
        """Hand queued work to the idle.

        In table order, each executor with an empty busy set is pushed
        one WORK frame of up to its advertised depth, until the queue
        runs dry — what the first GET_WORK to answer a NOTIFY used to
        take, one round trip later.  A peer shard is never pushed work
        (stealing is explicit-request-only); an idle one gets the
        federation plane's steal hint, once until the sweep re-arms it.
        """
        # A copy: a failed send drops its executor from the table.
        for executor in list(self._executors.values()):
            if not self._queue:
                return
            if executor.busy:
                continue
            if not executor.peer:
                self._send_work(executor)
            elif not executor.notified:
                self._federation.hint(executor)

    def _send_work(self, executor: _ExecutorSession) -> None:
        """Push up to the idle *executor*'s advertised depth of queued
        tasks in one WORK frame (the piggy-backed ack runs the same
        steps on its RESULT_ACK).  A failed send has already closed the
        connection, whose close callback requeues the undelivered claim
        uncharged; a dropped frame is a lost WORK for the replay
        timer."""
        claimed = self._claim_many(executor, executor.pipeline, "push")
        if not claimed:
            return
        work = Message(MessageType.WORK, sender="dispatcher", payload={})
        self._fill_task_payload(work, claimed)
        try:
            executor.conn.send(work)
        except ProtocolError:
            return
        self._mark_delivered_many(claimed, executor)

    def _notify_clients(self, notifies: list[_Notify]) -> None:
        """Push settled results, one CLIENT_NOTIFY frame per client.

        Results settled in the same batch and owned by the same client
        ride a single frame (``results`` list) of the entries built where
        they settled.  A settled stolen task goes home instead: the
        federation plane returns it to its ``origin_shard``.
        """
        if not notifies:
            return
        by_client: dict[str, list[_Notify]] = {}
        home: list[_Notify] = []
        for notify in notifies:
            if notify[2].origin_shard:
                home.append(notify)
            else:
                by_client.setdefault(notify[0], []).append(notify)
        if home and self._federation is not None:
            self._federation.results_home(home)
        for client_id, settled in by_client.items():
            client = self._clients.get(client_id)
            if client is None:
                continue
            payloads = [payload for _, payload, _ in settled]
            try:
                client.conn.send(
                    Message(MessageType.CLIENT_NOTIFY, sender="dispatcher",
                            payload={"results": payloads})
                )
            except Exception:
                continue  # client went away; results remain queryable
            self.flight.record(fl.FRAME_TX, "CLIENT_NOTIFY",
                               results=len(payloads))
            self._mark_acked([record for _, _, record in settled])

    def _evict_settled(self, acked_ids: list[str]) -> None:
        """Enforce ``retain_settled``: drop the oldest acked, settled,
        non-DLQ records beyond the cap.

        DLQ'd tasks are never evicted (``dlq retry`` needs the record);
        a task whose state moved on since it entered the FIFO (a
        ``dlq_retry`` re-queue) is kept.
        """
        cap = self.retain_settled
        if cap is None:
            return
        self._settled_fifo.extend(acked_ids)
        while len(self._settled_fifo) > cap:
            task_id = self._settled_fifo.popleft()
            record = self._records.get(task_id)
            if (record is not None and record.state.terminal and record.acked
                    and task_id not in self._dlq):
                del self._records[task_id]

    def _drop_executor(
        self,
        executor_id: str,
        only_conn: Optional[Connection] = None,
        reason: str = "connection-closed",
        kind: str = fl.EXECUTOR_DROP,
    ) -> bool:
        """Remove an executor; replay its in-flight tasks.

        ``only_conn`` guards against a superseded session's late close
        tearing down the executor's replacement registration.  Returns
        whether an executor was actually removed.
        """
        executor = self._executors.get(executor_id)
        if executor is None or (only_conn is not None
                                and executor.conn is not only_conn):
            return False
        del self._executors[executor_id]
        if executor.peer:
            self._federation.session_lost(executor)
        self.flight.record(kind, executor_id, reason=reason)
        in_flight = [record for record in map(self._records.get, executor.busy)
                     if record is not None
                     and record.state is TaskState.DISPATCHED
                     and record.executor_id == executor_id]
        executor.busy.clear()
        # An undelivered dispatch (the WORK/ack transmission failed) goes
        # back uncharged — charging an attempt and a retry for it is the
        # double-count bug.
        notifies = self._settle([(record, None, 0.0) for record in in_flight],
                                executor_id, lost=f"executor {executor_id} lost")
        executor.conn.close()
        if self._queue:
            # Posted, not inline: a failed send inside a wake drops its
            # executor, and the wake must not re-enter itself.
            self._loop.call_soon(self._wake_idle)
        self._notify_clients(notifies)
        return True

    def _session_closed(self, session: "_Session") -> None:
        role = session.role
        if role is None:
            return
        kind, name = role
        if kind == "executor":
            self._drop_executor(name, only_conn=session.conn)
        elif kind == "peer":
            # The peer's in-flight stolen-out tasks replay here, same
            # as an executor loss — the grant was at-least-once.
            self._drop_executor(name, only_conn=session.conn,
                                reason="peer-connection-closed")
        elif kind == "client":
            self._forget_client(name, session.conn)

    def __repr__(self) -> str:
        s = self.stats()
        return f"<LiveDispatcher :{self.port} queued={s.queued} registered={s.registered}>"


class _Session:
    """One inbound connection, client or executor (decided by traffic)."""

    _HANDLERS = {
        MessageType.CREATE_INSTANCE: LiveDispatcher._on_create_instance,
        MessageType.SUBMIT: LiveDispatcher._on_submit,
        MessageType.GET_RESULTS: LiveDispatcher._on_get_results,
        MessageType.DESTROY_INSTANCE: LiveDispatcher._on_destroy_instance,
        MessageType.REGISTER: LiveDispatcher._on_register,
        MessageType.DEREGISTER: LiveDispatcher._on_deregister,
        MessageType.HEARTBEAT: LiveDispatcher._on_heartbeat,
        MessageType.RESULT: LiveDispatcher._on_result,
        MessageType.STATUS: LiveDispatcher._on_status,
        MessageType.STEAL_REQUEST: LiveDispatcher._on_steal_request,
    }
    #: Handler-CPU attribution key per message type: ``submit``,
    #: ``result``, ``heartbeat``, ...
    HANDLER_NAMES = {mtype: handler.__name__.removeprefix("_on_")
                     for mtype, handler in _HANDLERS.items()}

    def __init__(self, dispatcher: LiveDispatcher, sock: socket.socket) -> None:
        self.dispatcher = dispatcher
        self.role: Optional[tuple[str, str]] = None
        name = f"session-{next(dispatcher._session_seq)}"
        loop = dispatcher._loop

        def on_close() -> None:
            # Fires on whichever thread closed the connection.
            dispatcher._post(dispatcher._session_closed, self)

        if dispatcher.fault_plan is not None:
            from repro.live.faults import FaultyConnection

            self.conn: Connection = FaultyConnection(
                sock,
                handler=self._handle,
                on_close=on_close,
                key=dispatcher.key,
                name=name,
                plan=dispatcher.fault_plan,
                loop=loop,
            )
        else:
            self.conn = Connection(
                sock,
                handler=self._handle,
                on_close=on_close,
                key=dispatcher.key,
                name=name,
                loop=loop,
            )

    def start(self) -> None:
        self.conn.start()

    def _handle(self, msg: Message) -> None:
        self.dispatcher.flight.record(fl.FRAME_RX, msg.type.name)
        if self.role is not None and self.role[0] != "client":
            # Any traffic proves liveness, not just heartbeats (an
            # executor's or a peer shard's pseudo-executor).
            self.dispatcher._touch(self.role[1])
        handler = self._HANDLERS.get(msg.type)
        if handler is None:
            self.conn.send(
                Message(MessageType.ERROR, payload={"error": f"unexpected {msg.type.value}"})
            )
            return
        started = time.thread_time()
        handler(self.dispatcher, self, msg)
        self.dispatcher._m_handler_cpu[self.HANDLER_NAMES[msg.type]].inc(
            time.thread_time() - started)
        if self.role is not None and getattr(self.conn, "fault_role", None) is None:
            # Tag the connection for role-scoped fault plans once the
            # first message reveals what this session is, and re-key
            # its fault stream by stable actor identity (not the
            # accept-order session number) so the same seed reproduces
            # the same chaos timeline per actor across runs.
            kind, name = self.role
            self.conn.fault_role = kind
            adopt = getattr(self.conn, "adopt_identity", None)
            if adopt is not None:
                # A peer's name is its identity already (``peer:<id>``).
                adopt(name if kind == "peer" else f"{kind}:{name}")
