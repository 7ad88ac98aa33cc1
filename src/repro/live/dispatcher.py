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
client tables, the DLQ, gossiped peer depths, the retention FIFO and
every task record and executor session — so no lock guards them.
Every handler runs there, and so does everything another thread
starts: the monitor's heartbeat evictions and replay-timeout requeues
(:meth:`LiveDispatcher._expire`), an operator's ``dlq_retry`` from the
HTTP thread, a peer link's gossip, steal grant and steal hint, and a
session's close callback, which fires on whichever thread closed the
connection.  Those threads *post* the work (:meth:`LiveDispatcher._post`,
``IOLoop.call_soon``); it runs inline when the poster already is the
loop.  The monitor keeps only timing, watchdog sampling, peer-link
upkeep and journal compaction (the journal owns its own I/O lock).
Readers on other threads (``stats()``, ``/status``, gauges, flight
dumps) take GIL-atomic single reads — ``len()``, ``list(d.values())``,
``dict(d)`` — and never iterate a live table.

Liveness (the fault-tolerance leg): executors HEARTBEAT on an agreed
interval; a monitor thread declares an executor dead once it has been
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

Federation (see ``repro.live.federation``): with ``shard_id``
set, the dispatcher is one shard of a multi-dispatcher deployment.
Peer shards gossip queue depths over the HEARTBEAT stats leg, and an
idle shard steals bounded batches of *queued* tasks from the deepest
peer (STEAL_REQUEST / STEAL_GRANT).  The donor models the thief as a
pseudo-executor session (``peer:<shard>``), so stolen work reuses the
entire executor machinery: attempt-echoed results, stale-result
dropping, and in-flight replay when the peer link dies — exactly-once-
visible completion therefore holds across steals with no new
invariants.  The thief journals stolen tasks (with their donor origin)
before running them and returns results over its peer link; stolen
tasks never retry or dead-letter locally — the donor owns the retry
budget and the DLQ, so each task has exactly one home.
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
from repro.live.endpoint import Endpoint
from repro.live.ioloop import IOLoop
from repro.live.journal import Journal, RecoveredState
from repro.live.protocol import (
    Connection,
    result_from_dict,
    result_to_dict,
    stats_from_payload,
    task_from_dict,
    task_to_dict,
)
from repro.net.message import Message, MessageType
from repro.net.wire import encode_message_v4
from repro.obs import (
    DispatcherStats,
    MetricsRegistry,
    Span,
    StatusServer,
    render_prometheus,
)
from repro.obs import flight as fl
from repro.obs.flight import FlightRecorder
from repro.obs.watchdog import StallDetector, WatchdogPanel
from repro.types import TaskResult, TaskSpec, TaskState, TaskTimeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.faults import FaultPlan

__all__ = ["LiveDispatcher", "PEER_PREFIX"]

#: Sanity cap on an executor's advertised pipeline depth.
MAX_PIPELINE_DEPTH = 64

#: Identity prefix for peer shards: the donor registers a thief as a
#: pseudo-executor ``peer:<shard-id>`` and the thief records the donor
#: as pseudo-client ``peer:<shard-id>`` on stolen records.
PEER_PREFIX = "peer:"

#: Ignore gossiped peer depths older than this many seconds when
#: choosing a steal victim — a stale depth must not trigger a raid on
#: a shard that already drained.
PEER_DEPTH_TTL = 2.0

#: Most tasks one STEAL_GRANT may hand over.
STEAL_BATCH_MAX = 32

#: Queue depth below which a shard neither grants steals nor raids
#: peers (the last few tasks are cheaper run locally than shipped).
STEAL_MIN_QUEUE = 2

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
    """A freshly built wire object (``task_to_dict`` / ``result_to_dict``)
    as a WAL row stores it: minus ``task_id``, which the row's ``id``
    carries and recovery restores."""
    del data["task_id"]
    return data


def _timeline_stamps(timeline: TaskTimeline) -> Optional[dict]:
    """The CLIENT_NOTIFY ``timeline`` object: the stamps that are known.

    An unknown stamp (NaN — a result recovered from the journal has a
    fresh timeline) is omitted, as defaults are everywhere on the wire,
    and ``None`` says no stamp is known: ``NaN`` is not JSON.
    """
    isfinite = math.isfinite
    stamps = {}
    if isfinite(timeline.submitted):
        stamps["submitted"] = timeline.submitted
    if isfinite(timeline.dispatched):
        stamps["dispatched"] = timeline.dispatched
    if isfinite(timeline.completed):
        stamps["completed"] = timeline.completed
    return stamps or None


@dataclass(slots=True)
class _LiveRecord:
    spec: TaskSpec
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
    #: The spec's wire dict, captured verbatim from the client's
    #: SUBMIT payload (else built lazily on first dispatch), so a
    #: WORK/RESULT_ACK frame never rebuilds it — the C JSON encoder
    #: re-serialises the shared dict at frame speed.  (Pre-encoded
    #: byte splicing was measured slower: many small Python-level
    #: ops lose to one big C ``dumps``; see docs/PERFORMANCE.md.)
    #: Released at terminal settle — a settled task is never sent
    #: again unless ``dlq_retry`` requeues it, and ``_spec_dict``
    #: rebuilds it then.
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


#: One settled result on its way out: the recipient (the owning client,
#: or ``peer:<shard>`` for a stolen task's donor), the result, and the
#: record it settled — in hand at every call site, so the notify path
#: marks it acked without a second table lookup.
_Notify = tuple[str, TaskResult, "_LiveRecord"]


class _ExecutorSession:
    def __init__(self, executor_id: str, conn: Connection, pipeline: int = 1) -> None:
        self.executor_id = executor_id
        self.conn = conn
        self.pipeline = max(1, min(int(pipeline), MAX_PIPELINE_DEPTH))
        self.busy: set[str] = set()  # task ids in flight on this agent
        self.notified = False
        self.last_seen = time.monotonic()
        #: The last HEARTBEAT's sanitized ``stats``: this executor's
        #: ``/status`` row.  Replaced whole on the loop thread, never
        #: mutated, so a reader on another thread takes one load.
        self.telemetry: dict[str, float] = {}
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
        Liveness/replay sweep period; defaults to a fraction of the
        tightest configured deadline.
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
        #: refused).
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
        # Federation plane: gossiped peer depths (shard id ->
        # {"queued": n, "t": monotonic}, each entry replaced whole) and
        # the outbound peer links installed by the federation wiring
        # (shard id -> PeerLink).
        self._peer_depths: dict[str, dict] = {}
        self._peer_links: dict[str, object] = {}
        self._client_seq = itertools.count(1)
        self._session_seq = itertools.count(1)
        # The one event ring — span chains, flight dumps, lifecycle
        # log — and its clock (seconds since start) is the timelines'.
        self.flight = self.spans = FlightRecorder(
            "dispatcher", shard_id=shard_id, capacity=EVENT_CAPACITY)
        self._started, self._now = self.flight.t0, self.flight.now
        # NOTIFY carries no state: one frame, encoded and signed once,
        # sent to every idle peer shard as its steal hint from this
        # shared bytes cache.
        self._notify_frame = encode_message_v4(
            Message(MessageType.NOTIFY, sender="dispatcher"), key=key
        )
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
        self.metrics.gauge("peers", help="Peer shards with fresh gossip",
                           fn=lambda: len(self._peer_depths))
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
        # monitor's sweep): thread-CPU seconds spent inside each handler.
        self._m_handler_cpu = {
            name: self.metrics.counter(
                f"handler_{name}_cpu_seconds",
                help=f"Thread CPU seconds spent in the {name} handler")
            for name in (*_Session.HANDLER_NAMES.values(), "sweep")
        }

        #: Where unsolicited dumps (crash, SIGTERM, debug) land;
        #: ``None`` falls back to a per-process temp directory.
        self.flight_dump_dir = flight_dump_dir
        # Watchdog plane: evaluated by the monitor sweep, surfaced as
        # gauges plus the ``degraded`` reasons list on /healthz.
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
        # Durability plane: recover *before* the server accepts —
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

        self._closing = threading.Event()
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._loop = IOLoop(name=f"dispatcher-{self.port}")
        self._loop.flight = self.flight
        self._loop.start()
        # Watchdog checks over the subsystems just built (the queue
        # stall check needs per-sweep inputs and runs separately in
        # _watchdog_tick).
        self._watchdogs.add("ioloop", self._check_ioloop_lag)
        self._watchdogs.add("journal", self._check_journal)
        self._loop.add_server(self._server, self._accept)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dispatcher-monitor", daemon=True
        )
        self._monitor.start()

    # -- public --------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def endpoint(self) -> Endpoint:
        """This dispatcher's address as a typed :class:`Endpoint`."""
        return Endpoint(self.host, self.port)

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
        executors = [e for e in list(self._executors.values())
                     if not e.executor_id.startswith(PEER_PREFIX)]
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
                spec = task_from_dict(task.spec)
            except (KeyError, TypeError, ValueError):
                continue  # a record from a future/foreign spec version
            # Queued *and* dispatched tasks both re-enter the queue: a
            # dispatched task whose executor still holds it will be
            # adopted back via the REGISTER inflight echo; until then,
            # re-dispatching it to someone else is the at-least-once
            # default.  Settled ones stay queryable, never runnable.
            record = _LiveRecord(
                spec=spec, client_id=task.client_id,
                state=(TaskState.QUEUED if not task.terminal
                       else TaskState.COMPLETED if task.state == "completed"
                       else TaskState.FAILED))
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
            "task_id": record.spec.task_id,
            "client_id": record.client_id,
            "command": record.spec.command,
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
        now = time.monotonic()
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
        if self.shard_id is not None:
            peers = {
                shard: {"queued": info["queued"],
                        "age_s": max(0.0, now - info["t"]),
                        "caps": list(info.get("caps", ())),
                        "health": info.get("health")}
                for shard, info in list(self._peer_depths.items())
            }
            snapshot["federation"] = {
                "shard_id": self.shard_id,
                "peers": peers,
                "steals_granted": self._m_steals_granted.value,
                "stolen_in": self._m_stolen_in.value,
                "stolen_out": self._m_stolen_out.value,
                "stolen_completed": self._m_stolen_done.value,
                "stolen_failed": self._m_stolen_failed.value,
            }
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
        links = list(self._peer_links.values())
        self._peer_links.clear()
        for link in links:
            link.close()
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

    # -- liveness monitor ------------------------------------------------------
    def _monitor_loop(self) -> None:
        sweep_cpu = self._m_handler_cpu["sweep"]
        while not self._closing.wait(self.monitor_interval):
            started = time.thread_time()
            try:
                self._sweep()
            except Exception:  # a sweep must never kill the monitor
                pass
            sweep_cpu.inc(time.thread_time() - started)

    def _sweep(self) -> None:
        """The monitor's share of a sweep — watchdogs, peer-link
        upkeep, compaction; what falls due in dispatcher state is
        posted to the loop as one :meth:`_expire`."""
        now = time.monotonic()
        self._loop.call_soon(self._expire)
        qlen = len(self._queue)
        self._watchdog_tick(now, qlen, list(self._executors.values()))
        if self.shard_id is not None:
            self._federation_tick(now, qlen)
        # Journal hygiene: retire a long tail off the hot path (the
        # monitor thread).  The journal compacts from its own table of
        # durable rows, so no dispatcher state view is captured here —
        # there is no snapshot-vs-append race to get wrong.
        journal = self.journal
        if journal is not None and journal.should_compact():
            journal.compact()

    def _expire(self) -> None:
        """The loop's share of a sweep: sample the completed counter
        for the dispatch rate, evict executors silent past the
        heartbeat deadline, replay dispatches past ``replay_timeout``,
        and push whatever is queued to the idle (re-arming idle peer
        shards' steal hint)."""
        started = time.thread_time()
        now = time.monotonic()
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
                    executor.busy.discard(record.spec.task_id)
                    executor.notified = False
                notifies += self._settle([(record, None, 0.0)],
                                         record.executor_id, lost=reason)
            self._notify_clients(notifies)
        if self._queue:
            for executor in self._executors.values():
                if not executor.busy:
                    executor.notified = False
            self._wake_idle()
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

    def _watchdog_tick(self, now: float, qlen: int,
                       executors: list[_ExecutorSession]) -> None:
        """Evaluate every watchdog into the ``degraded`` reasons list.

        Runs on the monitor thread each sweep; transitions (a reason
        appearing) land in the flight ring so a later dump shows when
        degradation started, not just that it existed at dump time.
        """
        # Peer links have no local capacity.
        idle = sum(1 for e in executors
                   if not e.busy and not e.executor_id.startswith(PEER_PREFIX))
        reasons = []
        stall = self._stall.observe(now, qlen, self._h_dispatch.count, idle)
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
            "uptime_s": time.monotonic() - self._started,
        }

    # -- flight dumps ----------------------------------------------------------
    def _flight_extra(self) -> dict:
        """Dump-time context: the exact open-task inventory, so the
        doctor never has to reconstruct it from a (possibly wrapped)
        event ring."""
        return {
            "inflight": [r.spec.task_id for r in list(self._records.values())
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
            executor.last_seen = time.monotonic()

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
        tasks = [task_from_dict(t) for t in raw_specs]
        # Admission control: the whole bundle is accepted or refused
        # atomically — partial acceptance would force clients to diff
        # their bundles against an ack they cannot correlate.
        if self.queue_limit is not None and tasks:
            qlen = len(self._queue)
            if qlen + len(tasks) > self.queue_limit:
                self._m_rejects.inc()
                self.flight.record(fl.SUBMIT_REJECT, client_id,
                                   bundle=len(tasks), queued=qlen,
                                   limit=self.queue_limit)
                session.conn.send(
                    Message(MessageType.SUBMIT_REJECT, sender="dispatcher",
                            payload={"retry_after": REJECT_RETRY_AFTER,
                                     "queued": qlen,
                                     "limit": self.queue_limit})
                )
                return
        bundle = len(tasks)
        # Dedupe against known ids and within the bundle (first
        # occurrence wins): a client retrying a SUBMIT whose ack was
        # lost (or rejected bundle it re-sends) must not double-enqueue
        # — resubmission is idempotent per task id.  Each fresh record
        # keeps the wire dict its spec arrived as, verbatim: dispatch
        # re-serialises this shared dict instead of rebuilding it.
        #
        # A duplicate of an already-settled task (resubmission after a
        # lost ack, or a reused journal directory) must still converge:
        # its original CLIENT_NOTIFY may have gone out long ago, so the
        # stored result is re-pushed to the submitter below.  The
        # future's first-wins rule dedupes on the client.
        fresh: dict[str, _LiveRecord] = {}
        settled_dupes: list[_Notify] = []
        for spec, raw in zip(tasks, raw_specs):
            known = self._records.get(spec.task_id)
            if known is not None:
                if known.result is not None:
                    settled_dupes.append((client_id, known.result, known))
            elif spec.task_id not in fresh:
                fresh[spec.task_id] = _LiveRecord(
                    spec=spec, client_id=client_id,
                    spec_dict=raw if isinstance(raw, dict) else None)
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
                    payload={"accepted": len(tasks)})
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
        finished = [result_to_dict(record.result)
                    for record in self._records.values()
                    if record.client_id == client_id and record.result is not None]
        session.conn.send(
            Message(MessageType.RESULTS, sender="dispatcher", payload={"results": finished})
        )

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
        # Receipt alone refreshes ``last_seen`` (see _Session._handle).
        # Executors piggy-back a compact stats dict; it becomes their
        # session's telemetry row.  Only sessions that completed
        # REGISTER have a row — a raw peer spraying junk heartbeats
        # must not mint one.
        role = session.role
        shard = msg.payload.get("shard")
        if (
            self.shard_id is not None
            and isinstance(shard, dict)
            and shard.get("id")
            and (role is None or role[0] == "peer")
        ):
            # Federation gossip.  A non-federated dispatcher (``shard_id
            # is None``) skips this branch, falls through, and drops
            # the frame on the unregistered-session floor — it never
            # advertises the "steal" capability, so a peer never sends
            # it a STEAL frame.
            self._on_peer_gossip(session, msg, shard)
            return
        if role is None or role[0] != "executor":
            return
        executor = self._executors.get(role[1])
        stats = stats_from_payload(msg.payload)
        if executor is not None and stats is not None:
            executor.telemetry = stats

    # -- federation protocol ---------------------------------------------------
    def _gossip_message(self, rsvp: bool) -> Message:
        """Our side of the depth gossip, as a HEARTBEAT frame."""
        payload: dict = {
            "shard": {
                "id": self.shard_id,
                "caps": ["steal"],
                "stats": {"queued": len(self._queue)},
                # Fleet health rides the gossip leg: peers store the
                # last observation, so /fleet can report a shard's
                # degradation even after the shard itself dies.
                "health": {
                    "status": "degraded" if self._degraded else "ok",
                    "degraded": list(self._degraded),
                },
            }
        }
        if rsvp:
            # Ask the receiver for its gossip in return.  Replies never
            # set it, so gossip cannot ping-pong forever.
            payload["rsvp"] = True
        return Message(MessageType.HEARTBEAT, sender="dispatcher", payload=payload)

    def _on_peer_gossip(self, session: "_Session", msg: Message, shard: dict) -> None:
        """An inbound peer shard's depth gossip (HEARTBEAT + ``shard``).

        The first gossip frame on a session is its REGISTER: the
        session becomes a ``peer`` role and the peer a pseudo-executor
        ``peer:<id>`` so stolen-out tasks reuse the executor machinery
        (busy accounting, in-flight replay on drop, liveness eviction).
        """
        peer_id = str(shard.get("id"))
        if peer_id == self.shard_id:
            return
        if session.role is None:
            session.role = ("peer", peer_id)
        elif session.role[1] != peer_id:
            return  # a session cannot change shard identity mid-stream
        self._ensure_peer_session(peer_id, session.conn)
        self._touch(PEER_PREFIX + peer_id)
        caps = [c for c in (shard.get("caps") or ()) if isinstance(c, str)]
        self.flight.record(fl.GOSSIP, peer_id)
        self._note_peer_depth(peer_id, shard.get("stats") or {}, caps,
                              health=shard.get("health"))
        if msg.payload.get("rsvp"):
            session.conn.send(self._gossip_message(rsvp=False))

    def _ensure_peer_session(self, peer_id: str, conn: Connection) -> _ExecutorSession:
        """Register (or refresh) the pseudo-executor for a peer shard."""
        executor_id = PEER_PREFIX + peer_id
        existing = self._executors.get(executor_id)
        if existing is not None:
            if existing.conn is conn:
                return existing
            # A reconnecting peer supersedes its old (likely half-open)
            # session; its in-flight stolen-out tasks replay here.
            self._drop_executor(executor_id, reason="peer-reconnect")
        executor = _ExecutorSession(executor_id, conn,
                                    pipeline=STEAL_BATCH_MAX)
        self._executors[executor_id] = executor
        return executor

    def _note_peer_depth(self, peer_id: str, stats: dict, caps: list[str],
                         health: Optional[dict] = None) -> None:
        """Record a peer's gossiped queue depth (thief-side input to
        the steal decision; stale entries age out via PEER_DEPTH_TTL)
        and its self-reported health (the fleet plane's peer-observed
        view)."""
        try:
            queued = int(stats.get("queued", 0))
        except (TypeError, ValueError):
            queued = 0
        self._peer_depths[peer_id] = {
            "queued": max(0, queued),
            "caps": caps,
            "health": health if isinstance(health, dict) else None,
            "t": time.monotonic(),
        }

    def _local_idle_capacity(self) -> int:
        """Spare slots on real (non-peer) executors — what a steal
        could actually put to work right now."""
        return sum(e.capacity() for e in list(self._executors.values())
                   if not e.executor_id.startswith(PEER_PREFIX))

    def _on_steal_request(self, session: "_Session", msg: Message) -> None:
        """Donor side of work stealing: grant queued (never in-flight)
        tasks to an idle peer, bounded by our own surplus."""
        role = session.role
        if role is None or role[0] != "peer" or self.shard_id is None:
            return
        peer_id = role[1]
        executor = self._ensure_peer_session(peer_id, session.conn)
        self.flight.record(fl.STEAL_REQUEST, peer_id)
        try:
            want = int(msg.payload.get("want", 0))
        except (TypeError, ValueError):
            want = 0
        granted: list[_LiveRecord] = []
        if want > 0:
            # Keep enough queued work to feed our own idle capacity
            # (plus the floor); only the surplus travels.
            surplus = len(self._queue) - max(self._local_idle_capacity(),
                                             STEAL_MIN_QUEUE)
            grant = min(want, STEAL_BATCH_MAX, surplus)
            if grant > 0:
                granted = self._claim_many(executor, grant, mode="steal")
        reply = Message(
            MessageType.STEAL_GRANT, sender="dispatcher",
            payload={
                "shard": self.shard_id,
                # The attempt echo: the thief returns it with each
                # result so a donor-side replay in the meantime makes
                # the late result stale instead of double-settling.
                "tasks": [{"task": task_to_dict(record.spec),
                           "attempt": record.attempts}
                          for record in granted],
            },
        )
        # An empty grant still goes out: it clears the thief's
        # outstanding-request flag so it can try another peer.
        session.conn.send(reply)
        self._mark_delivered_many(granted, executor)
        if granted:
            self._m_steals_granted.inc()
            self._m_stolen_out.inc(len(granted))
            self.flight.record(fl.STEAL_GRANT, peer_id, tasks=len(granted))

    def _ingest_stolen(self, donor_shard: str, entries: list) -> None:
        """Thief side: accept a STEAL_GRANT's tasks into our own
        queue, journalled with their origin before the first dispatch.

        The peer link posts it from its own thread.  Journalling is
        append-only (no commit barrier — this runs on the loop thread):
        a crash inside the flush window loses the steal, which the
        donor's replay timeout covers.  Duplicate
        grants (donor replayed after dropping us) refresh the attempt
        echo; a duplicate of an already-settled task immediately
        re-returns the stored result so both shards converge.
        """
        accepted: dict[str, _LiveRecord] = {}
        resend: list[_Notify] = []
        client_id = PEER_PREFIX + donor_shard
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            try:
                spec = task_from_dict(entry.get("task") or {})
                attempt = int(entry.get("attempt", 0))
            except (KeyError, TypeError, ValueError):
                continue
            record = self._records.get(spec.task_id) or accepted.get(spec.task_id)
            if record is not None:
                record.origin_attempt = attempt
                if record.state.terminal and record.result is not None:
                    resend.append((record.client_id, record.result, record))
                continue
            accepted[spec.task_id] = _LiveRecord(
                spec=spec, client_id=client_id,
                origin_shard=donor_shard, origin_attempt=attempt)
        # Append-only, no commit barrier (see above).
        self._admit(list(accepted.values()), "stolen", (("stolen", True),))
        if accepted:
            self._m_stolen_in.inc(len(accepted))
            self.flight.record(fl.STEAL_INGEST, donor_shard,
                               tasks=len(accepted))
            self._wake_idle()
        if resend:
            self._notify_clients(resend)

    def _return_stolen(self, donor_shard: str, settled: list[_Notify]) -> None:
        """Send settled stolen-task results home over the donor's peer
        link.  Delivered results are acked + evicted like client
        notifies; an unreachable donor leaves them terminal and
        un-acked, so a re-grant after the donor recovers re-returns
        the stored result instead of re-running the task."""
        link = self._peer_links.get(donor_shard)
        entries = []
        for _, result, record in settled:
            exec_seconds = 0.0
            if record.timeline.dispatched:
                exec_seconds = max(
                    0.0, record.timeline.completed - record.timeline.dispatched)
            entries.append({"result": result_to_dict(result),
                            "attempt": record.origin_attempt,
                            "exec": {"seconds": exec_seconds}})
        if link is None or not link.send_results(entries):
            return
        self._mark_acked(settled)

    def _mark_acked(self, settled: list[_Notify]) -> None:
        """The frame carrying *settled* left this process: journal the
        delivery so recovery knows which results the receiver may have
        seen.  (Buffered send ≠ receipt — the ``acked`` bit is a
        best-effort delivery marker, not an end-to-end ack; the
        client-side future dedupes any re-notify.)  One journal record
        covers the whole frame — ``ids`` keeps the hot path at one
        append per flush, not one per task."""
        acked_ids = []
        for _, result, record in settled:
            record.acked = True
            acked_ids.append(result.task_id)
        self._journal_append("acked", "", ids=acked_ids)
        self._evict_settled(acked_ids)

    def add_peer(self, shard_id: str, endpoint) -> None:
        """Join this shard to a peer (one direction of the mesh).

        Creates the outbound :class:`~repro.live.federation.PeerLink`
        this shard gossips over and steals through; the peer learns of
        us from the link's first gossip frame.  A full mesh is
        N*(N-1) calls, made by the federation wiring, not by users.
        """
        if self.shard_id is None:
            raise RuntimeError("add_peer() requires a dispatcher with a shard_id")
        from repro.live.federation import PeerLink

        if shard_id not in self._peer_links:
            self._peer_links[shard_id] = PeerLink(
                self, shard_id, Endpoint.parse(endpoint), key=self.key)

    def _federation_tick(self, now: float, qlen: int) -> None:
        """Per-sweep federation duties (monitor thread): gossip over
        every peer link, then steal when this shard is starved (empty
        queue, spare executor capacity) and a fresh-depth peer
        advertises work."""
        links = list(self._peer_links.items())
        for _, link in links:
            link.tick(now)
        if qlen:
            return
        idle = self._local_idle_capacity()
        if idle <= 0:
            return
        depth_floor = max(1, STEAL_MIN_QUEUE)
        depths = dict(self._peer_depths)  # entries are replaced, never mutated
        target = None
        best = 0
        for shard, link in links:
            info = depths.get(shard)
            if info is None or now - info["t"] > PEER_DEPTH_TTL:
                continue  # never steal on stale gossip
            if "steal" not in info.get("caps", ()):
                continue  # the peer does not grant steals
            if not link.ready:
                continue
            if info["queued"] >= depth_floor and info["queued"] > best:
                best = info["queued"]
                target = link
        if target is not None:
            target.maybe_steal(min(idle, STEAL_BATCH_MAX))

    def _steal_hint(self, link) -> None:
        """A donor NOTIFYed our peer link: it has queued work.  Steal
        eagerly if we are starved — without waiting for the next sweep."""
        if self._queue:
            return
        idle = self._local_idle_capacity()
        if idle > 0 and link.ready:
            link.maybe_steal(min(idle, STEAL_BATCH_MAX))

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
        executor_id = PEER_PREFIX + role[1] if is_peer else role[1]
        # A "results" list whose entries each carry their own attempt
        # echo and exec window — one frame (and one ack) for a whole
        # executor-side batch.  The frame is validated whole before it
        # mutates anything: a malformed entry is skipped — its task
        # stays DISPATCHED and in ``busy`` for the normal replay paths —
        # so it cannot strand the frame's good entries mid-settle.
        entries: list[tuple[dict, Optional[int], float]] = []
        for item in msg.payload.get("results", ()):
            if not isinstance(item, dict):
                continue
            payload = item.get("result")
            attempt = item.get("attempt")
            exec_info = item.get("exec") or {}
            if (
                not isinstance(payload, dict)
                or not isinstance(payload.get("task_id"), str)
                or not isinstance(exec_info, dict)
                or not (attempt is None or isinstance(attempt, int))
            ):
                continue
            try:
                exec_seconds = float(exec_info.get("seconds", 0.0))
            except (TypeError, ValueError):
                continue
            if math.isfinite(exec_seconds):
                entries.append((payload, attempt, exec_seconds))
        if not entries:
            return
        executor = self._executors.get(executor_id)
        if executor is not None:
            for payload, _, _ in entries:
                executor.busy.discard(payload["task_id"])
            executor.notified = False
        settles: list[tuple[_LiveRecord, TaskResult, float]] = []
        stale = 0
        for payload, echoed_attempt, exec_seconds in entries:
            record = self._records.get(payload["task_id"])
            if record is None:
                continue
            # DISPATCHED is the state a result is expected in;
            # only the others pay for the ``terminal`` property.
            state = record.state
            if state is not TaskState.DISPATCHED and state.terminal:
                continue
            if echoed_attempt is not None and echoed_attempt != record.attempts:
                # A superseded attempt (the replay timer already
                # re-dispatched this task): drop the stale result.
                stale += 1
                continue
            # The result adopts its record's timeline (what _settle hands
            # the client anyway) and task id string — the frame's decoded
            # copies are garbage once the frame is.
            result = result_from_dict(payload, record.timeline)
            result.task_id = record.spec.task_id
            if state is TaskState.QUEUED:
                # The replay timer requeued this attempt: its failure
                # is already a retry; a success settles, out of the queue.
                if not result.ok:
                    stale += 1
                    continue
                try:
                    self._queue.remove(result.task_id)
                except ValueError:
                    pass
            if not (is_peer and result.executor_id):
                # Peer-returned results keep the remote executor's
                # identity when the thief filled it in.
                result.executor_id = executor_id
            settles.append((record, result, exec_seconds))
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
                row = {"k": "submit", "id": record.spec.task_id,
                       "spec": _wal_object(task_to_dict(record.spec)),
                       "client": record.client_id}
                if record.origin_shard:
                    row["origin"] = {"shard": record.origin_shard,
                                     "attempt": record.origin_attempt}
                wal.append(row)
            journal.append_many(wal)
            if durable and not journal.commit():
                return False
        table = self._records
        enqueue_attrs = (("reason", reason),)
        # One shared attrs tuple per client, not one per task.
        by_client: dict[str, tuple] = {}
        queued: list[str] = []
        rows: list[tuple] = []
        for record in records:
            task_id = record.spec.task_id
            table[task_id] = record
            if record.state is not TaskState.QUEUED:
                continue
            record.timeline.submitted = now
            attrs = by_client.get(record.client_id)
            if attrs is None:
                attrs = by_client[record.client_id] = (
                    ("client", record.client_id), *submit_attrs)
            rows.append((task_id, "submit", now, None, 0, attrs))
            rows.append((task_id, "enqueue", now, None,
                         record.attempts + 1, enqueue_attrs))
            queued.append(task_id)
        self.spans.record_many(rows)
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

        One clock reading, one span call and one WAL append cover the
        burst.  The dispatch rows ride the journal's flush window, so a
        crash may lose the last ~20 ms of them — recovery then replays
        those dispatches (at-least-once).
        """
        now = self._now()
        attrs = executor.dispatch_attrs(mode)
        adopted = mode == "adopted"
        executor_id = executor.executor_id
        busy = executor.busy
        rows: list[tuple] = []
        wal: Optional[list[dict]] = [] if self.journal is not None else None
        for record in records:
            if not adopted:
                record.attempts += 1
            record.state = TaskState.DISPATCHED
            record.executor_id = executor_id
            record.delivered = adopted
            record.dispatch_mode = mode
            record.timeline.dispatched = now
            task_id = record.spec.task_id
            busy.add(task_id)
            rows.append((task_id, "notify", now, None, record.attempts, attrs))
            if wal is not None:
                row = {"k": "dispatch", "id": task_id,
                       "attempt": record.attempts, "executor": executor_id}
                if adopted:
                    row["adopted"] = True
                wal.append(row)
        self.spans.record_many(rows)
        if wal:
            self.journal.append_many(wal)

    def _mark_delivered_many(
        self, records: list[_LiveRecord], executor: _ExecutorSession
    ) -> None:
        """The WORK/ack frame carrying *records* left this process.

        The "pull" spans for the whole frame flush in one
        ``record_many`` call, not one span call per task.  A record no
        longer dispatched here (a fault-injected close inside the send
        already requeued it) is skipped.
        """
        executor_id = executor.executor_id
        rows = []
        latencies = []
        # One clock reading for the frame: it left in one send.
        now = self._now()
        for record in records:
            if record.state is TaskState.DISPATCHED and record.executor_id == executor_id:
                record.delivered = True
                rows.append((
                    record.spec.task_id, "pull", now, None,
                    record.attempts,
                    executor.dispatch_attrs(record.dispatch_mode),
                ))
                latencies.append(now - record.timeline.submitted)
        if rows:
            self.spans.record_many(rows)
            self._h_dispatch.observe_many(latencies)
            self.flight.record(fl.FRAME_TX, "WORK", tasks=len(rows),
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
        so the exec span is anchored at result arrival.

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
        if lost is not None:
            lost_exec = (executor_attr, ("synthetic", True), ("seconds", 0.0))
            lost_result = (executor_attr, ("synthetic", True),
                           ("outcome", "fail"), ("reason", lost))
        rows: list[tuple] = []
        wal: list[dict] = []
        exec_samples: list[float] = []
        e2e: list[float] = []
        notifies: list[_Notify] = []
        retries: list[_LiveRecord] = []
        quarantined: list[tuple[str, int, str]] = []
        completed = failed = 0
        for record, result, exec_seconds in settles:
            task_id = record.spec.task_id
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
                rows.append((task_id, "exec", now - exec_seconds, now, attempts,
                             (executor_attr, ("seconds", exec_seconds))))
                rows.append((task_id, "result", now, None, attempts, result_attrs))
            elif record.delivered and attempts > max_retries:
                ok, outcome = False, "fail"
                result = TaskResult(task_id, return_code=1, error=lost,
                                    executor_id=executor_id)
                rows.append((task_id, "exec", now, None, attempts, lost_exec))
                rows.append((task_id, "result", now, None, attempts, lost_result))
            else:
                outcome = "retry"
            if outcome == "retry":
                retries.append(record)
                continue
            record.state = TaskState.COMPLETED if ok else TaskState.FAILED
            record.timeline.completed = now
            result.attempts = attempts
            result.timeline = record.timeline
            record.result = result
            # Wire-only state: a settled task is not dispatched again
            # unless dlq_retry requeues it, and _spec_dict() rebuilds it.
            record.spec_dict = None
            if ok:
                completed += 1
                if stolen:
                    self._m_stolen_done.inc()
            else:
                failed += 1
                if stolen:
                    self._m_stolen_failed.inc()
            e2e.append(now - record.timeline.submitted)
            if journal is not None:
                wal.append({"k": "result", "id": task_id, "outcome": outcome,
                            "result": _wal_object(result_to_dict(result))})
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
            notifies.append((record.client_id, result, record))
        self.spans.record_many(rows)
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
        task_id = record.spec.task_id
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
        self.spans.record_many([(task_id, "enqueue", now, None,
                                 record.attempts + 1, (("reason", reason),))])

    def _record_acks(self, notifies: list[_Notify], attrs: tuple) -> None:
        """The ``ack`` spans closing the settled attempts' chains: after
        the RESULT_ACK went out (*attrs* say to whom and whether it
        left), or synthetic, from :meth:`_settle`."""
        if notifies:
            now = self._now()
            self.spans.record_many([
                (record.spec.task_id, "ack", now, None, record.attempts, attrs)
                for _, _, record in notifies
            ])

    # -- dispatch internals --------------------------------------------------------
    @staticmethod
    def _spec_dict(record: _LiveRecord) -> dict:
        """The task spec's wire dict, built at most once per task."""
        data = record.spec_dict
        if data is None:
            data = task_to_dict(record.spec)
            record.spec_dict = data
        return data

    def _fill_task_payload(
        self, message: Message, claimed: list[_LiveRecord]
    ) -> None:
        """Attach claimed tasks to a WORK/RESULT_ACK message as a
        ``tasks`` list whose entries carry their own attempt (the
        executor echoes it on RESULT).  Spec dicts are the cached wire
        dicts — never rebuilt per frame.
        """
        message.payload["tasks"] = [
            {"task": self._spec_dict(record), "attempt": record.attempts}
            for record in claimed
        ]

    def _wake_idle(self) -> None:
        """Hand queued work to the idle.

        In table order, each executor with an empty busy set is pushed
        one WORK frame of up to its advertised depth, until the queue
        runs dry — what the first GET_WORK to answer a NOTIFY used to
        take, one round trip later.  A peer shard is never pushed work
        (stealing is explicit-request-only); an idle one gets the
        NOTIFY steal hint, once until the sweep re-arms it.
        """
        # A copy: a failed send drops its executor from the table.
        for executor in list(self._executors.values()):
            if not self._queue:
                return
            peer = executor.executor_id.startswith(PEER_PREFIX)
            if executor.busy or (peer and executor.notified):
                continue
            if peer:
                self._send_notify(executor)
            else:
                self._send_work(executor)

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

    def _send_notify(self, executor: _ExecutorSession) -> None:
        """The steal hint to an idle peer shard (shared NOTIFY bytes)."""
        executor.notified = True
        self.flight.record(fl.FRAME_TX, "NOTIFY", executor=executor.executor_id)
        try:
            executor.conn.send_encoded(self._notify_frame)
        except Exception:
            self._drop_executor(executor.executor_id, only_conn=executor.conn)

    def _notify_clients(self, notifies: list[_Notify]) -> None:
        """Push settled results, one CLIENT_NOTIFY frame per client.

        Results settled in the same batch and owned by the same client
        ride a single frame (``results`` list).
        """
        if not notifies:
            return
        by_client: dict[str, list[_Notify]] = {}
        stolen_home: dict[str, list[_Notify]] = {}
        for notify in notifies:
            client_id = notify[0]
            if client_id.startswith(PEER_PREFIX):
                # A settled stolen task: its "client" is the donor
                # shard, and the result goes home over the peer link.
                stolen_home.setdefault(
                    client_id[len(PEER_PREFIX):], []).append(notify)
            else:
                by_client.setdefault(client_id, []).append(notify)
        for donor_shard, settled in stolen_home.items():
            self._return_stolen(donor_shard, settled)
        for client_id, settled in by_client.items():
            client = self._clients.get(client_id)
            if client is None:
                continue
            payloads = []
            for _, result, _ in settled:
                payload = result_to_dict(result)
                stamps = _timeline_stamps(result.timeline)
                if stamps is not None:
                    payload["timeline"] = stamps
                payloads.append(payload)
            try:
                client.conn.send(
                    Message(MessageType.CLIENT_NOTIFY, sender="dispatcher",
                            payload={"results": payloads})
                )
            except Exception:
                continue  # client went away; results remain queryable
            self.flight.record(fl.FRAME_TX, "CLIENT_NOTIFY",
                               results=len(payloads))
            self._mark_acked(settled)

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
        if executor_id.startswith(PEER_PREFIX):
            # A dead peer's gossiped depth is no longer a steal target.
            self._peer_depths.pop(executor_id[len(PEER_PREFIX):], None)
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
            self._drop_executor(PEER_PREFIX + name, only_conn=session.conn,
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
        if self.role is not None and self.role[0] == "executor":
            # Any traffic proves liveness, not just heartbeats.
            self.dispatcher._touch(self.role[1])
        elif self.role is not None and self.role[0] == "peer":
            self.dispatcher._touch(PEER_PREFIX + self.role[1])
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
            self.conn.fault_role = self.role[0]
            adopt = getattr(self.conn, "adopt_identity", None)
            if adopt is not None:
                adopt(f"{self.role[0]}:{self.role[1]}")
