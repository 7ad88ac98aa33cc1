"""The flight recorder: one bounded, columnar ring of structured events.

Post-mortem debugging of a many-task framework hinges on knowing what
each component did in the seconds *before* it died — which frames
moved, which queue transitions fired, which steals were granted —
without paying for always-on logging.  The flight recorder is that
black box: every live-plane component (dispatcher, executor, client,
IOLoop, federation shard) appends compact events to a
:class:`FlightRecorder`, a ring of ``array`` columns that keeps the
newest *capacity* events.  The dispatcher's ring is also its span
store: each task transition is recorded once, as one event in the span
vocabulary, and both the task chains (``repro trace``, ``/tasks/<id>``)
and the flight kinds below are read-side views of that one record.

On crash, SIGTERM, oracle violation, or an explicit ``POST
/debug/dump``, the ring is flushed to a versioned JSON dump that
``repro doctor`` (:mod:`repro.obs.doctor`) reconstructs timelines
from and cross-correlates across shards by task id.

Dump format (version 1, see ``docs/PROTOCOL.md``)::

    {
      "version": 1,
      "component": "dispatcher",        # who recorded
      "shard_id": "shard-0" | null,     # federation identity
      "reason": "crash" | "sigterm" | "oracle" | "manual" | ...,
      "t_wall": 1722900000.5,           # wall clock at dump
      "t_mono": 12345.6,                # monotonic clock at dump
      "wall_minus_mono": ...,           # convert event t -> wall time
      "extra": {...},                   # dumper-supplied context
      "events": [{"t": mono, "kind": ..., "subject": ..., ...attrs}]
    }

Event monotonic stamps convert to wall time via ``t +
wall_minus_mono``, which is how the doctor aligns dumps taken by
different processes on the same host.

The ring is also the lifecycle log: :meth:`FlightRecorder.follow`
(``repro live --events-out``) writes what the ring holds and then every
later event to a JSONL file, one line per event on both clocks::

    {"t_mono": ..., "t_wall": ..., "kind": ..., "subject": ..., "attrs": {...}}

``repro events replay`` reads it back (:func:`read_events_jsonl`,
:func:`replay_summary`) with the same kind vocabulary as the dumps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from typing import Any, Iterable, Optional

from repro.obs.trace import _SPAN_RANK, SPAN_ORDER, Span, chain_errors

__all__ = [
    "FLIGHT_DUMP_VERSION",
    "FlightRecorder",
    "SpanCollector",
    "flight_dump_path",
    "read_flight_dump",
    "load_flight_dumps",
    "read_events_jsonl",
    "replay_summary",
    # event kinds
    "FRAME_RX",
    "FRAME_TX",
    "QUEUE_ENQUEUE",
    "QUEUE_CLAIM",
    "QUEUE_REQUEUE",
    "TASK_SETTLE",
    "STEAL_REQUEST",
    "STEAL_GRANT",
    "STEAL_INGEST",
    "JOURNAL_COMMIT",
    "JOURNAL_COMPACT",
    "LOOP_ITER",
    "GOSSIP",
    "WATCHDOG",
    "EXECUTOR_REGISTER",
    "EXECUTOR_EVICT",
    "EXECUTOR_DROP",
    "CLIENT_CONNECT",
    "SUBMIT_REJECT",
    "RECOVER",
    "DLQ_ADD",
    "DLQ_RETRY",
]

#: Version stamp written into every dump; bump on schema changes.
FLIGHT_DUMP_VERSION = 1

#: Default ring capacity (events), and the most events a dump holds.
#: 16k events cover the last seconds to minutes of a busy component at
#: a few MB of dump, worst case.
DEFAULT_CAPACITY = 16384

# -- event kinds -------------------------------------------------------------
# Dotted namespaces keep the doctor's filters cheap (str.startswith).
FRAME_RX = "frame.rx"          # subject: message type name
FRAME_TX = "frame.tx"          # subject: message type name
QUEUE_ENQUEUE = "queue.enq"    # subject: task id
QUEUE_CLAIM = "queue.claim"    # subject: task id
QUEUE_REQUEUE = "queue.requeue"  # subject: task id
TASK_SETTLE = "task.settle"    # subject: task id; attrs: outcome
STEAL_REQUEST = "steal.request"  # subject: peer shard id
STEAL_GRANT = "steal.grant"    # subject: peer shard id; attrs: tasks
STEAL_INGEST = "steal.ingest"  # subject: donor shard id; attrs: tasks
JOURNAL_COMMIT = "journal.commit"  # attrs: records, seconds
JOURNAL_COMPACT = "journal.compact"  # attrs: seconds, live_tasks, rows, bytes
LOOP_ITER = "loop.iter"        # subject: loop name; attrs: lag_s
GOSSIP = "gossip"              # subject: peer shard id
WATCHDOG = "watchdog"          # subject: check name; attrs: reason
# Per session or per incident, never per ok task.  None is ``queue.*`` or
# ``task.*``: the doctor reads those two namespaces as open-task
# transitions.
EXECUTOR_REGISTER = "executor.register"  # subject: executor id; attrs: reconnect, pipeline
EXECUTOR_EVICT = "executor.evict"  # subject: executor id (heartbeat timeout); attrs: reason
EXECUTOR_DROP = "executor.drop"  # subject: executor id; attrs: reason
CLIENT_CONNECT = "client.connect"  # subject: client id; attrs: resumed
SUBMIT_REJECT = "submit.reject"  # subject: client id; attrs: bundle, queued+limit | reason
RECOVER = "dispatcher.recover"  # attrs: tasks, requeued, truncated, from_snapshot
DLQ_ADD = "dlq.add"            # subject: task id; attrs: attempts, error
DLQ_RETRY = "dlq.retry"        # subject: task id


#: Kind codes below this are task transitions: a transition's code is
#: its name's index in SPAN_ORDER.  Any other kind is numbered on first use.
_TASK = len(SPAN_ORDER)
_ENQUEUE, _NOTIFY, _EXEC, _RESULT = (
    SPAN_ORDER.index(name) for name in ("enqueue", "notify", "exec", "result"))
#: ``enqueue`` reasons that put a task in the queue for the first time.
_ADMITTED = frozenset({"submit", "stolen", "recovered"})
#: Events the columns grow by at a time: a ring that records nothing
#: allocates nothing, and one that records little stays small.
_GROW = 2048
_ATTEMPT_MAX = 2**31 - 1


def _flight_view(code: int, attrs: tuple) -> Optional[tuple[str, Optional[dict]]]:
    """Task transition *code* as the ``(kind, attrs)`` dumps have always
    used (docs/OBSERVABILITY.md, "The event ring"), or ``None`` for a
    transition that never had a flight kind."""
    attrs = dict(attrs)
    if code == _ENQUEUE:
        reason = attrs.get("reason")
        if reason in _ADMITTED:
            return QUEUE_ENQUEUE, None
        if reason == "undelivered":
            return None
        return (DLQ_RETRY if reason == "dlq-retry" else QUEUE_REQUEUE), None
    if code == _NOTIFY:
        adopted = attrs.get("mode") == "adopted"
        return QUEUE_CLAIM, ({"mode": "adopted"} if adopted else None)
    if code == _RESULT and attrs.get("outcome") in ("ok", "fail"):
        return TASK_SETTLE, {"outcome": attrs["outcome"]}
    return None


class FlightRecorder:
    """One bounded, columnar ring of every event a component records.

    Each event is one row across the columns — stamp, kind code,
    attempt, back link, subject, attrs — and the newest *capacity*
    events are kept (oldest overwritten first), so the ring is safe to
    leave on for endurance runs.  Events are stamped on one clock:
    seconds since :attr:`t0`, a monotonic reading taken at
    construction; dumps and the follow add :attr:`t0` back.

    Two vocabularies share the rows.  :meth:`record` appends any kind
    (``frame.*``, ``journal.*``, ``executor.*``, ``dlq.add``, ...) as
    given.  :meth:`record_many` appends task transitions in the span
    vocabulary (:data:`SPAN_ORDER`), each chained to its task's
    previous event by the back column, so :meth:`chain` walks a task's
    events without scanning the ring; a chain older than the ring is
    cut at its head.  Every event is an instant but ``exec``, the one
    span with a duration: it ends where its chain's next event (the
    ``result`` recorded with it) begins.  The flight view —
    :meth:`snapshot`, :meth:`dump`, :meth:`follow` — shows transitions
    under the kinds dumps have always used (:func:`_flight_view`).

    The dispatcher's loop, monitor and journal threads share one ring,
    so every append and read takes its lock — one round trip per batch.
    """

    __slots__ = ("component", "shard_id", "capacity", "t0", "_lock", "_kinds",
                 "_codes", "_follow", "recorded", "_t", "_code", "_attempt", "_back",
                 "_subject", "_attrs", "_head")

    def __init__(self, component: str, shard_id: Optional[str] = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.component = component
        self.shard_id = shard_id
        self.capacity = capacity
        self.t0 = time.monotonic()
        self._lock = threading.Lock()
        self._kinds: list[str] = list(SPAN_ORDER)
        self._codes: dict[str, int] = {}
        # (file, wall_minus_mono) while a JSONL follow is attached.
        self._follow: Optional[tuple[Any, float]] = None
        self.clear()

    def clear(self) -> None:
        with self._lock:
            # Events ever recorded; event *seq* sits at ``seq % capacity``.
            self.recorded = 0
            self._t = array("d")
            self._code = array("B")
            self._attempt = array("i")  # 32-bit, saturating
            self._back = array("I")  # seq distance to the task's previous event
            self._subject: list[str] = []
            self._attrs: list[Any] = []
            self._head: dict[str, int] = {}  # task id -> seq of its newest event

    def now(self) -> float:
        """The ring's clock: seconds since :attr:`t0`."""
        return time.monotonic() - self.t0

    # -- recording -----------------------------------------------------------
    def record(self, kind: str, subject: str = "", **attrs: Any) -> None:
        """Append one event of *kind*, stamped now."""
        with self._lock:
            code = self._codes.get(kind)
            if code is None:
                code = self._codes[kind] = len(self._kinds)
                self._kinds.append(kind)
            first = self.recorded
            self._store(code, subject, time.monotonic() - self.t0, 0, attrs or None)
            if self._follow is not None:
                self._write_follow(first)

    def record_many(self, rows: Iterable[tuple]) -> None:
        """Append task transitions, one event per row, under one lock
        round trip.

        Each row is ``(task_id, name, start, end, attempt, attrs_items)``
        with *name* in :data:`SPAN_ORDER` and *attrs_items* a tuple of
        key/value pairs, stored as given (so callers share one tuple
        across rows).  *end* is not stored (see the class docstring).
        An unknown name raises ``ValueError``; the rows before it stay.
        """
        with self._lock:
            first = self.recorded
            try:
                for task_id, name, start, _, attempt, attrs in rows:
                    code = _SPAN_RANK.get(name)
                    if code is None:
                        raise ValueError(
                            f"unknown span name {name!r} (expected one of {SPAN_ORDER})")
                    self._store(code, task_id, start, attempt, attrs)
            finally:
                if self._follow is not None:
                    self._write_follow(first)

    def _store(self, code: int, subject: str, t: float, attempt: int, attrs: Any) -> None:
        """Write the next event (the lock is held)."""
        n = self.recorded
        capacity = self.capacity
        i = n % capacity
        if n >= capacity:
            # Overwriting the oldest event: was it its task's newest?
            if self._code[i] < _TASK:
                old = self._subject[i]
                if self._head.get(old) == n - capacity:
                    del self._head[old]
        elif i == len(self._subject):
            self._grow()
        back = 0
        if code < _TASK:
            head = self._head.get(subject)
            if head is not None:
                back = n - head
                # Chains are causal: the executor-measured exec start
                # must not rewind behind its predecessor.
                floor = self._t[head % capacity]
                if t < floor:
                    t = floor
            self._head[subject] = n
        try:
            self._attempt[i] = attempt
        except OverflowError:
            self._attempt[i] = max(-_ATTEMPT_MAX, min(attempt, _ATTEMPT_MAX))
        self._t[i] = t
        self._code[i] = code
        self._back[i] = back
        self._subject[i] = subject
        self._attrs[i] = attrs
        self.recorded = n + 1

    def _grow(self) -> None:
        """Extend every column by one step of zeroed rows."""
        rows = min(_GROW, self.capacity - len(self._subject))
        self._subject.extend([""] * rows)
        self._attrs.extend([None] * rows)
        for column in (self._t, self._code, self._attempt, self._back):
            column.frombytes(bytes(rows * column.itemsize))

    # -- the span view -------------------------------------------------------
    def chain(self, task_id: str) -> list[Span]:
        """*task_id*'s events in the ring as its span chain, oldest
        first (empty if the ring holds none)."""
        rows = []
        with self._lock:
            seq = self._head.get(task_id)
            oldest = self.recorded - self.capacity
            while seq is not None:
                i = seq % self.capacity
                rows.append((seq, self._t[i], self._code[i], self._attempt[i],
                             self._attrs[i]))
                back = self._back[i]
                seq = seq - back if back and seq - back >= oldest else None
        if not rows:
            return []
        rows.reverse()
        trace_id = f"tr-{rows[0][0]:08x}-{task_id}"
        last = len(rows) - 1
        # Span ids are chain positions; the parent is the previous span.
        return [Span(trace_id, k + 1, k or None, SPAN_ORDER[code], task_id, attempt,
                     t, rows[k + 1][1] if code == _EXEC and k < last else t,
                     tuple(sorted(attrs)))
                for k, (_, t, code, attempt, attrs) in enumerate(rows)]

    def chain_errors(self, task_id: str, spans: Optional[list[Span]] = None) -> list[str]:
        """Why *task_id*'s chain is incomplete or disordered (empty = ok)."""
        return chain_errors(task_id, self.chain(task_id) if spans is None else spans)

    def chain_complete(self, task_id: str) -> bool:
        """True when the settling attempt covers the full span order."""
        return not self.chain_errors(task_id)

    def task_ids(self) -> list[str]:
        """The tasks with a chain in the ring, oldest chain first."""
        with self._lock:
            return list(self._head)

    def all_spans(self) -> list[Span]:
        """Every chain in the ring, chain-ordered."""
        return [span for task_id in self.task_ids()
                for span in self.chain(task_id)]

    @property
    def traces(self) -> int:
        """Tasks with a chain in the ring."""
        return len(self._head)

    @property
    def evicted(self) -> int:
        """Events overwritten by newer ones."""
        return max(0, self.recorded - self.capacity)

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    # -- the flight view -----------------------------------------------------
    def _event(self, seq: int) -> Optional[tuple]:
        """Event *seq* as ``(t_mono, kind, subject, attrs)``, or ``None``
        for a task transition with no flight kind (the lock is held)."""
        i = seq % self.capacity
        code = self._code[i]
        attrs = self._attrs[i]
        if code < _TASK:
            view = _flight_view(code, attrs)
            if view is None:
                return None
            kind, attrs = view
        else:
            kind = self._kinds[code]
        return (self._t[i] + self.t0, kind, self._subject[i], attrs)

    def snapshot(self, limit: Optional[int] = None) -> list[tuple]:
        """The flight view of the ring, oldest first — its newest
        *limit* events when given."""
        events = []
        with self._lock:
            for seq in range(self.recorded - 1, max(0, self.recorded - self.capacity) - 1, -1):
                event = self._event(seq)
                if event is not None:
                    events.append(event)
                    if len(events) == limit:
                        break
        events.reverse()
        return events

    # -- JSONL follow --------------------------------------------------------
    def follow(self, path: "str | os.PathLike[str]") -> None:
        """Append the ring's flight view to *path* as JSONL, then every
        later event as it is recorded, until :meth:`close`."""
        fh = open(path, "a", encoding="utf-8")
        with self._lock:
            # One offset for the whole file, as a dump's ``wall_minus_mono``.
            self._follow = (fh, time.time() - time.monotonic())
            self._write_follow(0)

    def _write_follow(self, first: int) -> None:
        """Write events *first* onward to the follow (the lock is held)."""
        fh, wall_minus_mono = self._follow
        for seq in range(max(first, self.recorded - self.capacity), self.recorded):
            event = self._event(seq)
            if event is not None:
                t, kind, subject, attrs = event
                fh.write(json.dumps(
                    {"t_mono": t, "t_wall": t + wall_minus_mono, "kind": kind,
                     "subject": subject, "attrs": attrs or {}}, sort_keys=True) + "\n")

    def close(self) -> None:
        """Flush and detach the follow, if any; the ring keeps recording."""
        with self._lock:
            follow, self._follow = self._follow, None
        if follow is not None:
            follow[0].close()

    # -- dumps ---------------------------------------------------------------
    def dump(self, path: str, reason: str = "manual",
             extra: Optional[dict] = None) -> str:
        """Flush the newest :data:`DEFAULT_CAPACITY` events of the flight
        view to a versioned JSON dump at *path*.

        Written via temp-file + rename so a dump interrupted by the
        process dying never leaves a half-parseable artifact.  Returns
        the path written.
        """
        t_wall = time.time()
        t_mono = time.monotonic()
        events = []
        for t, kind, subject, attrs in self.snapshot(DEFAULT_CAPACITY):
            event: dict = {"t": t, "kind": kind, "subject": subject}
            if attrs:
                event.update(attrs)
            events.append(event)
        payload = {
            "version": FLIGHT_DUMP_VERSION,
            "component": self.component,
            "shard_id": self.shard_id,
            "reason": reason,
            "t_wall": t_wall,
            "t_mono": t_mono,
            "wall_minus_mono": t_wall - t_mono,
            "extra": extra or {},
            "events": events,
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        from repro.obs.exporters import atomic_writer

        with atomic_writer(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        return path

    def dump_to_dir(self, directory: str, reason: str = "manual",
                    extra: Optional[dict] = None) -> str:
        """Dump into *directory* under a collision-resistant name."""
        # The shard id joins the filename: in-process federations dump
        # N same-named components from one PID in the same millisecond.
        label = (f"{self.component}-{self.shard_id}" if self.shard_id
                 else self.component)
        return self.dump(flight_dump_path(directory, label, reason),
                         reason=reason, extra=extra)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.component} "
                f"{len(self)}/{self.capacity}>")


class SpanCollector(FlightRecorder):
    """A ring under the span store's old name and call shapes, kept
    only for ``bench/layers.py`` (which times ``begin_many`` then
    ``record_many`` on a fresh collector per bundle) and span-level
    tests.  The dispatcher records into its :class:`FlightRecorder`."""

    __slots__ = ()

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__("spans", capacity=capacity)

    def begin_many(self, task_ids: Iterable[str]) -> None:
        """Nothing to do: a chain opens at its task's first event."""

    begin = begin_many

    def record(self, task_id: str, name: str, start: float,  # type: ignore[override]
               end: Optional[float] = None, attempt: int = 0, **attrs: Any) -> None:
        """One :meth:`record_many` row."""
        self.record_many([(task_id, name, start, end, attempt, tuple(attrs.items()))])


def flight_dump_path(directory: str, component: str, reason: str) -> str:
    """A dump filename unique per (component, reason, time, pid).

    A restarted shard dumping into the same directory as its dead
    predecessor must not overwrite the crash evidence.
    """
    stamp = int(time.time() * 1000)
    safe = component.replace(":", "-").replace("/", "-")
    return os.path.join(
        directory, f"flight-{safe}-{reason}-{stamp}-{os.getpid()}.json")


def read_flight_dump(path: str) -> dict:
    """Parse one dump; raises ``ValueError`` on wrong/missing version."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != FLIGHT_DUMP_VERSION:
        raise ValueError(
            f"{path}: flight dump version {version!r} "
            f"(this reader speaks {FLIGHT_DUMP_VERSION})")
    payload.setdefault("events", [])
    payload["path"] = path
    return payload


def load_flight_dumps(path: str) -> list[dict]:
    """Load a dump file, or every ``flight-*.json`` in a directory.

    Unparseable files in a directory are skipped (a crash can truncate
    anything); a single explicit file path raises instead.
    """
    if os.path.isdir(path):
        dumps = []
        for name in sorted(os.listdir(path)):
            if not (name.startswith("flight-") and name.endswith(".json")):
                continue
            try:
                dumps.append(read_flight_dump(os.path.join(path, name)))
            except (OSError, ValueError, json.JSONDecodeError):
                continue
        return dumps
    return [read_flight_dump(path)]


def events_between(
    dump: dict, t_lo: float = float("-inf"), t_hi: float = float("inf")
) -> Iterable[dict]:
    """The dump's events whose monotonic stamp falls in [t_lo, t_hi]."""
    for event in dump.get("events", ()):
        t = event.get("t", 0.0)
        if t_lo <= t <= t_hi:
            yield event


def read_events_jsonl(path: "str | os.PathLike[str]") -> list[dict]:
    """Parse a followed JSONL file back into event dicts.

    Blank lines are skipped; a truncated trailing line (the writer died
    mid-record) is dropped rather than raising, so a log from a crashed
    run still replays.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                data = json.loads(line)
                events.append({
                    "kind": str(data.get("kind", "")),
                    "subject": str(data.get("subject", "")),
                    "t_mono": float(data.get("t_mono", 0.0)),
                    "t_wall": float(data.get("t_wall", 0.0)),
                    "attrs": dict(data.get("attrs") or {}),
                })
            except (AttributeError, TypeError, ValueError):
                continue  # blank, truncated, or not an event object
    return events


def replay_summary(events: Iterable[dict]) -> dict[str, Any]:
    """Reconstruct a timeline summary from a followed event stream.

    Durations come from the monotonic clock; the wall-clock bounds are
    reported alongside for correlation with external logs.
    """
    events = sorted(events, key=lambda e: e["t_mono"])
    kinds: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    executors: set[str] = set()
    dropped: set[str] = set()
    for event in events:
        kind = event["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == TASK_SETTLE:
            outcome = str(event["attrs"].get("outcome", "unknown"))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        elif kind == EXECUTOR_REGISTER:
            executors.add(event["subject"])
        elif kind in (EXECUTOR_DROP, EXECUTOR_EVICT):
            dropped.add(event["subject"])
    duration = events[-1]["t_mono"] - events[0]["t_mono"] if len(events) > 1 else 0.0
    settled = kinds.get(TASK_SETTLE, 0)
    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "duration_s": duration,
        "wall_start": events[0]["t_wall"] if events else None,
        "wall_end": events[-1]["t_wall"] if events else None,
        "submitted": kinds.get(QUEUE_ENQUEUE, 0),
        "settled": settled,
        "outcomes": dict(sorted(outcomes.items())),
        "retries": kinds.get(QUEUE_REQUEUE, 0),
        "throughput_tasks_per_s": settled / duration if duration > 0 else None,
        "executors_registered": len(executors),
        "executors_dropped": len(dropped),
    }
