"""The flight recorder: a lock-cheap, bounded ring of structured events.

Post-mortem debugging of a many-task framework hinges on knowing what
each component did in the seconds *before* it died — which frames
moved, which queue transitions fired, which steals were granted —
without paying for always-on logging.  The flight recorder is that
black box: every live-plane component (dispatcher, executor, client,
IOLoop, federation shard) appends compact event tuples into a
``collections.deque(maxlen=...)`` ring.  Appends are GIL-atomic, so
the hot path takes **no lock**: one tuple build, one append.  The ring bounds memory; old events fall off the back.

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
from collections import deque
from typing import Any, Iterable, Optional

__all__ = [
    "FLIGHT_DUMP_VERSION",
    "FlightRecorder",
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

#: Default ring capacity (events). 16k events cover the last seconds
#: to minutes of a busy component at a few MB of dump, worst case.
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


class _FollowedRing(deque):
    """The ring while a JSONL follow is attached.

    ``append`` also writes the event as one line, so ``record()`` is
    the same tuple and append with or without a follow.
    The file has its own lock: the IOLoop, monitor and journal threads
    share the ring.
    """

    def __init__(self, events: Iterable[tuple], maxlen: Optional[int], fh) -> None:
        super().__init__(events, maxlen)
        self._fh = fh
        self._lock = threading.Lock()
        # One offset for the whole file, as a dump's ``wall_minus_mono``.
        self._wall_minus_mono = time.time() - time.monotonic()
        for event in self:
            self._write(event)

    def _write(self, event: tuple) -> None:
        t, kind, subject, attrs = event
        self._fh.write(json.dumps(
            {"t_mono": t, "t_wall": t + self._wall_minus_mono, "kind": kind,
             "subject": subject, "attrs": attrs or {}}, sort_keys=True) + "\n")

    def append(self, event: tuple) -> None:
        with self._lock:
            super().append(event)
            if self._fh is not None:
                self._write(event)

    def close(self) -> None:
        with self._lock:
            self._fh.close()
            self._fh = None


class FlightRecorder:
    """A bounded ring of ``(t_mono, kind, subject, attrs)`` tuples.

    ``record`` is the hot path and is deliberately lock-free: deque
    appends are atomic under the GIL, and a dump racing an append at
    worst misses (or double-sees) the newest event — harmless for a
    post-mortem artifact.  Hot callers pass no keyword attrs, so the
    common event costs a 4-tuple and nothing else.
    """

    __slots__ = ("component", "shard_id", "_ring")

    def __init__(
        self,
        component: str,
        shard_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.component = component
        self.shard_id = shard_id
        self._ring: deque = deque(maxlen=capacity)

    # -- hot path ------------------------------------------------------------
    def record(self, kind: str, subject: str = "", **attrs: Any) -> None:
        """Append one event."""
        self._ring.append((time.monotonic(), kind, subject, attrs or None))

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def snapshot(self) -> list[tuple]:
        """A point-in-time copy of the ring, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    # -- JSONL follow --------------------------------------------------------
    def follow(self, path: "str | os.PathLike[str]") -> None:
        """Append what the ring holds to *path* as JSONL, then every
        later event as it is recorded, until :meth:`close`.

        Attach before traffic: an event recorded by another thread
        while the rings are swapped may miss the file.
        """
        fh = open(path, "a", encoding="utf-8")
        self._ring = _FollowedRing(self._ring, self._ring.maxlen, fh)

    def close(self) -> None:
        """Flush and detach the follow, if any; the ring keeps recording."""
        ring = self._ring
        if isinstance(ring, _FollowedRing):
            self._ring = deque(ring, maxlen=ring.maxlen)
            ring.close()

    # -- dumps ---------------------------------------------------------------
    def dump(
        self,
        path: str,
        reason: str = "manual",
        extra: Optional[dict] = None,
    ) -> str:
        """Flush the ring to a versioned JSON dump at *path*.

        Written via temp-file + rename so a dump interrupted by the
        process dying never leaves a half-parseable artifact.  Returns
        the path written.
        """
        t_wall = time.time()
        t_mono = time.monotonic()
        events = []
        for t, kind, subject, attrs in list(self._ring):
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

    def dump_to_dir(
        self,
        directory: str,
        reason: str = "manual",
        extra: Optional[dict] = None,
    ) -> str:
        """Dump into *directory* under a collision-resistant name."""
        # The shard id joins the filename: in-process federations dump
        # N same-named components from one PID in the same millisecond.
        label = (f"{self.component}-{self.shard_id}" if self.shard_id
                 else self.component)
        return self.dump(
            flight_dump_path(directory, label, reason),
            reason=reason,
            extra=extra,
        )

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.component} "
                f"{len(self._ring)}/{self.capacity}>")


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
