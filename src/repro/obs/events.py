"""Structured lifecycle event log (JSONL) for the live plane.

Every task and executor lifecycle transition can be recorded as one
:class:`Event` carrying *both* clocks:

* ``t_mono`` — ``time.monotonic()`` at emission, for durations and
  ordering (immune to wall-clock steps);
* ``t_wall`` — ``time.time()``, so a log lines up with external logs.

The log keeps a bounded in-memory ring (endurance-safe) and, when
constructed with a path, streams each event as one JSON line as it
happens.  ``repro events replay <file>`` reads a log back and
reconstructs a timeline summary (:func:`replay_summary`).

Emission is designed to be cheap enough for the dispatcher's hot path
but still **off by default** there: the dispatcher only emits task
events when a log was explicitly attached (``repro live
--events-out``), keeping the measured telemetry overhead budget honest
(see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

__all__ = [
    "Event",
    "EventLog",
    "read_events_jsonl",
    "replay_summary",
]

#: Canonical event kinds emitted by the live dispatcher.
TASK_SUBMIT = "task-submit"
TASK_DISPATCH = "task-dispatch"
TASK_RETRY = "task-retry"
TASK_SETTLE = "task-settle"
TASK_DLQ = "task-dlq"
TASK_DLQ_RETRY = "task-dlq-retry"
SUBMIT_REJECT = "submit-reject"
EXECUTOR_REGISTER = "executor-register"
EXECUTOR_EVICT = "executor-evict"
EXECUTOR_DROP = "executor-drop"
CLIENT_CONNECT = "client-connect"
DISPATCHER_RECOVER = "dispatcher-recover"
#: Federation: work-stealing lifecycle.
PEER_GOSSIP = "peer-gossip"
STEAL_GRANT = "steal-grant"
STEAL_INGEST = "steal-ingest"


@dataclass(frozen=True, slots=True)
class Event:
    """One lifecycle transition, stamped on both clocks."""

    kind: str
    subject: str
    t_mono: float
    t_wall: float
    attrs: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "t_mono": self.t_mono,
            "t_wall": self.t_wall,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Bounded in-memory ring of events with optional JSONL streaming.

    ``enabled=False`` builds a null log: ``emit`` returns immediately
    after one attribute check, so components can hold an always-present
    log object without paying for it.
    """

    def __init__(
        self,
        path: Optional[Union[str, "os.PathLike[str]"]] = None,
        capacity: int = 65536,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.path = os.fspath(path) if path is not None else None
        self._ring: "deque[Event]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._fh = None
        if self.enabled and self.path is not None:
            self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, kind: str, subject: str = "", **attrs: Any) -> Optional[Event]:
        """Record one event; no-op (returns ``None``) when disabled."""
        if not self.enabled:
            return None
        event = Event(
            kind=kind,
            subject=subject,
            t_mono=time.monotonic(),
            t_wall=time.time(),
            attrs=tuple(sorted(attrs.items())),
        )
        with self._lock:
            self._ring.append(event)
            if self._fh is not None:
                self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        return event

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write the buffered events to *path* atomically; returns count."""
        from repro.obs.exporters import atomic_writer

        events = self.events()
        with atomic_writer(path) as fh:
            for event in events:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        return len(events)

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    self._fh.close()
                finally:
                    self._fh = None

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<EventLog {state} buffered={len(self)} path={self.path}>"


def read_events_jsonl(path: Union[str, "os.PathLike[str]"]) -> list[Event]:
    """Parse an event log back into :class:`Event` records.

    Blank lines are skipped; a truncated trailing line (the writer died
    mid-record) is tolerated and dropped rather than raising, so a log
    from a crashed run still replays.
    """
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            events.append(
                Event(
                    kind=str(data.get("kind", "")),
                    subject=str(data.get("subject", "")),
                    t_mono=float(data.get("t_mono", 0.0)),
                    t_wall=float(data.get("t_wall", 0.0)),
                    attrs=tuple(sorted(dict(data.get("attrs", {})).items())),
                )
            )
    return events


def replay_summary(events: Iterable[Event]) -> dict[str, Any]:
    """Reconstruct a timeline summary from an event stream.

    Durations come from the monotonic clock; the wall-clock bounds are
    reported alongside for correlation with external logs.
    """
    events = sorted(events, key=lambda e: e.t_mono)
    kinds: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    executors: set[str] = set()
    dropped: set[str] = set()
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.kind == TASK_SETTLE:
            outcome = str(event.get("outcome", "unknown"))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        elif event.kind == EXECUTOR_REGISTER:
            executors.add(event.subject)
        elif event.kind in (EXECUTOR_DROP, EXECUTOR_EVICT):
            dropped.add(event.subject)
    duration = events[-1].t_mono - events[0].t_mono if len(events) > 1 else 0.0
    settled = kinds.get(TASK_SETTLE, 0)
    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "duration_s": duration,
        "wall_start": events[0].t_wall if events else None,
        "wall_end": events[-1].t_wall if events else None,
        "submitted": kinds.get(TASK_SUBMIT, 0),
        "settled": settled,
        "outcomes": dict(sorted(outcomes.items())),
        "retries": kinds.get(TASK_RETRY, 0),
        "throughput_tasks_per_s": settled / duration if duration > 0 else None,
        "executors_registered": len(executors),
        "executors_dropped": len(dropped),
    }
