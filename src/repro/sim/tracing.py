"""Protocol/event tracing for simulations.

A :class:`Tracer` is a bounded ring buffer of structured trace events.
Components call ``tracer.emit(kind, **fields)``; tests and debugging
sessions filter with :meth:`events` / :meth:`count` or dump a readable
log with :meth:`format`.  Keeping the buffer bounded makes tracing safe
to leave enabled on multi-million-event runs.

The dispatcher accepts an optional tracer and emits one event per
protocol step (submit / dispatch / complete / retry / gc), mirroring
Figure 2's message numbering.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    kind: str
    fields: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.time:12.4f}] {self.kind:<12} {details}".rstrip()


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._tallies: TallyCounter = TallyCounter()
        self.total_emitted = 0

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record one event (oldest events fall off past capacity)."""
        self._events.append(TraceEvent(time, kind, tuple(sorted(fields.items()))))
        self._tallies[kind] += 1
        self.total_emitted += 1

    def events(
        self,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> list[TraceEvent]:
        """Buffered events, optionally filtered by kind and predicate."""
        out: Iterable[TraceEvent] = self._events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if predicate is not None:
            out = (e for e in out if predicate(e))
        return list(out)

    def count(self, kind: str) -> int:
        """Total events of *kind* ever emitted (not just buffered)."""
        return self._tallies[kind]

    def kinds(self) -> dict[str, int]:
        """All-time tallies by kind."""
        return dict(self._tallies)

    def format(self, last: int = 50) -> str:
        """Human-readable dump of the most recent *last* events."""
        tail = list(self._events)[-last:]
        return "\n".join(str(event) for event in tail)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"<Tracer buffered={len(self._events)} total={self.total_emitted}>"
