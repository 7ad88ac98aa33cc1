"""End-to-end task tracing: the span vocabulary and the chain check.

Every task settled through the live plane produces an ordered span
chain covering the full Figure 2 exchange::

    submit -> enqueue -> notify -> pull -> exec -> result -> ack

The dispatcher is the observer of record: it stamps each protocol step
on its own monotonic clock as one event in its ring
(:class:`repro.obs.flight.FlightRecorder`), and a task's chain is read
back from there.  Nothing trace-shaped crosses the wire: the
executor's measurement (the ``exec`` span's duration) rides the RESULT
entry with the attempt number the WORK entry carried, which is all it
takes to attach it to the right task *and attempt* even across
replays — the RADICAL-Pilot characterization lesson: record each
transition once, as one timestamped event, and derive every view from
that record.

Retried tasks re-enter the chain with a fresh ``enqueue`` span carrying
the new attempt number; chain-completeness is judged on the attempt
that actually settled the task (:func:`chain_errors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "SPAN_ORDER",
    "Span",
    "SpanCollector",
    "chain_errors",
]

#: Canonical span names in protocol order (one full attempt).
SPAN_ORDER: tuple[str, ...] = (
    "submit", "enqueue", "notify", "pull", "exec", "result", "ack",
)

_SPAN_RANK = {name: index for index, name in enumerate(SPAN_ORDER)}


@dataclass(frozen=True, slots=True)
class Span:
    """One step of one task attempt, on the dispatcher's clock."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    task_id: str
    attempt: int
    start: float
    end: float
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "task_id": self.task_id,
            "attempt": self.attempt,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.attrs)
        return (f"[{self.start:10.4f}s] {self.name:<8} attempt={self.attempt} "
                f"{details}").rstrip()


def chain_errors(task_id: str, spans: list[Span]) -> list[str]:
    """Why *task_id*'s chain *spans* is incomplete or disordered
    (empty = ok).

    The settling attempt is the attempt number on the final ``result``
    span; its spans (plus the shared ``submit``) must contain every
    canonical name, in protocol order, with non-decreasing timestamps.
    A chain the ring has cut at its head names the spans it lost.
    """
    errors: list[str] = []
    if not spans:
        return [f"{task_id}: no trace recorded"]
    # Global monotonicity: record order must never go back in time.
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.start - 1e-9:
            errors.append(
                f"{task_id}: span {cur.name}@{cur.start:.6f} precedes "
                f"{prev.name}@{prev.start:.6f}"
            )
        if cur.parent_id != prev.span_id:
            errors.append(
                f"{task_id}: span {cur.name} parent {cur.parent_id} != "
                f"previous span id {prev.span_id} (orphan span)"
            )
    final_results = [s for s in spans if s.name == "result"]
    if not final_results:
        errors.append(f"{task_id}: no result span")
        return errors
    settle_attempt = final_results[-1].attempt
    settling = [
        s for s in spans
        if s.attempt == settle_attempt or s.name == "submit"
    ]
    names = [s.name for s in settling]
    missing = [name for name in SPAN_ORDER if name not in names]
    if missing:
        errors.append(f"{task_id}: settling attempt {settle_attempt} "
                      f"missing spans {missing}")
    if names and names[0] != "submit":
        errors.append(f"{task_id}: chain does not open with submit: {names[0]}")
    # The canonical order must hold over the final dispatch segment
    # (an undelivered requeue legitimately repeats enqueue/notify
    # under the same attempt number, so earlier segments may rewind).
    last_enqueue = max(
        (i for i, n in enumerate(names) if n == "enqueue"), default=0
    )
    segment = names[last_enqueue:]
    ranked = [_SPAN_RANK[n] for n in segment]
    if any(b <= a for a, b in zip(ranked, ranked[1:])):
        errors.append(f"{task_id}: settling dispatch segment out of "
                      f"protocol order: {segment}")
    return errors


def __getattr__(name: str) -> Any:
    # SpanCollector subclasses the ring in repro.obs.flight, which
    # imports this module, so it is looked up on first use.
    if name == "SpanCollector":
        from repro.obs.flight import SpanCollector

        return SpanCollector
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
