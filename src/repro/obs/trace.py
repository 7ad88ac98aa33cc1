"""End-to-end task tracing: spans and the collector.

Every task settled through the live plane produces an ordered span
chain covering the full Figure 2 exchange::

    submit -> enqueue -> notify -> pull -> exec -> result -> ack

The dispatcher is the observer of record: it opens the trace when the
SUBMIT bundle lands, stamps each protocol step on its own monotonic
clock, and closes the chain when the result is acknowledged.  Nothing
trace-shaped crosses the wire: the executor's measurement (the ``exec``
span's duration) rides the RESULT entry with the attempt number the
WORK entry carried, which is all it takes to attach it to the right
task *and attempt* even across replays — the RADICAL-Pilot
characterization lesson: record each transition once, as one
timestamped event, and derive every view from that record.

Retried tasks re-enter the chain with a fresh ``enqueue`` span carrying
the new attempt number; chain-completeness is judged on the attempt
that actually settled the task (:meth:`SpanCollector.chain_complete`).
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = [
    "SPAN_ORDER",
    "Span",
    "SpanCollector",
]

#: Canonical span names in protocol order (one full attempt).
SPAN_ORDER: tuple[str, ...] = (
    "submit", "enqueue", "notify", "pull", "exec", "result", "ack",
)

_SPAN_RANK = {name: index for index, name in enumerate(SPAN_ORDER)}

#: Span rows each trace holds in the fixed-width columns; the rest of a
#: longer chain spills to a per-slot list.
_WIDTH = 8
#: Slots the columns grow by at a time: ``SpanCollector()`` allocates
#: nothing, and a collector that sees few tasks stays small.
_GROW_SLOTS = 256
_ATTEMPT_MAX = 2**31 - 1


def _trace_id(seq: int, task_id: str) -> str:
    """Human-greppable trace id: the collector's open order + the task."""
    return f"tr-{seq:08x}-{task_id}"


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


class SpanCollector:
    """Thread-safe per-task span store with bounded trace count.

    The collector keeps at most *capacity* traces (oldest evicted
    first), so tracing is safe to leave enabled on endurance runs.

    Storage is columnar, not an object graph per task: recording runs
    seven times per task on the dispatch hot path and reading a handful
    of times per run, so a span costs a few ``array`` cells and
    :class:`Span` objects exist only on the read side.  Every trace
    owns one *slot* — ``seq % capacity``, where *seq* is the trace's
    open order, which makes slot reuse exactly oldest-first eviction —
    and a slot is :data:`_WIDTH` rows in each column; a longer chain
    (retries, undelivered requeues) spills its tail to a per-slot list.
    Span ids are row positions (1-based; the parent is the previous
    row) and the trace id is formatted from ``(seq, task_id)`` on read,
    so neither is stored.  Columns grow with the slots in use.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq: dict[str, int] = {}
        self._next_seq = 0
        # Per-slot columns: the owning task id (eviction unlinks it),
        # rows recorded (columns plus spill), and the last row's start
        # (the causal clamp's floor).
        self._task: list[Optional[str]] = []
        self._count = array("I")
        self._floor = array("d")
        # Per-row columns, _WIDTH cells per slot.  Attempts are 32-bit
        # and saturate: ``dlq_retry`` leaves them unbounded in principle.
        self._start = array("d")
        self._end = array("d")
        self._rank = array("B")
        self._attempt = array("i")
        self._attrs: list[Any] = []
        # slot -> rows past _WIDTH, as (start, end, rank, attempt, attrs).
        self._spill: dict[int, list[tuple]] = {}
        self.spans_recorded = 0
        self.traces_evicted = 0

    # -- recording -----------------------------------------------------------
    def begin(self, task_id: str) -> str:
        """Open (or reuse) the trace for *task_id*; returns its trace id."""
        with self._lock:
            return _trace_id(self._begin_locked(task_id), task_id)

    def begin_many(self, task_ids: Iterable[str]) -> None:
        """Open traces for a whole bundle under one lock round trip."""
        with self._lock:
            for task_id in task_ids:
                self._begin_locked(task_id)

    def _begin_locked(self, task_id: str) -> int:
        seq = self._seq.get(task_id)
        if seq is not None:
            return seq
        seq = self._next_seq
        self._next_seq = seq + 1
        slot = seq % self.capacity
        if seq >= self.capacity:
            # The slot's previous owner is the oldest live trace.  Its
            # attr refs stay until overwritten — bounded, and clearing
            # eight cells per begin is hot-path work for nothing.
            del self._seq[self._task[slot]]
            if self._spill:
                self._spill.pop(slot, None)
            self._count[slot] = 0
            self.traces_evicted += 1
        elif slot == len(self._task):
            self._grow()
        self._task[slot] = task_id
        self._seq[task_id] = seq
        return seq

    def _grow(self) -> None:
        """Extend every column by one step of zeroed slots."""
        slots = min(_GROW_SLOTS, self.capacity - len(self._task))
        self._task.extend([None] * slots)
        self._attrs.extend([()] * (slots * _WIDTH))
        for column, cells in (
            (self._count, slots), (self._floor, slots),
            (self._start, slots * _WIDTH), (self._end, slots * _WIDTH),
            (self._rank, slots * _WIDTH), (self._attempt, slots * _WIDTH),
        ):
            column.frombytes(bytes(cells * column.itemsize))

    def record(
        self,
        task_id: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        attempt: int = 0,
        **attrs: Any,
    ) -> None:
        """Append one span to *task_id*'s chain.

        The parent is the previously recorded span, so the chain order
        is the record order.  A span for an unknown task is dropped —
        no orphan traces are invented for stale deliveries.
        """
        self.record_many(
            [(task_id, name, start, end, attempt, tuple(attrs.items()))])

    def record_many(self, rows: Iterable[tuple]) -> None:
        """Append many spans under one lock round trip.

        Each row is ``(task_id, name, start, end, attempt, attrs_items)``
        with *attrs_items* a tuple of key/value pairs.  Rows append in
        order (chain order = row order); rows for unknown tasks are
        dropped, as in :meth:`record`.
        """
        with self._lock:
            self._append_locked(rows)

    def _append_locked(self, rows: Iterable[tuple]) -> None:
        rank_of = _SPAN_RANK.get
        seq_of = self._seq.get
        capacity = self.capacity
        count = self._count
        floor_of = self._floor
        starts = self._start
        ends = self._end
        ranks = self._rank
        attempts = self._attempt
        attrs_of = self._attrs
        recorded = 0
        try:
            for task_id, name, start, end, attempt, attrs_items in rows:
                rank = rank_of(name)
                if rank is None:
                    raise ValueError(
                        f"unknown span name {name!r} (expected one of {SPAN_ORDER})")
                seq = seq_of(task_id)
                if seq is None:
                    continue
                slot = seq % capacity
                n = count[slot]
                if n:
                    # Chains are causal: a span anchored on another
                    # clock (the executor-measured exec window) must
                    # not rewind behind its predecessor.
                    floor = floor_of[slot]
                    if start < floor:
                        if end is not None and end < floor:
                            end = floor
                        start = floor
                if end is None:
                    end = start
                if n < _WIDTH:
                    cell = slot * _WIDTH + n
                    starts[cell] = start
                    ends[cell] = end
                    ranks[cell] = rank
                    try:
                        attempts[cell] = attempt
                    except OverflowError:
                        attempts[cell] = max(-_ATTEMPT_MAX, min(attempt, _ATTEMPT_MAX))
                    attrs_of[cell] = tuple(attrs_items)
                else:
                    self._spill.setdefault(slot, []).append(
                        (start, end, rank, attempt, tuple(attrs_items)))
                floor_of[slot] = start
                # Last, so a row whose cells failed to store stays invisible.
                count[slot] = n + 1
                recorded += 1
        finally:
            self.spans_recorded += recorded

    # -- queries -------------------------------------------------------------
    def chain(self, task_id: str) -> list[Span]:
        """The ordered span chain for *task_id* (empty if unknown)."""
        with self._lock:
            seq = self._seq.get(task_id)
            if seq is None:
                return []
            slot = seq % self.capacity
            n = self._count[slot]
            base = slot * _WIDTH
            rows = [
                (self._start[cell], self._end[cell], self._rank[cell],
                 self._attempt[cell], self._attrs[cell])
                for cell in range(base, base + min(n, _WIDTH))
            ]
            if n > _WIDTH:
                rows += self._spill[slot]
        trace_id = _trace_id(seq, task_id)
        return [
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=span_id - 1 if span_id > 1 else None,
                name=SPAN_ORDER[rank],
                task_id=task_id,
                attempt=attempt,
                start=start,
                end=end,
                attrs=tuple(sorted(attrs)),
            )
            for span_id, (start, end, rank, attempt, attrs) in enumerate(rows, 1)
        ]

    def task_ids(self) -> list[str]:
        with self._lock:
            return list(self._seq)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seq)

    def all_spans(self) -> list[Span]:
        """Every buffered span, grouped by trace, chain-ordered."""
        return [span for task_id in self.task_ids()
                for span in self.chain(task_id)]

    # -- validation ----------------------------------------------------------
    def chain_complete(self, task_id: str) -> bool:
        """True when the settling attempt covers the full span order.

        The settling attempt is the attempt number on the final
        ``result`` span; its spans (plus the shared ``submit``) must
        contain every canonical name, in protocol order, with
        non-decreasing timestamps.
        """
        spans = self.chain(task_id)
        return not self.chain_errors(task_id, spans)

    def chain_errors(self, task_id: str, spans: Optional[list[Span]] = None) -> list[str]:
        """Why *task_id*'s chain is incomplete/disordered (empty = ok)."""
        if spans is None:
            spans = self.chain(task_id)
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

    def __repr__(self) -> str:
        return (f"<SpanCollector traces={len(self)} "
                f"spans={self.spans_recorded} evicted={self.traces_evicted}>")
