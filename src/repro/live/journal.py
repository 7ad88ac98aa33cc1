"""Crash-safe write-ahead journal for the live dispatcher.

The dispatcher is the single point of failure the paper punts on
("reliable task dispatch" is delegated to the upper layer); here it
becomes crash-safe instead.  Every task lifecycle transition is one
append-only JSONL record:

=============  ==========================================================
``submit``     task accepted from a client (``spec`` + owning client)
``dispatch``   attempt ``n`` handed to an executor
``requeue``    attempt abandoned (failed result / replay / lost agent)
``result``     terminal settle (``ok``/``fail``) with the ``result``
``acked``      CLIENT_NOTIFY left this process (one record per flush,
               carrying every covered task id in ``ids``)
``dlq``        retry budget exhausted; task quarantined in the DLQ
``dlq-retry``  operator re-queued a quarantined task
=============  ==========================================================

A row's ``spec`` / ``result`` is the sparse wire object
(:func:`repro.live.protocol.task_to_dict` / ``result_to_dict``) minus
``task_id``, which the row's ``id`` carries; recovery parses it with
the same tolerant decoders the wire uses, so rows written in the
all-keys shape of older journals still load.

Durability model (see ``docs/RELIABILITY.md``):

* Appends land in an in-memory buffer; a flusher thread writes and
  ``fsync``\\ s them on the live plane's 20 ms batching window, so the
  journal costs one fsync per window, not one per task.
* :meth:`Journal.commit` is a group-commit barrier: it prods the
  flusher and blocks until everything appended so far is durable.  The
  dispatcher calls it once per SUBMIT bundle before acknowledging, so
  an acknowledged task can never be lost; dispatch/result records ride
  the window asynchronously (a crash may replay up to 20 ms of them —
  at-least-once, by design).
* Every record line carries a CRC32 over its JSON body.  A torn or
  bit-rotten tail (the process died mid-write) truncates cleanly at
  the last good record instead of poisoning recovery.
* Periodic compaction *rotates* the tail aside (atomic rename), opens
  a fresh tail for concurrent appends, folds old snapshot + rotated
  segment into a new ``snapshot.json`` via the atomic temp+rename
  writer, then deletes the segment.  No append — not even one racing
  the compaction — ever lands in a file that gets destroyed: records
  live in the rotated segment (folded) or the fresh tail (replayed).
  A crash at any point leaves a recoverable triple of
  snapshot + rotated segment + tail.

Recovery (:func:`recover`) replays snapshot+tail into a
:class:`RecoveredState`; the dispatcher re-enqueues every non-terminal
task and keeps terminal results queryable so reconnecting clients
resolve futures that settled before the crash.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

__all__ = [
    "Journal",
    "RecoveredTask",
    "RecoveredState",
    "journal_line",
    "parse_journal_line",
    "read_journal_tail",
    "recover",
    "iter_snapshot_and_tail",
    "strip_defaults",
    "SPEC_DEFAULTS",
    "RESULT_DEFAULTS",
]

#: Flush/fsync batching window in seconds — the same 20 ms the live
#: plane already uses for RESULT batching, so journalled durability
#: adds no new latency regime.
FLUSH_WINDOW = 0.02

#: Compact once the tail holds this many records (tunable per journal).
DEFAULT_COMPACT_EVERY = 50_000

SNAPSHOT_NAME = "snapshot.json"
TAIL_NAME = "journal.jsonl"
#: A tail renamed aside by an in-progress compaction.  Exists only
#: transiently (or after a crash mid-compaction, until the next boot
#: or compaction folds it); recovery replays it between snapshot and
#: tail — its records all precede the tail's.
ROTATED_NAME = TAIL_NAME + ".compacting"


# ---------------------------------------------------------------------------
# record codec
# ---------------------------------------------------------------------------
def journal_line(records: Union[dict[str, Any], list[dict[str, Any]]]) -> str:
    """Encode one record (or one batch of records) as ``crc32hex8 <json>``.

    A line's body is either a JSON object (a single record) or a JSON
    array (every record of one flush window).  Batching a window into
    one line matters for throughput: one ``json.dumps`` over the array
    costs a third of per-record encoding, and the line stays the atomic
    unit — a torn line loses exactly one not-yet-durable window, which
    is the crash-replay granularity anyway.  The CRC covers the exact
    JSON bytes that follow it, so corruption is detectable without
    trusting JSON error positions.
    """
    body = json.dumps(records, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def parse_journal_line(line: str) -> Optional[list[dict[str, Any]]]:
    """Decode one line into its records; ``None`` if torn or corrupt.

    Single-record lines come back as a one-element list so callers
    never care which form was written.
    """
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        decoded = json.loads(body)
    except ValueError:
        return None
    if isinstance(decoded, dict):
        return [decoded]
    if isinstance(decoded, list) and all(isinstance(r, dict) for r in decoded):
        return decoded
    return None


#: Wire-dict fields whose values match the parser defaults of
#: :func:`repro.live.protocol.task_from_dict`.  No longer on any hot
#: path: ``task_to_dict`` / ``result_to_dict`` emit the sparse form
#: themselves (from the dataclass defaults) and the dispatcher journals
#: that.  This table, :data:`RESULT_DEFAULTS` and
#: :func:`strip_defaults` stay importable and correct only because
#: ``bench/layers.py`` builds its isolated WAL rows with them; the next
#: ``benchmark`` PR can retire all three.
SPEC_DEFAULTS: dict[str, Any] = {
    "working_dir": ".",
    "env": [],
    "duration": 0.0,
    "reads": [],
    "writes": [],
    "runtime_estimate": None,
    "stage": "",
}

#: Same idea for ``result`` records and
#: :func:`repro.live.protocol.result_from_dict`.
RESULT_DEFAULTS: dict[str, Any] = {
    "return_code": 0,
    "stdout": "",
    "stderr": "",
    "error": "",
    "attempts": 1,
}

_MISSING = object()


def strip_defaults(data: dict[str, Any], defaults: dict[str, Any]) -> dict[str, Any]:
    """Drop keys whose value equals its parser default.

    Journal bandwidth is dispatcher CPU (the flusher's JSON encoding
    shares the GIL with the I/O loop), so every default field written
    per task is pure overhead on the hot path.  Nothing under ``src/``
    calls this any more (see :data:`SPEC_DEFAULTS`): on an already
    sparse wire object it is the identity.
    """
    return {k: v for k, v in data.items() if defaults.get(k, _MISSING) != v}


def read_journal_tail(path: Union[str, "os.PathLike[str]"]) -> tuple[list[dict], int]:
    """Read every valid record from a tail file.

    Returns ``(records, truncated)`` where *truncated* counts lines
    dropped at the first CRC/parse failure — replay stops there, since
    anything after a torn record cannot be trusted to be ordered.
    """
    records: list[dict] = []
    truncated = 0
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return records, truncated
    with fh:
        lines = fh.readlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        decoded = parse_journal_line(line)
        if decoded is None:
            truncated = sum(1 for rest in lines[index:] if rest.strip())
            break
        records.extend(decoded)
    return records, truncated


# ---------------------------------------------------------------------------
# recovery state
# ---------------------------------------------------------------------------
@dataclass
class RecoveredTask:
    """One task's state as reconstructed from snapshot + tail."""

    task_id: str
    spec: dict[str, Any]
    client_id: str
    state: str = "queued"  # queued | dispatched | completed | failed
    attempts: int = 0
    executor_id: str = ""
    result: Optional[dict[str, Any]] = None
    acked: bool = False
    in_dlq: bool = False
    dlq_error: str = ""
    #: Federation: set on tasks stolen from a peer shard —
    #: ``{"shard": donor_shard_id, "attempt": donor_attempt}``.  The
    #: receiving shard journals the steal as a submit record carrying
    #: this origin, so a recovered thief still knows which donor (and
    #: which donor-side attempt) its eventual result must echo.
    origin: Optional[dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("completed", "failed")

    def to_dict(self) -> dict[str, Any]:
        data = {
            "task_id": self.task_id,
            "spec": self.spec,
            "client_id": self.client_id,
            "state": self.state,
            "attempts": self.attempts,
            "executor_id": self.executor_id,
            "result": self.result,
            "acked": self.acked,
            "in_dlq": self.in_dlq,
            "dlq_error": self.dlq_error,
        }
        if self.origin is not None:
            data["origin"] = self.origin
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RecoveredTask":
        return cls(
            task_id=str(data["task_id"]),
            spec=dict(data.get("spec", {})),
            client_id=str(data.get("client_id", "")),
            state=str(data.get("state", "queued")),
            attempts=int(data.get("attempts", 0)),
            executor_id=str(data.get("executor_id", "")),
            result=data.get("result"),
            acked=bool(data.get("acked", False)),
            in_dlq=bool(data.get("in_dlq", False)),
            dlq_error=str(data.get("dlq_error", "")),
            origin=data.get("origin") if isinstance(data.get("origin"), dict) else None,
        )


@dataclass
class RecoveredState:
    """Everything :func:`recover` rebuilds from a journal directory."""

    tasks: dict[str, RecoveredTask] = field(default_factory=dict)
    #: Records replayed from the tail (after the snapshot).
    replayed: int = 0
    #: Tail lines dropped at a torn/corrupt record.
    truncated: int = 0
    #: Whether a snapshot contributed state.
    from_snapshot: bool = False

    def apply(self, record: dict[str, Any]) -> None:
        """Fold one journal record into the state (replay order)."""
        kind = record.get("k")
        task_id = str(record.get("id", ""))
        if kind == "acked" and "ids" in record:
            # The notify path journals one record per CLIENT_NOTIFY
            # flush, covering every result in it.
            for acked_id in record.get("ids") or ():
                task = self.tasks.get(str(acked_id))
                if task is not None:
                    task.acked = True
            return
        if not task_id:
            return
        if kind == "submit":
            if task_id not in self.tasks:  # resubmission is idempotent
                spec = dict(record.get("spec", {}))
                # Writers drop the spec's task_id (the record's "id"
                # carries it); restore it for the wire-dict parsers.
                spec.setdefault("task_id", task_id)
                origin = record.get("origin")
                self.tasks[task_id] = RecoveredTask(
                    task_id=task_id,
                    spec=spec,
                    client_id=str(record.get("client", "")),
                    origin=origin if isinstance(origin, dict) else None,
                )
            return
        task = self.tasks.get(task_id)
        if task is None:
            # A transition for a task we never saw submitted — the
            # submit record fell in a truncated window.  Ignore rather
            # than trust a half-story.
            return
        if task.terminal and kind in ("dispatch", "requeue", "result"):
            return  # stale transition journalled after the settle
        if kind == "dispatch":
            task.state = "dispatched"
            task.attempts = int(record.get("attempt", task.attempts + 1))
            task.executor_id = str(record.get("executor", ""))
        elif kind == "requeue":
            task.state = "queued"
            task.executor_id = ""
            task.attempts = int(record.get("attempt", task.attempts))
        elif kind == "result":
            task.state = "completed" if record.get("outcome") == "ok" else "failed"
            result = record.get("result")
            if isinstance(result, dict):
                result = dict(result)
                result.setdefault("task_id", task_id)
            task.result = result
        elif kind == "acked":
            task.acked = True
        elif kind == "dlq":
            task.in_dlq = True
            task.state = "failed"
            task.dlq_error = str(record.get("error", ""))
        elif kind == "dlq-retry":
            task.in_dlq = False
            task.dlq_error = ""
            task.state = "queued"
            task.attempts = 0
            task.result = None
            task.acked = False

    def pending(self) -> list[RecoveredTask]:
        """Non-terminal tasks, in task-id order (stable re-enqueue)."""
        return sorted(
            (t for t in self.tasks.values() if not t.terminal),
            key=lambda t: t.task_id,
        )


def _apply_snapshot(
    state: RecoveredState, snapshot_path: Union[str, "os.PathLike[str]"]
) -> None:
    """Load ``snapshot.json`` entries into *state* (no-op if absent)."""
    try:
        with open(snapshot_path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (FileNotFoundError, ValueError):
        return
    if not isinstance(snapshot, dict):
        return
    for entry in snapshot.get("tasks", ()):
        try:
            task = RecoveredTask.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            continue
        state.tasks[task.task_id] = task
    state.from_snapshot = True


def recover(directory: Union[str, "os.PathLike[str]"]) -> RecoveredState:
    """Rebuild dispatcher state from snapshot + rotated segment + tail.

    The rotated segment only exists after a crash mid-compaction; its
    records all precede the tail's, so replay order is snapshot, then
    segment, then tail.  A segment already folded into the snapshot
    (the crash hit between snapshot rename and segment unlink) is
    replayed once more on top of it — record application converges
    under exact re-sequencing, so the duplicate pass is harmless.
    """
    directory = os.fspath(directory)
    state = RecoveredState()
    _apply_snapshot(state, os.path.join(directory, SNAPSHOT_NAME))
    for name in (ROTATED_NAME, TAIL_NAME):
        records, truncated = read_journal_tail(os.path.join(directory, name))
        for record in records:
            state.apply(record)
        state.replayed += len(records)
        state.truncated += truncated
    return state


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------
class Journal:
    """Append-only WAL with group commit and snapshot compaction.

    Thread-safe: appends may come from any dispatcher thread (handlers
    run on the I/O loop, sweeps on the monitor thread); one flusher
    thread owns the file.
    """

    def __init__(
        self,
        directory: Union[str, "os.PathLike[str]"],
        flush_window: float = FLUSH_WINDOW,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        prune_settled: bool = False,
    ) -> None:
        if flush_window <= 0:
            raise ValueError("flush_window must be positive")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.flush_window = flush_window
        self.compact_every = compact_every
        #: Drop acked, settled, non-DLQ tasks from the snapshot at fold
        #: time.  Without this the snapshot accretes one entry per task
        #: forever, making each compaction (and final recovery) O(total
        #: tasks ever) — a million-task endurance run would spend its
        #: time re-serialising history.  The acked bit means the result
        #: already reached the client connection, so a recovered
        #: dispatcher has nothing left to do for the task; DLQ'd tasks
        #: are always retained for ``dlq retry``.
        self.prune_settled = prune_settled
        self.tail_path = os.path.join(self.directory, TAIL_NAME)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self.rotated_path = os.path.join(self.directory, ROTATED_NAME)
        # Complete a compaction a previous incarnation died inside of:
        # fold its rotated segment into the snapshot now, so recovery
        # debt stays bounded and this incarnation's compactions never
        # find a stale segment in the way of their rename.
        try:
            self._fold_rotated_segment()
        except OSError:
            pass  # recovery reads the segment in place; retried next compact
        self._fh = open(self.tail_path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Serialises every touch of the tail file — the flusher's
        #: write+fsync, compaction's close/rename/reopen, and the final
        #: close.  Lock order: ``_io_lock`` may wrap ``_cond``, never
        #: the reverse.
        self._io_lock = threading.Lock()
        self._buffer: list[dict] = []
        self._appended = 0  # records ever appended (this incarnation)
        self._flushed = 0   # records durable on disk
        self._tail_records = self._count_existing_tail()
        self._sync_requested = False
        self._closed = False
        self._abandoned = False
        self._failed = False  # unrecoverable write/fsync error
        self.counters = {
            "records": 0,
            "commits": 0,
            "flushes": 0,
            "compactions": 0,
        }
        # Flush-latency watchdog feed: last flush duration, worst
        # since drain, and when the last flush finished (monotonic).
        # Plain floats (GIL-atomic) read by the dispatcher's sweep.
        self.last_flush_s = 0.0
        self.max_flush_s = 0.0
        self.last_flush_t = time.monotonic()
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: each flushed batch records a ``journal.commit`` event.
        self.flight = None
        self._flusher = threading.Thread(
            target=self._flush_loop, name="journal-flusher", daemon=True
        )
        self._flusher.start()

    def _count_existing_tail(self) -> int:
        records, _ = read_journal_tail(self.tail_path)
        return len(records)

    # -- appends -------------------------------------------------------------
    def append(self, kind: str, task_id: str, **fields: Any) -> None:
        """Buffer one record; durable within the flush window.

        Deliberately cheap: the caller (often the dispatcher's I/O
        loop) only builds a dict and takes the lock — JSON encoding and
        the CRC happen on the flusher thread, off the dispatch path.
        """
        record = {"k": kind, "id": task_id}
        record.update(fields)
        with self._cond:
            if self._closed or self._failed:
                return
            self._buffer.append(record)
            self._appended += 1
            self.counters["records"] += 1

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Buffer pre-built records under a single lock acquisition.

        The submit path journals whole bundles (hundreds of tasks) at
        once; one lock round-trip instead of one per task.
        """
        if not records:
            return
        with self._cond:
            if self._closed or self._failed:
                return
            self._buffer.extend(records)
            self._appended += len(records)
            self.counters["records"] += len(records)

    def request_sync(self) -> None:
        """Wake the flusher now, without waiting for durability.

        Lets a caller that will :meth:`commit` shortly start the
        write+fsync early and overlap it with its own CPU work (the
        fsync releases the GIL); the later ``commit()`` barrier then
        finds most — often all — of the window already flushed.
        """
        with self._cond:
            if self._closed or self._failed:
                return
            self._sync_requested = True
            self._cond.notify_all()

    def commit(self, timeout: float = 5.0) -> bool:
        """Group-commit barrier: block until prior appends are durable.

        Returns ``False`` on timeout and on a closed or *failed*
        journal — a ``False`` means the appends are NOT known durable,
        and callers who promised durability (the SUBMIT ack path) must
        refuse rather than ack.  A failed journal returns immediately
        instead of burning the timeout: once a write or fsync has
        errored, no later barrier can ever succeed.
        """
        with self._cond:
            if self._closed or self._failed:
                return False
            target = self._appended
            self.counters["commits"] += 1
            self._sync_requested = True
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: self._flushed >= target or self._closed or self._failed,
                timeout,
            )
            return self._flushed >= target

    # -- flusher -------------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                # Sleep the *full* window unless a commit barrier (or
                # shutdown) needs the disk now: waking on mere buffer
                # occupancy would degrade group commit into one fsync
                # per record under load — the opposite of batching.
                self._cond.wait_for(
                    lambda: self._sync_requested or self._closed or self._failed,
                    self.flush_window,
                )
                if self._closed or self._failed:
                    return
                batch, self._buffer = self._buffer, []
                self._sync_requested = False
            if batch:
                self._write_batch(batch)
            else:
                with self._cond:
                    # A commit barrier with nothing to write: wake it.
                    self._cond.notify_all()

    def _write_batch(self, batch: list[dict]) -> None:
        started = time.monotonic()
        with self._io_lock:
            try:
                # One array line per window: a single json.dumps amortises
                # the per-record encoder overhead (~3x cheaper), and the
                # whole window stays atomic under the line's CRC.
                self._fh.write(journal_line(batch) + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                # A write or fsync error is fatal: _flushed can never
                # catch _appended again, so pretending otherwise would
                # leave every future commit() burning its full timeout
                # while acks silently stop being durable.  Fail the
                # journal loudly instead — commits return False at
                # once and the dispatcher refuses new submits.
                with self._cond:
                    self._failed = True
                    self._buffer.clear()
                    self._cond.notify_all()
                return
            took = time.monotonic() - started
            self.last_flush_s = took
            if took > self.max_flush_s:
                self.max_flush_s = took
            self.last_flush_t = time.monotonic()
            flight = self.flight
            if flight is not None:
                flight.record("journal.commit", "",
                              records=len(batch), seconds=round(took, 6))
            with self._cond:
                self._flushed += len(batch)
                self._tail_records += len(batch)
                self.counters["flushes"] += 1
                self._cond.notify_all()

    # -- compaction ----------------------------------------------------------
    @property
    def tail_records(self) -> int:
        with self._lock:
            return self._tail_records

    def should_compact(self) -> bool:
        with self._lock:
            return (self._tail_records >= self.compact_every
                    and not self._closed and not self._failed)

    def _fold_rotated_segment(self) -> None:
        """Fold the rotated segment (if any) into ``snapshot.json``.

        The new snapshot is exactly old snapshot ⊕ segment records —
        journal contents only, never the dispatcher's in-memory view,
        so there is no window in which a durable record is absent from
        both the snapshot and a surviving file.  The atomic temp+rename
        writer makes the swap all-or-nothing; the segment is unlinked
        only after the new snapshot is in place.
        """
        if not os.path.exists(self.rotated_path):
            return
        from repro.obs.exporters import atomic_writer

        state = RecoveredState()
        _apply_snapshot(state, self.snapshot_path)
        records, _ = read_journal_tail(self.rotated_path)
        for record in records:
            state.apply(record)
        tasks = list(state.tasks.values())
        if self.prune_settled:
            tasks = [t for t in tasks
                     if not (t.terminal and t.acked and not t.in_dlq)]
        with atomic_writer(self.snapshot_path) as fh:
            json.dump(
                {"version": 1,
                 "tasks": [t.to_dict() for t in tasks]},
                fh, sort_keys=True,
            )
        os.unlink(self.rotated_path)

    def compact(self) -> None:
        """Fold the tail into ``snapshot.json`` without losing appends.

        Rotation, not truncation: the tail is atomically renamed aside
        and a fresh tail opened under the I/O lock, so a record
        appended at *any* point during compaction lands either in the
        rotated segment (drained there before the rename, hence folded
        into the snapshot) or in the fresh tail (replayed on top of
        it) — never in a file that gets destroyed.  Crash windows:
        before the rename nothing has changed; after it, recovery
        reads snapshot + segment + tail; between the snapshot swap and
        the segment unlink, the segment is replayed once more over a
        snapshot that already folds it, which converges (application
        is idempotent under exact re-sequencing).
        """
        try:
            # A segment left by an earlier failed fold must be cleared
            # first — the rename below would silently clobber it.
            self._fold_rotated_segment()
        except OSError:
            return
        with self._cond:
            if self._closed or self._failed:
                return
            # Drain the buffer into the outgoing tail so the fold
            # covers everything appended before the rotation point.
            batch, self._buffer = self._buffer, []
        if batch:
            self._write_batch(batch)
        with self._cond:
            if self._closed or self._failed:
                return
        with self._io_lock:
            with self._cond:
                if self._closed or self._failed:
                    return
                try:
                    self._fh.close()
                    os.replace(self.tail_path, self.rotated_path)
                    self._fh = open(self.tail_path, "a", encoding="utf-8")
                except OSError:
                    self._failed = True
                    self._cond.notify_all()
                    return
                self._tail_records = 0
        try:
            self._fold_rotated_segment()
        except OSError:
            # Disk trouble while snapshotting: the segment stays on
            # disk, recovery replays it in place, and the next
            # compaction (or boot) retries the fold.
            return
        with self._cond:
            self.counters["compactions"] += 1

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush everything and stop the flusher (clean shutdown)."""
        with self._cond:
            if self._closed:
                return
            batch, self._buffer = self._buffer, []
            self._closed = True
            self._cond.notify_all()
        if batch:
            self._write_batch(batch)
        self._flusher.join(timeout=2.0)
        with self._io_lock:
            try:
                self._fh.flush()
                self._fh.close()
            except (OSError, ValueError):
                pass

    def abandon(self) -> None:
        """Crash-simulation shutdown: drop buffered records on the floor.

        Used by fault injection to model ``kill -9``: whatever the
        flusher already fsynced survives; the in-memory window does
        not.  Recovery must cope — that is the point.
        """
        with self._cond:
            if self._closed:
                return
            self._buffer.clear()
            self._closed = True
            self._abandoned = True
            self._cond.notify_all()
        self._flusher.join(timeout=2.0)
        with self._io_lock:
            try:
                self._fh.close()
            except (OSError, ValueError):
                pass

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def failed(self) -> bool:
        """True after an unrecoverable write/fsync error: appends are
        dropped and every ``commit`` returns ``False`` immediately."""
        with self._lock:
            return self._failed

    def stats(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = dict(self.counters)
            out["pending"] = len(self._buffer)
            out["tail_records"] = self._tail_records
            out["failed"] = int(self._failed)
        out["last_flush_s"] = round(self.last_flush_s, 6)
        return out

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Journal {self.directory} {state} tail={self._tail_records}>"


def iter_snapshot_and_tail(
    directory: Union[str, "os.PathLike[str]"],
) -> Iterator[RecoveredTask]:
    """Convenience for offline inspection (``repro dlq --journal``)."""
    state = recover(directory)
    yield from state.tasks.values()
