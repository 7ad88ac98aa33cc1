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
* :meth:`Journal.commit` is a group-commit barrier led by its caller:
  it writes and fsyncs everything buffered so far on the calling
  thread, unless a concurrent writer already covered it.  The
  dispatcher calls it once per SUBMIT bundle before acknowledging, so
  an acknowledged task can never be lost; dispatch/result records ride
  the window asynchronously (a crash may replay up to 20 ms of them —
  at-least-once, by design).
* One taker: whoever writes the buffer — flusher, commit, compaction,
  close — takes it inside the I/O-lock hold that writes it.  Rows
  therefore reach the file in append order, and the count of durable
  rows is a position: rows ``[0, n)`` are on disk.
* Every record line carries a CRC32 over its JSON body's exact UTF-8
  bytes.  A torn or bit-rotten tail (the process died mid-write)
  truncates cleanly at the last good record instead of poisoning
  recovery; a line whose CRC matches is never cut — it decodes or the
  open fails loudly.
* Periodic compaction reads nothing back: the journal keeps the
  durable rows of every task not yet *released* (settled, acked, out
  of the DLQ) and writes those as the new ``base.jsonl`` — see
  :meth:`Journal.compact` for the rotation and its crash windows.  A
  journal that releases nothing (``prune_settled`` off) has nothing to
  rewrite: its rotated tails become numbered archives.

Recovery (:func:`recover`) replays archives, base, segment and tail —
one row format, one replay function — into a :class:`RecoveredState`;
the dispatcher re-enqueues every non-terminal task and keeps terminal
results queryable so reconnecting clients resolve futures that settled
before the crash.
"""

from __future__ import annotations

import glob
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.net.wire import dumps, loads
from repro.obs import flight as fl

__all__ = [
    "Journal",
    "RecoveredTask",
    "RecoveredState",
    "journal_line",
    "parse_journal_line",
    "read_journal_tail",
    "recover",
    "TAIL_NAME",
    "BASE_NAME",
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

TAIL_NAME = "journal.jsonl"
#: The rows of every unreleased task as of the last compaction.
BASE_NAME = "base.jsonl"
#: A tail renamed aside by an in-progress compaction.  Exists only
#: transiently (or after a crash mid-compaction, until the next boot
#: or compaction retires it); its records all precede the tail's.
ROTATED_NAME = TAIL_NAME + ".compacting"
#: Rotated tails a journal that releases nothing keeps, in order.
ARCHIVE_NAME = "archive-{:06d}.jsonl"
#: Rows per line of a base: bounds one encode (one GIL hold).
BASE_LINE_ROWS = 1000


# ---------------------------------------------------------------------------
# record codec
# ---------------------------------------------------------------------------
def journal_line(records: Union[dict[str, Any], list[dict[str, Any]]]) -> bytes:
    """Encode one record (or one batch of records) as ``crc32hex8 <json>``
    (no newline; the writer appends it).

    A line's body is either a JSON object (a single record) or a JSON
    array (every record of one flush window).  Batching a window into
    one line matters for throughput: one encode over the array costs a
    third of per-record encoding, and the line stays the atomic unit —
    a torn line loses exactly one not-yet-durable window, which is the
    crash-replay granularity anyway.  The CRC covers the exact UTF-8
    bytes the encoder produced, so corruption is detectable without
    trusting JSON error positions.
    """
    body = dumps(records)
    return b"%08x %b" % (zlib.crc32(body), body)


def parse_journal_line(line: bytes) -> Optional[list[dict[str, Any]]]:
    """Decode one line into its records; ``None`` if torn or corrupt.

    Single-record lines come back as a one-element list so callers
    never care which form was written.  A line whose CRC matches is
    not torn: if its body does not decode, ``ValueError`` is raised
    rather than the line being treated as a tail to cut.  That covers
    the lines older commits wrote with stdlib ``json`` (``NaN`` tokens,
    lone-surrogate escapes): this reader refuses them, and an older
    commit reads and compacts them into lines it accepts.
    """
    end = len(line) - line.endswith(b"\n")
    if end < 10 or line[8] != 0x20:
        return None
    body = memoryview(line)[9:end]
    if b"%08x" % zlib.crc32(body) != line[:8]:
        return None
    try:
        decoded = loads(body)
    except ValueError as exc:
        raise ValueError(f"journal line with a valid CRC does not decode: {exc}") from exc
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


def _scan(path: Union[str, "os.PathLike[str]"],
          sink: Callable[[list[dict]], None]) -> tuple[int, int, int]:
    """Pass each whole line's records of one journal file to *sink*;
    returns ``(rows, truncated, good)``.

    *truncated* counts lines dropped at the first CRC/parse failure —
    replay stops there, since anything after a torn record cannot be
    trusted to be ordered — and *good* is the byte length of what came
    before it.  A line is whole only with its newline: the writer emits
    both in one write, so a line without one was never acknowledged.
    Lines are read and handed over one at a time, so a replay never
    holds more than one line's rows besides what it keeps.
    """
    rows = good = 0
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return rows, 0, good
    with fh:
        for number, raw in enumerate(fh, 1):
            if raw.strip():
                try:
                    decoded = parse_journal_line(raw) if raw.endswith(b"\n") else None
                except ValueError as exc:
                    raise ValueError(f"{os.fspath(path)} line {number}: {exc}") from None
                if decoded is None:
                    return rows, 1 + sum(1 for rest in fh if rest.strip()), good
                sink(decoded)
                rows += len(decoded)
            good += len(raw)
    return rows, 0, good


def read_journal_tail(path: Union[str, "os.PathLike[str]"]) -> tuple[list[dict], int]:
    """Every valid record of a journal file, and the lines dropped."""
    records: list[dict] = []
    return records, _scan(path, records.extend)[1]


# ---------------------------------------------------------------------------
# recovery state
# ---------------------------------------------------------------------------
@dataclass
class RecoveredTask:
    """One task's state as reconstructed from a journal's rows."""

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

    @property
    def released(self) -> bool:
        """Nothing is left to do for the task: its result is settled,
        reached the client connection and is not quarantined.  A
        pruning journal forgets it; a ``submit`` for its id starts over."""
        return self.terminal and self.acked and not self.in_dlq


@dataclass
class RecoveredState:
    """Everything :func:`recover` rebuilds from a journal directory."""

    tasks: dict[str, RecoveredTask] = field(default_factory=dict)
    #: Records replayed from the rotated segment and the tail.
    replayed: int = 0
    #: Lines dropped at a torn/corrupt record.
    truncated: int = 0
    #: Whether a base or an archive contributed state.
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
            known = self.tasks.get(task_id)
            # Resubmission is idempotent — unless the task was released:
            # the dispatcher journals a second submit only for an id it
            # has evicted, and runs it as a new task.
            if known is None or known.released:
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


def _write_rows(path: str, rows: list[dict[str, Any]]) -> int:
    """Replace *path* with *rows* as journal lines, all or nothing:
    temp file, fsync, atomic rename.  Returns the bytes written."""
    size = 0
    with open(path + ".tmp", "wb") as fh:
        for at in range(0, len(rows), BASE_LINE_ROWS):
            size += fh.write(journal_line(rows[at:at + BASE_LINE_ROWS]) + b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(path + ".tmp", path)
    return size


def _archives(directory: str) -> list[str]:
    """The directory's archive paths, oldest first."""
    return sorted(glob.glob(os.path.join(glob.escape(directory), "archive-*.jsonl")))


def _replay(directory: str, track=None) -> tuple[RecoveredState, int, int]:
    """Replay *directory* in write order — archives, base, rotated
    segment, tail — showing *track* each file's rows.  Returns the
    state, the tail's row count and its good byte length.

    Raises ``ValueError`` on a ``snapshot.json``, what commits before
    the base compacted into: nothing here reads it, and booting past
    it would silently drop durable state.  Likewise on a line whose CRC
    matches but whose body does not decode (:func:`parse_journal_line`).
    """
    legacy = os.path.join(directory, "snapshot.json")
    if os.path.exists(legacy):
        raise ValueError(
            f"{legacy}: a journal snapshot in the format older commits "
            "wrote; this reader does not load it (an older commit reads "
            "it and rewrites it as journal rows)")
    state = RecoveredState()
    history = [*_archives(directory), os.path.join(directory, BASE_NAME)]

    def sink(records: list[dict]) -> None:
        for record in records:
            state.apply(record)
        if track is not None:
            track(records)

    rows = good = 0
    for path in history + [os.path.join(directory, ROTATED_NAME),
                           os.path.join(directory, TAIL_NAME)]:
        rows, truncated, good = _scan(path, sink)
        state.truncated += truncated
        if path not in history:
            state.replayed += rows
        elif rows:
            state.from_snapshot = True
    return state, rows, good


def recover(directory: Union[str, "os.PathLike[str]"]) -> RecoveredState:
    """Rebuild dispatcher state from a journal directory (read-only;
    ``ValueError`` on a legacy ``snapshot.json`` or an undecodable
    CRC-valid line)."""
    return _replay(os.fspath(directory))[0]


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------
class Journal:
    """Append-only WAL with group commit and read-free compaction.

    Thread-safe: appends may come from any thread; the file is written
    under the I/O lock by whoever takes the buffer — the flusher's
    window timer, a committing caller, compaction or close.  The
    flusher also compacts when :meth:`should_compact` says so.
    """

    def __init__(
        self,
        directory: Union[str, "os.PathLike[str]"],
        compact_every: int = DEFAULT_COMPACT_EVERY,
        prune_settled: bool = False,
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.compact_every = compact_every
        #: Forget released tasks (:attr:`RecoveredTask.released`) at
        #: compaction.  Without this nothing is ever reclaimed: the
        #: directory, and a restart's replay, grow with every task ever
        #: run — a million-task endurance run needs it.
        self.prune_settled = prune_settled
        self.tail_path = os.path.join(self.directory, TAIL_NAME)
        self.base_path = os.path.join(self.directory, BASE_NAME)
        self.rotated_path = os.path.join(self.directory, ROTATED_NAME)
        #: Task id -> ``[flags, row, ...]``: the durable rows of every
        #: unreleased task, in write order — what the next base is made
        #: of.  Empty unless ``prune_settled``.  Guarded by ``_io_lock``.
        self._live: dict[str, list] = {}
        #: What the directory held at open, for the dispatcher to boot
        #: from (it clears this once read).
        self.recovered: Optional[RecoveredState]
        self.recovered, self._tail_records, good = _replay(
            self.directory, self._track if prune_settled else None)
        # Complete a compaction a previous incarnation died inside of,
        # so recovery debt stays bounded.
        try:
            self._retire_history(self._live_rows())
        except OSError:
            pass  # recovery reads the files in place; retried next compact
        self._fh = open(self.tail_path, "ab")
        if self._fh.tell() != good:
            # A torn last line (power cut mid-write): cut it, or every
            # later append lands behind it where no reader ever looks.
            os.truncate(self.tail_path, good)
            os.fsync(self._fh.fileno())
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Serialises every touch of the tail file — taking the buffer
        #: and writing it, compaction's close/rename/reopen, and the
        #: final close.  Lock order: ``_io_lock`` may wrap ``_cond``,
        #: never the reverse.
        self._io_lock = threading.Lock()
        self._base_lock = threading.Lock()  # one base write at a time
        self._buffer: list[dict] = []
        self._appended = 0  # records ever appended (this incarnation)
        self._flushed = 0   # records durable on disk: the first this many
        self._closed = False
        self._abandoned = False
        self._failed = False  # unrecoverable write/fsync error
        self.counters = {
            "records": 0,
            "commits": 0,
            "flushes": 0,
            "compactions": 0,
        }
        # Latency watchdog feed: last flush / compaction duration, the
        # worst of each, and when the last flush finished (monotonic,
        # empty ones too).  Plain floats (GIL-atomic), read by watchdogs.
        self.last_flush_s = 0.0
        self.max_flush_s = 0.0
        self.last_flush_t = time.monotonic()
        self.last_compact_s = 0.0
        self.max_compact_s = 0.0
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: each flushed batch records a ``journal.commit`` event and
        #: each compaction a ``journal.compact``.
        self.flight = None
        self._flusher = threading.Thread(
            target=self._flush_loop, name="journal-flusher", daemon=True
        )
        self._flusher.start()

    # -- appends -------------------------------------------------------------
    def append(self, kind: str, task_id: str, **fields: Any) -> None:
        """Buffer one record; durable within the flush window.

        Deliberately cheap: the caller (often the dispatcher's I/O
        loop) only builds a dict and takes the lock — JSON encoding and
        the CRC happen when the buffer is written, off the append.
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

    def commit(self, timeout: float = 5.0) -> bool:
        """Group-commit barrier: return once prior appends are durable.

        The caller leads: it writes and fsyncs everything buffered on
        its own thread, or returns at once if a concurrent writer
        already covered its rows.  Returns ``False`` when the I/O lock
        stays busy past *timeout* and on a closed or *failed* journal —
        a ``False`` means the appends are NOT known durable, and callers
        who promised durability (the SUBMIT ack path) must refuse rather
        than ack.
        """
        with self._cond:
            if self._closed or self._failed:
                return False
            target = self._appended
            self.counters["commits"] += 1
        if not self._io_lock.acquire(timeout=timeout):
            return False
        try:
            if self._flushed < target:
                self._flush_locked()
            return self._flushed >= target
        finally:
            self._io_lock.release()

    # -- flusher -------------------------------------------------------------
    def _flush_loop(self) -> None:
        """Write the asynchronous rows (dispatch, result, acked) once a
        window — sleeping it whole, never waking on buffer occupancy,
        batches them into one fsync — then compact if due."""
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._closed or self._failed,
                                    FLUSH_WINDOW)
                if self._closed or self._failed:
                    return
            with self._io_lock:
                self._flush_locked()
            if self.should_compact():
                self.compact()

    def _flush_locked(self) -> None:
        """Take the buffer and write it (``_io_lock`` held): the one
        way rows reach the tail, so no taker can overtake another."""
        with self._cond:
            batch, self._buffer = self._buffer, []
        if not batch:
            self.last_flush_t = time.monotonic()  # idle, not stalled
            return
        started = time.monotonic()
        try:
            # One array line per window: a single encode amortises
            # the per-record encoder overhead (~3x cheaper), and the
            # whole window stays atomic under the line's CRC.
            self._fh.write(journal_line(batch) + b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError, TypeError):
            # A write or fsync error, or a row the codec refuses
            # (TypeError), is fatal: _flushed can never
            # catch _appended again, so pretending otherwise would
            # leave every future commit() waiting while acks silently
            # stop being durable.  Fail the journal loudly instead —
            # commits return False at once and the dispatcher refuses
            # new submits.
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
            flight.record(fl.JOURNAL_COMMIT, "",
                          records=len(batch), seconds=round(took, 6))
        with self._cond:
            self._flushed += len(batch)
            self._tail_records += len(batch)
            self.counters["flushes"] += 1
        # Only what is on disk: the table is never ahead of the files.
        if self.prune_settled:
            self._track(batch)

    def _track(self, batch: list[dict]) -> None:
        """Fold durable rows into the table (``_io_lock`` held):
        :meth:`RecoveredState.apply` reduced to what decides
        :attr:`RecoveredTask.released` — flag 1 terminal, 2 acked, 4
        quarantined; released is exactly 3.  Rows for an id with no
        entry are dropped here, as ``apply`` ignores them.
        """
        live = self._live
        for row in batch:
            kind, task_id = row.get("k"), row.get("id")
            if kind == "acked":
                for task_id in row.get("ids") or (task_id,):
                    entry = live.get(task_id)
                    if entry is None:
                        continue
                    entry[0] |= 2
                    if entry[0] == 3:
                        del live[task_id]
                    else:  # unsettled or quarantined: the ack stays on file
                        entry.append({"k": "acked", "id": task_id})
                continue
            entry = live.get(task_id)
            if kind == "submit":
                if entry is None and task_id:
                    live[task_id] = [0, row]
            elif entry is not None:
                entry.append(row)
                if kind == "result":
                    entry[0] |= 1
                    if entry[0] == 3:
                        del live[task_id]
                elif kind == "dlq":
                    entry[0] |= 5
                elif kind == "dlq-retry":
                    entry[0] = 0

    # -- compaction ----------------------------------------------------------
    @property
    def tail_records(self) -> int:
        with self._lock:
            return self._tail_records

    def should_compact(self) -> bool:
        with self._lock:
            return (self._tail_records >= self.compact_every
                    and not self._closed and not self._failed)

    def _live_rows(self) -> list[dict]:
        return [row for entry in self._live.values() for row in entry[1:]]

    def _retire_history(self, rows: list[dict]) -> int:
        """Second half of a compaction, and what boot runs to finish an
        interrupted one; returns the bytes of the base written.
        Pruning: everything older than the tail becomes one base of
        *rows*, then the files it replaces go, oldest first, so a
        crash leaves a suffix of history under a base that covers it.  Otherwise nothing can be
        dropped: segment (and a pruning incarnation's base) become the
        next archives.
        """
        archives = _archives(self.directory)
        if not self.prune_settled:
            number = 1 + (int(archives[-1][-12:-6]) if archives else 0)
            for path in (self.base_path, self.rotated_path):
                if os.path.exists(path):
                    os.replace(path, os.path.join(
                        self.directory, ARCHIVE_NAME.format(number)))
                    number += 1
            return 0
        stale = archives + ([self.rotated_path]
                            if os.path.exists(self.rotated_path) else [])
        if not stale:
            return 0
        size = _write_rows(self.base_path, rows)
        for path in stale:
            os.unlink(path)
        return size

    def compact(self) -> None:
        """Retire the tail without reading it back or losing appends.

        Rotation, not truncation: the tail is atomically renamed aside
        and a fresh tail opened under the I/O lock, so a record
        appended at *any* point during compaction lands either in the
        rotated segment (drained there in the same lock hold, hence in
        the table, hence in the new base unless its task is released) or
        in the fresh tail (replayed on top of the base) — never in a
        file that gets destroyed.  The base's rows are taken under the
        rotation's lock hold: exactly what is durable up to that point.
        Crash windows: before the rename nothing has changed; after
        it, recovery reads base + segment + tail; between the base
        swap and the segment unlink, the segment is replayed once more
        over a base that already covers it, which converges
        (application is idempotent under exact re-sequencing).
        """
        started = time.monotonic()
        with self._io_lock:
            # Drain the buffer into the outgoing tail so the base
            # covers everything appended before the rotation point.
            self._flush_locked()
            with self._cond:
                if self._closed or self._failed:
                    return
                # A segment still here is one whose retirement failed:
                # rotating over it would destroy it, so finish that
                # compaction instead (the table covers it and more).
                if not os.path.exists(self.rotated_path):
                    try:
                        self._fh.close()
                        os.replace(self.tail_path, self.rotated_path)
                        self._fh = open(self.tail_path, "ab")
                    except OSError:
                        self._failed = True
                        self._cond.notify_all()
                        return
                    self._tail_records = 0
            rows, live_tasks = self._live_rows(), len(self._live)
        try:
            with self._base_lock:  # the flusher's and any caller's
                size = self._retire_history(rows)
        except OSError:
            # Disk trouble: the segment stays on disk, recovery replays
            # it in place, and the next compaction (or boot) retries.
            return
        took = time.monotonic() - started
        self.last_compact_s = took
        if took > self.max_compact_s:
            self.max_compact_s = took
        with self._cond:
            self.counters["compactions"] += 1
        flight = self.flight
        if flight is not None:
            flight.record(fl.JOURNAL_COMPACT, "", seconds=round(took, 6),
                          live_tasks=live_tasks, rows=len(rows), bytes=size)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush everything and stop the flusher (clean shutdown)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True  # appends stop: the buffer is final
            self._cond.notify_all()
        self._flusher.join(timeout=2.0)
        with self._io_lock:
            self._flush_locked()
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
        out["live_tasks"] = len(self._live)
        out["last_flush_s"] = round(self.last_flush_s, 6)
        out["last_compact_s"] = round(self.last_compact_s, 6)
        out["max_compact_s"] = round(self.max_compact_s, 6)
        return out

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Journal {self.directory} {state} tail={self._tail_records}>"
