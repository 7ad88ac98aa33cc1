"""Unit tests for the dispatcher's write-ahead journal.

Codec round-trips, torn-tail truncation, group commit, compaction,
and the replay fold (:class:`RecoveredState`) — everything that must
hold for restart recovery to be trustworthy, tested without sockets.
"""

import json
import os
import time
import zlib

import pytest

from repro.live.journal import (
    Journal,
    RESULT_DEFAULTS,
    SPEC_DEFAULTS,
    RecoveredState,
    journal_line,
    parse_journal_line,
    read_journal_tail,
    recover,
    strip_defaults,
)

from tests.live.util import wait_until


# -- codec ---------------------------------------------------------------------
def test_single_record_round_trip():
    record = {"k": "submit", "id": "t-1", "spec": {"command": "sleep"}}
    line = journal_line(record)
    assert parse_journal_line(line) == [record]


def test_batch_line_round_trip():
    batch = [{"k": "submit", "id": f"t-{i}"} for i in range(5)]
    line = journal_line(batch)
    assert parse_journal_line(line) == batch


def test_corrupt_crc_rejected():
    line = journal_line({"k": "submit", "id": "t-1"})
    flipped = (b"0" if line[:1] != b"0" else b"1") + line[1:]
    assert parse_journal_line(flipped) is None


def test_corrupt_body_rejected():
    line = journal_line({"k": "submit", "id": "t-1"})
    assert parse_journal_line(line[:-2] + b"xx") is None


def test_garbage_lines_rejected():
    assert parse_journal_line(b"") is None
    assert parse_journal_line(b"not a journal line") is None
    assert parse_journal_line(b"zzzzzzzz {}") is None
    # valid CRC over a non-dict body must also be refused
    body = json.dumps(["not", "records"]).encode()
    assert parse_journal_line(b"%08x %b" % (zlib.crc32(body), body)) is None


def test_torn_tail_truncates_at_first_bad_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    good = [journal_line({"k": "submit", "id": f"t-{i}"}) for i in range(3)]
    torn = journal_line({"k": "submit", "id": "t-torn"})[:-7]  # mid-write death
    after = journal_line({"k": "submit", "id": "t-after"})
    path.write_bytes(b"\n".join(good + [torn, after]) + b"\n")
    records, truncated = read_journal_tail(path)
    assert [r["id"] for r in records] == ["t-0", "t-1", "t-2"]
    assert truncated == 2  # the torn line and everything after it


def test_missing_tail_is_empty():
    records, truncated = read_journal_tail("/nonexistent/journal.jsonl")
    assert records == [] and truncated == 0


def test_strip_defaults_round_trips_through_parsers():
    from repro.live.protocol import (
        result_from_dict,
        result_to_dict,
        task_from_dict,
        task_to_dict,
    )
    from repro.types import TaskResult, TaskSpec

    # The wire form is already sparse (``command`` "sleep" is a default
    # and no longer travels), so stripping it is the identity ...
    spec = TaskSpec.sleep(0, task_id="t-1")
    wire = task_to_dict(spec)
    stripped = strip_defaults(wire, SPEC_DEFAULTS)
    assert stripped == wire and set(stripped) == {"task_id", "args"}
    assert task_from_dict(stripped) == spec

    result = TaskResult(task_id="t-1", executor_id="e-1")
    wire = result_to_dict(result)
    stripped = strip_defaults(wire, RESULT_DEFAULTS)
    assert stripped == wire and set(stripped) == {"task_id", "executor_id"}
    assert result_from_dict(stripped) == result

    # ... and on the all-keys dict of an older writer it still drops
    # exactly the tabled defaults, which the parsers restore.
    dense = {"task_id": "t-1", "command": "sleep", "args": ["0"],
             "working_dir": ".", "env": [], "duration": 0.0, "reads": [],
             "writes": [], "runtime_estimate": None, "stage": ""}
    stripped = strip_defaults(dense, SPEC_DEFAULTS)
    assert set(stripped) == {"task_id", "command", "args"}
    assert task_from_dict(stripped) == task_from_dict(dense) == spec


# -- the journal ---------------------------------------------------------------
def test_commit_makes_appends_durable(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append("submit", "t-1", spec={"command": "sleep"}, client="c-1")
        journal.append("dispatch", "t-1", attempt=1, executor="e-1")
        assert journal.commit()
        records, truncated = read_journal_tail(tmp_path / "journal.jsonl")
        assert [r["k"] for r in records] == ["submit", "dispatch"]
        assert truncated == 0


def test_append_many_single_commit(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append_many(
            [{"k": "submit", "id": f"t-{i}", "client": "c-1"} for i in range(50)]
        )
        assert journal.commit()
        assert journal.stats()["records"] == 50
    records, _ = read_journal_tail(tmp_path / "journal.jsonl")
    assert len(records) == 50


def test_window_flush_without_commit(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 0.01)
    journal = Journal(tmp_path)
    try:
        journal.append("submit", "t-1")
        assert wait_until(lambda: journal.stats()["pending"] == 0, timeout=5.0)
        records, _ = read_journal_tail(tmp_path / "journal.jsonl")
        assert [r["id"] for r in records] == ["t-1"]
    finally:
        journal.close()


def test_close_flushes_remaining(tmp_path):
    journal = Journal(tmp_path)
    journal.append("submit", "t-1")
    journal.close()
    records, _ = read_journal_tail(tmp_path / "journal.jsonl")
    assert [r["id"] for r in records] == ["t-1"]
    assert journal.commit() is False  # closed journals refuse barriers


def test_abandon_drops_buffered_window(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 30.0)
    journal = Journal(tmp_path)  # nothing flushes on its own
    journal.append("submit", "t-durable")
    assert journal.commit()
    journal.append("submit", "t-volatile")
    journal.abandon()  # simulated kill -9: the un-fsynced window is lost
    records, _ = read_journal_tail(tmp_path / "journal.jsonl")
    assert [r["id"] for r in records] == ["t-durable"]


def test_reopen_existing_tail_appends(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append("submit", "t-1")
        journal.commit()
    with Journal(tmp_path) as journal:
        assert journal.tail_records == 1
        journal.append("submit", "t-2")
        journal.commit()
    records, _ = read_journal_tail(tmp_path / "journal.jsonl")
    assert [r["id"] for r in records] == ["t-1", "t-2"]


def test_compaction_snapshots_and_truncates(tmp_path, monkeypatch, prune=False):
    # The flusher compacts a due tail on its own; with a window longer
    # than the test it never wakes, so the compaction here is the
    # hand-driven one.
    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 30.0)
    journal = Journal(tmp_path, compact_every=5, prune_settled=prune)
    try:
        for i in range(6):
            journal.append("submit", f"t-{i}", spec={"command": "sleep"}, client="c")
        journal.commit()
        assert journal.should_compact()
        journal.compact()  # the tail's rows move behind it: base or archive
        assert journal.tail_records == 0
        assert not journal.should_compact()
        assert not os.path.exists(tmp_path / "journal.jsonl.compacting")
        history = "base.jsonl" if prune else "archive-000001.jsonl"
        assert sorted(os.listdir(tmp_path)) == sorted([history, "journal.jsonl"])
        assert len(read_journal_tail(tmp_path / history)[0]) == 6
        # post-compaction records land in the fresh tail
        journal.append("result", "t-0", outcome="ok", result={})
        journal.commit()
    finally:
        journal.close()
    state = recover(tmp_path)
    assert state.from_snapshot
    assert len(state.tasks) == 6
    assert state.tasks["t-0"].state == "completed"
    assert state.replayed == 1  # only the post-compaction record


def test_pruning_compaction_writes_base_and_truncates(tmp_path, monkeypatch):
    test_compaction_snapshots_and_truncates(tmp_path, monkeypatch, prune=True)


def test_flusher_compacts_a_due_tail_on_its_own(tmp_path):
    """Compaction is the journal's own duty: the flusher runs it once
    its window flushes a tail of ``compact_every`` rows, with no caller
    asking."""
    with Journal(tmp_path, compact_every=5, prune_settled=True) as journal:
        for i in range(6):
            journal.append("submit", f"t-{i}", spec={"command": "sleep"}, client="c")
        assert wait_until(lambda: journal.stats()["compactions"] == 1)
        assert journal.tail_records == 0 and not journal.should_compact()
        journal.append("result", "t-0", outcome="ok", result={})
    assert journal.stats()["compactions"] == 1  # a short tail waits
    assert len(read_journal_tail(tmp_path / "base.jsonl")[0]) == 6
    state = recover(tmp_path)
    assert len(state.tasks) == 6 and state.tasks["t-0"].state == "completed"


def test_an_idle_flusher_is_not_read_as_stalled(tmp_path):
    """Every flusher pass stamps ``last_flush_t``, empty or not.  Only
    writes used to, so after a long idle spell the first async row read
    as buffered-and-stale until the next window took it — the
    dispatcher's watchdog reported a healthy flusher as stalled."""
    from repro.live import LiveDispatcher

    dispatcher = LiveDispatcher(journal_dir=str(tmp_path))
    try:
        journal = dispatcher.journal
        journal.last_flush_t -= 10.0  # ten idle seconds
        # Empty windows pass (a stamp, when the fix is in).
        wait_until(lambda: journal.last_flush_t > time.monotonic() - 1.0,
                   timeout=1.0)
        journal.append("requeue", "t-0", attempt=1)
        assert dispatcher._check_journal() is None
    finally:
        dispatcher.close()


def test_pruning_compaction_keeps_only_unreleased_tasks(tmp_path):
    """Released means settled, acked and out of the DLQ; everything
    else — running, unacked, quarantined — is carried into the base,
    with the one-id form of a frame-wide ack."""
    with Journal(tmp_path, prune_settled=True) as journal:
        for task_id in ("t-done", "t-run", "t-unacked", "t-dlq"):
            journal.append("submit", task_id, spec={"command": "sleep"}, client="c")
            journal.append("dispatch", task_id, attempt=1, executor="e-1")
        journal.append("result", "t-done", outcome="ok", result={})
        journal.append("result", "t-unacked", outcome="ok", result={})
        journal.append("result", "t-dlq", outcome="fail", result={"return_code": 1})
        journal.append("dlq", "t-dlq", error="poison")
        journal.append("acked", "", ids=["t-done", "t-dlq", "t-ghost"])
        journal.append("dispatch", "t-done", attempt=2, executor="e-2")  # stale
        before = recover(tmp_path).tasks  # an open journal's directory reads
        # (tracking rides the flusher after the barrier is released)
        assert journal.commit()
        assert wait_until(lambda: journal.stats()["live_tasks"] == 3)
        journal.compact()
        assert journal.stats()["live_tasks"] == 3
        rows, truncated = read_journal_tail(tmp_path / "base.jsonl")
        assert truncated == 0
        assert {r["id"] for r in rows} == {"t-run", "t-unacked", "t-dlq"}
        assert {"k": "acked", "id": "t-dlq"} in rows
        journal.append("acked", "", ids=["t-unacked"])
        journal.append("dlq-retry", "t-dlq")
        assert journal.commit()
        assert wait_until(lambda: journal.stats()["live_tasks"] == 2)
    assert before == {}
    state = recover(tmp_path)
    assert set(state.tasks) == {"t-run", "t-unacked", "t-dlq"}
    assert state.tasks["t-unacked"].released
    assert state.tasks["t-dlq"].state == "queued" and not state.tasks["t-dlq"].acked
    assert [t.task_id for t in state.pending()] == ["t-dlq", "t-run"]


def test_compaction_never_loses_committed_records(tmp_path, monkeypatch):
    """Appends racing a compaction land in the rotated segment or the
    fresh tail — never in a file the compaction destroys.  Every record
    whose commit() returned True must survive recovery, with three
    committers (more threads than this suite assumes cores), the
    flusher (which compacts too: every pass is due) and a compaction
    loop all taking the buffer, and thread switches forced every
    10 µs."""
    import sys
    import threading

    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 0.001)
    journal = Journal(tmp_path, compact_every=1)
    committed = []

    def churn(name):
        for i in range(60):
            task_id = f"{name}-{i:04d}"
            journal.append("submit", task_id,
                           spec={"command": "sleep"}, client="c")
            if journal.commit(timeout=10.0):
                committed.append(task_id)

    threads = [threading.Thread(target=churn, args=(f"t{n}",)) for n in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            journal.compact()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        journal.close()
    state = recover(tmp_path)
    assert len(committed) == 180
    missing = [t for t in committed if t not in state.tasks]
    assert missing == []


def test_commit_never_returns_before_its_rows_are_on_disk(tmp_path, monkeypatch):
    """Regression: durable rows were counted, not positioned.  A taker
    took the buffer under the append lock and wrote it under the I/O
    lock, so with the flusher paused between taking b0..b2 and writing
    them, a compaction took b3..b5 and wrote them first; the count
    covered the commit's target, and ``commit()`` returned True with
    its own rows only in memory — an acknowledged SUBMIT a power cut
    then loses.  Here the flusher pauses on its way to the I/O lock."""
    import threading

    paused, release = threading.Event(), threading.Event()

    class PausingLock:
        """The I/O lock, but the flusher's first acquisition waits."""

        def __init__(self, lock):
            self._lock = lock

        def acquire(self, blocking=True, timeout=-1):
            if (threading.current_thread().name == "journal-flusher"
                    and not paused.is_set()):
                paused.set()
                release.wait(10.0)
            return self._lock.acquire(blocking, timeout)

        def release(self):
            self._lock.release()

        def __enter__(self):
            return self.acquire()

        def __exit__(self, *exc):
            self.release()

    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 0.05)
    journal = Journal(tmp_path)
    journal._io_lock = PausingLock(journal._io_lock)
    outcome = []
    committer = threading.Thread(
        target=lambda: outcome.append(journal.commit(timeout=10.0)))
    compactor = threading.Thread(target=journal.compact)
    try:
        journal.append_many([_submit(f"b{i}") for i in range(3)])
        assert paused.wait(5.0)  # the flusher is stuck on its way to disk
        committer.start()
        journal.append_many([_submit(f"b{i}") for i in range(3, 6)])
        compactor.start()
        if wait_until(lambda: outcome, timeout=1.0):
            # Whatever a commit promised must already be recoverable.
            assert outcome == [True]
            assert {"b0", "b1", "b2"} <= set(recover(tmp_path).tasks)
        release.set()
        committer.join(10.0)
        compactor.join(10.0)
        assert not compactor.is_alive()
        assert outcome == [True]
    finally:
        release.set()
        journal.close()
    assert set(recover(tmp_path).tasks) == {f"b{i}" for i in range(6)}


def _submit_line(task_id):
    return journal_line({"k": "submit", "id": task_id,
                         "spec": {"command": "sleep"}, "client": "c"}) + b"\n"


def test_recover_reads_interrupted_compaction_segment(tmp_path, prune=False):
    """Crash between the tail rotation and the base swap: the rotated
    segment holds records absent from both base and tail, and recovery
    must replay it between the two."""
    (tmp_path / "base.jsonl").write_bytes(_submit_line("t-base"))
    (tmp_path / "journal.jsonl.compacting").write_bytes(_submit_line("t-rot"))
    (tmp_path / "journal.jsonl").write_bytes(_submit_line("t-tail"))
    state = recover(tmp_path)
    assert set(state.tasks) == {"t-base", "t-rot", "t-tail"}
    assert state.from_snapshot and state.replayed == 2

    # Opening a Journal over the directory completes the interrupted
    # compaction: the segment goes into the base (or, with nothing to
    # prune, base and segment become archives) and disappears, with
    # nothing lost.
    with Journal(tmp_path, prune_settled=prune) as journal:
        assert not os.path.exists(tmp_path / "journal.jsonl.compacting")
        assert journal.tail_records == 1  # t-tail only
        assert set(journal.recovered.tasks) == {"t-base", "t-rot", "t-tail"}
    history = (["base.jsonl"] if prune
               else ["archive-000001.jsonl", "archive-000002.jsonl"])
    assert sorted(os.listdir(tmp_path)) == sorted(history + ["journal.jsonl"])
    state = recover(tmp_path)
    assert set(state.tasks) == {"t-base", "t-rot", "t-tail"}
    assert state.replayed == 1


def test_pruning_boot_completes_interrupted_compaction(tmp_path):
    test_recover_reads_interrupted_compaction_segment(tmp_path, prune=True)


def test_recover_converges_when_segment_already_folded(tmp_path):
    """Crash between the base swap and the segment unlink: the
    segment's records are replayed once more on top of a base that
    already holds them, and the state converges."""
    records = [
        {"k": "submit", "id": "t-1", "spec": {"command": "sleep"}, "client": "c"},
        {"k": "dispatch", "id": "t-1", "attempt": 1, "executor": "e-1"},
        {"k": "requeue", "id": "t-1", "attempt": 1},
        {"k": "dispatch", "id": "t-1", "attempt": 2, "executor": "e-2"},
        {"k": "result", "id": "t-1", "outcome": "ok", "result": {}},
    ]
    lines = b"\n".join(journal_line(r) for r in records) + b"\n"
    (tmp_path / "base.jsonl").write_bytes(lines)
    (tmp_path / "journal.jsonl.compacting").write_bytes(lines)
    state = recover(tmp_path)
    task = state.tasks["t-1"]
    assert task.state == "completed" and task.attempts == 2
    assert task.executor_id == "e-2"
    assert state.pending() == []


@pytest.mark.parametrize("opener", [recover, Journal], ids=["recover", "journal"])
def test_legacy_snapshot_directory_is_refused(tmp_path, opener):
    """``snapshot.json`` is what commits before the base compacted
    into.  Nothing reads it now, so a directory holding one is refused,
    naming the file, and left as it was: booting past it would
    silently drop durable state."""
    (tmp_path / "snapshot.json").write_text(json.dumps({"version": 1, "tasks": [
        {"task_id": "t-1", "spec": {"args": ["0"]}, "client_id": "c-1"}]}))
    (tmp_path / "journal.jsonl").write_bytes(_submit_line("t-tail"))
    with pytest.raises(ValueError, match="snapshot.json"):
        opener(tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["journal.jsonl", "snapshot.json"]


def test_append_after_torn_tail_is_recoverable(tmp_path):
    """A power cut mid-line leaves a torn last line; the next
    incarnation must cut it before appending, or everything it commits
    sits behind a line no reader gets past."""
    with Journal(tmp_path) as journal:
        for task_id in ("a", "b"):
            journal.append("submit", task_id, spec={"command": "sleep"}, client="c")
            assert journal.commit()
    tail = tmp_path / "journal.jsonl"
    os.truncate(tail, os.path.getsize(tail) - 15)
    state = recover(tmp_path)
    assert set(state.tasks) == {"a"} and state.truncated == 1
    with Journal(tmp_path) as journal:
        assert set(journal.recovered.tasks) == {"a"}
        assert journal.recovered.truncated == 1 and journal.tail_records == 1
        journal.append("submit", "c", spec={"command": "sleep"}, client="c")
        assert journal.commit()
    state = recover(tmp_path)
    assert set(state.tasks) == {"a", "c"} and state.truncated == 0


def test_line_without_its_newline_is_torn(tmp_path):
    """The writer emits a line and its newline in one write, so a line
    that ends the file without one was never acknowledged — and must
    not be kept, or the next append would be glued onto it."""
    (tmp_path / "journal.jsonl").write_bytes(
        _submit_line("a") + _submit_line("b").rstrip(b"\n"))
    records, truncated = read_journal_tail(tmp_path / "journal.jsonl")
    assert [r["id"] for r in records] == ["a"] and truncated == 1
    with Journal(tmp_path) as journal:
        journal.append("submit", "c")
        assert journal.commit()
    assert set(recover(tmp_path).tasks) == {"a", "c"}


def test_fsync_failure_fails_journal_and_commit(tmp_path, monkeypatch):
    """A write/fsync error must fail the journal loudly: commit()
    returns False at once (no 5 s stall per call) and later appends are
    dropped instead of accumulating in a buffer that can never drain."""
    monkeypatch.setattr("repro.live.journal.FLUSH_WINDOW", 0.001)
    journal = Journal(tmp_path)
    try:
        monkeypatch.setattr("repro.live.journal.os.fsync",
                            lambda fd: (_ for _ in ()).throw(OSError("disk gone")))
        journal.append("submit", "t-1")
        assert journal.commit(timeout=5.0) is False
        assert journal.failed
        assert journal.stats()["failed"] == 1
        before = journal.stats()["records"]
        journal.append("submit", "t-2")  # dropped: the journal is dead
        assert journal.stats()["records"] == before
        assert journal.commit(timeout=5.0) is False  # immediate, no stall
    finally:
        monkeypatch.undo()
        journal.close()


# -- replay fold ---------------------------------------------------------------
def _submit(task_id, **extra):
    return {"k": "submit", "id": task_id, "spec": {"command": "sleep"},
            "client": "c-1", **extra}


def test_apply_full_lifecycle():
    state = RecoveredState()
    for record in [
        _submit("t-1"),
        {"k": "dispatch", "id": "t-1", "attempt": 1, "executor": "e-1"},
        {"k": "result", "id": "t-1", "outcome": "ok", "result": {"return_code": 0}},
        {"k": "acked", "id": "", "ids": ["t-1"]},
    ]:
        state.apply(record)
    task = state.tasks["t-1"]
    assert task.state == "completed" and task.acked and task.terminal
    assert task.result["task_id"] == "t-1"  # record id restored into the dict
    assert state.pending() == []


def test_apply_submit_is_idempotent():
    state = RecoveredState()
    state.apply(_submit("t-1"))
    state.apply({"k": "dispatch", "id": "t-1", "attempt": 1, "executor": "e-1"})
    state.apply(_submit("t-1"))  # client resubmission after a lost ack
    assert state.tasks["t-1"].state == "dispatched"


def test_apply_ignores_transitions_for_unknown_tasks():
    state = RecoveredState()
    state.apply({"k": "dispatch", "id": "t-ghost", "attempt": 1, "executor": "e-1"})
    state.apply({"k": "result", "id": "t-ghost", "outcome": "ok", "result": {}})
    assert state.tasks == {}


def test_apply_terminal_blocks_stale_transitions():
    state = RecoveredState()
    state.apply(_submit("t-1"))
    state.apply({"k": "result", "id": "t-1", "outcome": "ok", "result": {}})
    state.apply({"k": "dispatch", "id": "t-1", "attempt": 2, "executor": "e-2"})
    state.apply({"k": "requeue", "id": "t-1", "attempt": 2})
    assert state.tasks["t-1"].state == "completed"


def test_apply_requeue_returns_to_pending():
    state = RecoveredState()
    state.apply(_submit("t-1"))
    state.apply({"k": "dispatch", "id": "t-1", "attempt": 1, "executor": "e-1"})
    state.apply({"k": "requeue", "id": "t-1", "attempt": 1})
    task = state.tasks["t-1"]
    assert task.state == "queued" and task.executor_id == ""
    assert [t.task_id for t in state.pending()] == ["t-1"]


def test_apply_dlq_and_dlq_retry():
    state = RecoveredState()
    state.apply(_submit("t-1"))
    state.apply({"k": "result", "id": "t-1", "outcome": "fail",
                 "result": {"return_code": 1}})
    state.apply({"k": "dlq", "id": "t-1", "error": "poison"})
    task = state.tasks["t-1"]
    assert task.in_dlq and task.state == "failed" and task.dlq_error == "poison"
    state.apply({"k": "dlq-retry", "id": "t-1"})
    assert not task.in_dlq
    assert task.state == "queued" and task.attempts == 0
    assert task.result is None and not task.acked


def test_spec_task_id_restored_on_replay():
    state = RecoveredState()
    state.apply({"k": "submit", "id": "t-1", "spec": {"command": "sleep"},
                 "client": "c-1"})
    assert state.tasks["t-1"].spec["task_id"] == "t-1"


def test_recover_torn_tail_end_to_end(tmp_path):
    lines = [
        journal_line([_submit("t-1"), _submit("t-2")]),
        journal_line({"k": "result", "id": "t-1", "outcome": "ok", "result": {}}),
        journal_line({"k": "result", "id": "t-2", "outcome": "ok", "result": {}})[:-9],
    ]
    (tmp_path / "journal.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    state = recover(tmp_path)
    assert state.truncated == 1
    assert state.tasks["t-1"].terminal
    assert not state.tasks["t-2"].terminal  # its settle was in the torn line
    assert [t.task_id for t in state.pending()] == ["t-2"]


def test_journal_validation():
    with pytest.raises(ValueError):
        Journal("/tmp/x", compact_every=0)
