"""Every crash point of journal compaction and boot, enumerated.

A file-layer shim stands between ``repro.live.journal`` and the disk
and "cuts the power" after the k-th mutating operation — ``open`` for
writing, ``write``, ``os.fsync``, ``os.replace`` / ``os.rename``,
``os.unlink``, ``os.truncate`` — for every k of a scripted history:
append, commit, compact over live, released, quarantined and
unacked-terminal tasks, more appends (a resubmitted released id, a DLQ
retry), a second compaction raced by a commit on another thread (a
SUBMIT on the loop thread against the monitor's compaction), close.  Bytes written but not yet fsynced
survive the cut whole, not at all, or half (a torn final write).

After every cut:

* ``recover()`` equals the replay of some prefix of the rows appended
  that is at least as long as what ``commit()`` had promised — so no
  acknowledged task is lost, no task seen settled and acked comes back
  runnable, and every DLQ entry is kept — except that a pruning journal
  may have forgotten tasks that prefix had released;
* a ``Journal`` opened on the wreck recovers that same state, and
  after it compacts the directory still does;
* the same holds if the power goes again at any operation *of that
  boot*.

Two seeded mutations of ``Journal`` show the enumeration can fail:
retiring the segment before the base's rename, and taking the base's
rows outside the rotation's lock hold.
"""

import builtins
import os
import shutil
import threading

import pytest

from repro.live import journal as journal_module
from repro.live.journal import Journal, RecoveredState, recover


class PowerCut(OSError):
    """Raised by every operation from the cut on: the machine is off.

    An ``OSError`` so that the journal's own error handling (fail the
    journal, refuse the commit) runs instead of killing its flusher
    thread mid-wait; nothing reaches the disk after the cut either way.
    """


class _File:
    """A file opened for writing: bytes are volatile until fsynced."""

    def __init__(self, disk, path, mode, **kwargs):
        self.disk, self.path = disk, path
        self.fh = builtins.open(path, mode, **kwargs)
        self.synced = self.size()

    def size(self):
        return os.fstat(self.fh.fileno()).st_size

    def write(self, data):
        self.disk.tick()
        written = self.fh.write(data)
        self.fh.flush()
        return written

    def flush(self):
        pass

    def fileno(self):
        return self.fh.fileno()

    def tell(self):
        return self.fh.tell()

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Disk:
    """``open`` and the ``os`` calls of ``journal.py``, with a fuse.

    *budget* mutating operations succeed; the next one cuts the power:
    un-fsynced bytes of every open file are kept, dropped or halved
    (*tear*), and that operation and all later ones raise.
    """

    def __init__(self, budget=None, tear="keep"):
        self.budget, self.tear = budget, tear
        self.ops = 0
        self.dead = False
        self.files = []

    def __getattr__(self, name):  # everything else of ``os``, untouched
        return getattr(os, name)

    def tick(self):
        if self.dead:
            raise PowerCut("power is off")
        if self.budget is not None and self.ops >= self.budget:
            self.dead = True
            for file in self.files:
                if file.fh.closed or self.tear == "keep":
                    continue
                lost = file.size() - file.synced
                os.truncate(file.fileno(), file.synced + (
                    lost // 2 if self.tear == "half" else 0))
            raise PowerCut("power cut")
        self.ops += 1

    def open(self, path, mode="r", **kwargs):
        if "r" in mode and "+" not in mode:
            return builtins.open(path, mode, **kwargs)
        self.tick()
        file = _File(self, os.fspath(path), mode, **kwargs)
        self.files.append(file)
        return file

    def fsync(self, fd):
        self.tick()
        for file in self.files:
            if not file.fh.closed and file.fileno() == fd:
                file.synced = file.size()

    def replace(self, src, dst):
        self.tick()
        os.replace(src, dst)

    rename = replace

    def unlink(self, path):
        self.tick()
        os.unlink(path)

    def truncate(self, path, length):
        self.tick()
        os.truncate(path, length)
        for file in self.files:
            if not file.fh.closed and file.path == os.fspath(path):
                file.synced = min(file.synced, length)

    def close_all(self):
        for file in self.files:
            file.close()


@pytest.fixture(autouse=True)
def _flusher_never_wakes(monkeypatch):
    # A window longer than the test: every write is one the history
    # (or the boot) asked for, never the flusher's own.
    monkeypatch.setattr(journal_module, "FLUSH_WINDOW", 3600.0)


@pytest.fixture
def disk_of(monkeypatch):
    """Install a :class:`Disk` under ``repro.live.journal`` only."""
    disks = []

    def install(budget=None, tear="keep"):
        disk = Disk(budget, tear)
        disks.append(disk)
        monkeypatch.setattr(journal_module, "os", disk)
        monkeypatch.setattr(journal_module, "open", disk.open, raising=False)
        return disk

    yield install
    for disk in disks:
        disk.close_all()


# -- the history ---------------------------------------------------------------
def _row(kind, task_id, **fields):
    return {"k": kind, "id": task_id, **fields}


def _submit(task_id):
    return _row("submit", task_id, spec={"args": ["0"]}, client="c-1")


BEFORE_FIRST_COMPACT = [
    [_submit(t) for t in ("live", "done", "poison", "unacked", "again")],
    [_row("dispatch", t, attempt=1, executor="e-1")
     for t in ("live", "done", "poison", "unacked", "again")]
    + [_row("result", "done", outcome="ok", result={"executor_id": "e-1"}),
       _row("result", "unacked", outcome="ok", result={"executor_id": "e-1"}),
       _row("result", "again", outcome="ok", result={"executor_id": "e-1"}),
       _row("result", "poison", outcome="fail", result={"return_code": 1}),
       _row("dlq", "poison", error="boom"),
       _row("acked", "", ids=["done", "poison", "again", "ghost"])],
]
#: Appended but not committed when the first compaction starts: its
#: drain makes these durable, and the commit after it promises them.
DRAINED_BY_COMPACT = [_submit("late"), _row("dispatch", "ghost", attempt=1,
                                            executor="e-9")]
BEFORE_SECOND_COMPACT = [
    [_submit("again"),  # a released id, submitted again: a new task
     _row("dispatch", "again", attempt=1, executor="e-2"),
     _row("requeue", "live", attempt=1),
     _row("dispatch", "live", attempt=2, executor="e-2"),
     _row("dispatch", "done", attempt=2, executor="e-2")],  # stale
    [_row("acked", "", ids=["unacked"]),
     _row("dlq-retry", "poison"),
     _row("dispatch", "poison", attempt=1, executor="e-2"),
     _row("result", "late", outcome="ok", result={"executor_id": "e-2"})],
]
AFTER_SECOND_COMPACT = [_submit("last"), _row("acked", "", ids=["late"])]


class History:
    """What the script appended, and how much of it was promised."""

    def __init__(self):
        self.rows = []
        self.promised = 0

    def run(self, journal):
        def append(rows):
            journal.append_many(list(rows))
            self.rows.extend(rows)

        def commit():
            if journal.commit(timeout=5.0):
                self.promised = len(self.rows)

        for batch in BEFORE_FIRST_COMPACT:
            append(batch)
            commit()
        append(DRAINED_BY_COMPACT)
        journal.compact()
        commit()
        *committed, raced = BEFORE_SECOND_COMPACT
        for batch in committed:
            append(batch)
            commit()
        # Whichever of the two takes the buffer writes it; the other
        # finds it durable.  Either way the disk sees the same ops.
        append(raced)
        committer = threading.Thread(target=commit)
        committer.start()
        journal.compact()
        committer.join(10.0)
        assert not committer.is_alive()
        append(AFTER_SECOND_COMPACT)
        commit()
        journal.close()


def _replay(rows):
    state = RecoveredState()
    for row in rows:
        state.apply(row)
    return state.tasks


def _same(got, want, prune):
    """*got* is *want*, give or take (pruning) tasks *want* released."""
    for task_id, task in want.items():
        have = got.get(task_id)
        if have is None:
            if not (prune and task.released):
                return False
        elif have != task:
            return False
    return set(got) <= set(want)


def _check_recovers_a_promised_prefix(directory, history, prune, label):
    got = recover(directory).tasks
    for n in range(len(history.rows), history.promised - 1, -1):
        if _same(got, _replay(history.rows[:n]), prune):
            return got
    raise AssertionError(
        f"{label}: recovered {got} matches no prefix of the history from "
        f"the promised {history.promised} rows "
        f"({_replay(history.rows[:history.promised])}) on; "
        f"directory {sorted(os.listdir(directory))}")


def _check_boot_and_compact_keep(directory, want, prune, label):
    with Journal(directory, prune_settled=prune) as journal:
        assert journal.recovered.tasks == want, f"{label}: boot state"
        assert _same(recover(directory).tasks, want, prune), f"{label}: after boot"
        journal.compact()
    assert _same(recover(directory).tasks, want, prune), f"{label}: after compact"
    assert not os.path.exists(os.path.join(directory, "journal.jsonl.compacting"))


def _wreck(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def enumerate_crash_points(tmp_path, disk_of, prune):
    """The whole enumeration; returns how many wrecks it examined."""
    disk = disk_of()
    history = History()
    history.run(Journal(tmp_path / "clean", prune_settled=prune))
    assert history.promised == len(history.rows)  # the uncut run commits all
    total = disk.ops
    assert total >= 15
    seen = []
    for budget in range(total + 1):
        for tear in ("keep", "drop", "half"):
            label = f"cut after op {budget}/{total}, unsynced bytes: {tear}"
            directory = tmp_path / f"cut-{budget}-{tear}"
            disk_of(budget, tear)
            history = History()
            try:
                history.run(Journal(directory, prune_settled=prune))
            except PowerCut:
                pass  # died inside Journal(): nothing was promised
            disk_of()  # power back on
            wreck = _wreck(directory)
            if wreck in seen:
                shutil.rmtree(directory)
                continue
            seen.append(wreck)
            want = _check_recovers_a_promised_prefix(directory, history, prune, label)
            # Power cuts during the boot over this wreck, then a clean one.
            boot_ops = 0
            while True:
                again = tmp_path / f"cut-{budget}-{tear}-boot-{boot_ops}"
                shutil.copytree(directory, again)
                boot_disk = disk_of(boot_ops, tear)
                try:
                    Journal(again, prune_settled=prune).close()
                except PowerCut:
                    pass
                disk_of()
                boot_label = f"{label}; boot cut after op {boot_ops}"
                assert _same(recover(again).tasks, want, prune), boot_label
                _check_boot_and_compact_keep(again, recover(again).tasks,
                                             prune, boot_label)
                shutil.rmtree(again)
                if not boot_disk.dead:
                    break  # this boot ran to the end: no more cut points
                boot_ops += 1
            _check_boot_and_compact_keep(directory, want, prune, label)
            shutil.rmtree(directory)
    return len(seen)


@pytest.mark.parametrize("prune", [True, False], ids=["pruning", "archiving"])
def test_every_crash_point_of_compaction_and_boot(tmp_path, disk_of, prune):
    assert enumerate_crash_points(tmp_path, disk_of, prune) >= 10


def test_enumeration_catches_segment_retired_before_base_rename(
        tmp_path, disk_of, monkeypatch):
    def retire_then_write(self, rows):
        journal_module.os.unlink(self.rotated_path)
        return journal_module._write_rows(self.base_path, rows)

    monkeypatch.setattr(Journal, "_retire_history", retire_then_write)
    with pytest.raises(AssertionError, match="cut after op"):
        enumerate_crash_points(tmp_path, disk_of, prune=True)


def test_enumeration_catches_rows_taken_outside_the_rotation_lock(
        tmp_path, disk_of, monkeypatch):
    compact = Journal.compact

    def compact_with_early_rows(self):
        early = self._live_rows()  # before the drain and the lock hold
        self._live_rows = lambda: early
        try:
            compact(self)
        finally:
            del self._live_rows

    monkeypatch.setattr(Journal, "compact", compact_with_early_rows)
    with pytest.raises(AssertionError, match="matches no prefix"):
        enumerate_crash_points(tmp_path, disk_of, prune=True)
