"""Differential test: read-free compaction against the fold it replaced.

The reference below is the compaction older commits ran, in its
plainest form and on real files: rotate the tail, *read it back*, fold
old ``snapshot.json`` + segment through :meth:`RecoveredState.apply`,
prune, write a new snapshot.  The journal keeps the rows of unreleased
tasks instead and writes those as its base.  Both are driven through
the same ``hypothesis`` histories — every row kind, single- and
multi-id acks, a released id submitted again, rows for ids never
submitted, compactions at drawn points, pruning on and off — and must
recover to the same state, task by task.

One kind of history is left out because no dispatcher writes it: a
``dlq`` or ``dlq-retry`` row for a task that is released at that point
(the dispatcher journals ``dlq`` in the same batch as the failed
``result``, before the ack; ``dlq_retry`` needs a DLQ entry, which pins
the task).  The fold would un-release such a task if the row fell in
the segment of its release, and forget it if it fell in the next one.

The last two tests pin what the replacement is for: ``compact()``
parses nothing, and the base holds the unreleased tasks' rows only.
"""

import dataclasses
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.live import journal as journal_module
from repro.live.journal import (
    Journal,
    RecoveredState,
    RecoveredTask,
    journal_line,
    read_journal_tail,
    recover,
)

from tests.live.util import wait_until


def _task_from_dict(data):
    """One ``snapshot.json`` entry as the reference writes it."""
    return RecoveredTask(
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


class FoldingReference:
    """``Journal`` + ``recover`` as they compacted before the base."""

    def __init__(self, directory, prune):
        self.prune = prune
        self.tail = os.path.join(directory, "journal.jsonl")
        self.rotated = self.tail + ".compacting"
        self.snapshot = os.path.join(directory, "snapshot.json")

    def append(self, rows):
        with open(self.tail, "ab") as fh:
            fh.write(journal_line(rows) + b"\n")

    def _load_snapshot(self, state):
        if os.path.exists(self.snapshot):
            with open(self.snapshot, encoding="utf-8") as fh:
                for entry in json.load(fh)["tasks"]:
                    task = _task_from_dict(entry)
                    state.tasks[task.task_id] = task

    def compact(self):
        if not os.path.exists(self.tail):
            return
        os.replace(self.tail, self.rotated)
        state = RecoveredState()
        self._load_snapshot(state)
        for row in read_journal_tail(self.rotated)[0]:
            state.apply(row)
        tasks = list(state.tasks.values())
        if self.prune:
            tasks = [t for t in tasks
                     if not (t.terminal and t.acked and not t.in_dlq)]
        with open(self.snapshot, "w", encoding="utf-8") as fh:
            json.dump({"version": 1,
                       "tasks": [dataclasses.asdict(t) for t in tasks]},
                      fh, sort_keys=True)
        os.unlink(self.rotated)

    def recover(self):
        state = RecoveredState()
        self._load_snapshot(state)
        for row in read_journal_tail(self.tail)[0]:
            state.apply(row)
        return state


# -- histories -----------------------------------------------------------------
#: A small pool, so rows collide; ``t5`` and ``t6`` are rarely submitted.
IDS = st.sampled_from([f"t{i}" for i in range(7)])
SUBMITTABLE = st.sampled_from([f"t{i}" for i in range(5)])
EXECUTORS = st.sampled_from(["e-1", "e-2"])

OPS = st.one_of(
    st.tuples(st.just("submit"), SUBMITTABLE,
              st.none() | st.just({"shard": "s-1", "attempt": 2})),
    st.tuples(st.just("dispatch"), IDS, st.none() | st.integers(1, 3), EXECUTORS),
    st.tuples(st.just("requeue"), IDS, st.integers(1, 3)),
    st.tuples(st.just("result"), IDS, st.sampled_from(["ok", "fail"])),
    st.tuples(st.just("dlq"), IDS),
    st.tuples(st.just("dlq-retry"), IDS),
    st.tuples(st.just("acked-one"), IDS),
    st.tuples(st.just("acked-many"), st.lists(IDS, max_size=4)),
    st.tuples(st.just("run-to-release"), SUBMITTABLE),
    st.tuples(st.just("compact"), st.booleans()),
)


def _lifecycle(task_id, settled):
    rows = [{"k": "submit", "id": task_id, "client": "c-1",
             "spec": {"args": ["0"]}},
            {"k": "dispatch", "id": task_id, "attempt": 1, "executor": "e-1"}]
    if settled:
        rows.append({"k": "result", "id": task_id, "outcome": "ok",
                     "result": {"executor_id": "e-1"}})
    return rows


def _rows_of(op, model):
    """The journal rows of one drawn op (none if no dispatcher could
    write it, see the module docstring)."""
    kind, *args = op
    if kind == "submit":
        row = {"k": "submit", "id": args[0], "client": "c-1",
               "spec": {"args": ["0"]}}
        if args[1] is not None:
            row["origin"] = args[1]
        return [row]
    if kind == "dispatch":
        row = {"k": "dispatch", "id": args[0], "executor": args[2]}
        if args[1] is not None:
            row["attempt"] = args[1]
        return [row]
    if kind == "requeue":
        return [{"k": "requeue", "id": args[0], "attempt": args[1]}]
    if kind == "result":
        return [{"k": "result", "id": args[0], "outcome": args[1],
                 "result": {"return_code": int(args[1] != "ok")}}]
    if kind in ("dlq", "dlq-retry"):
        task = model.tasks.get(args[0])
        if task is not None and task.released:
            return []
        return [{"k": kind, "id": args[0], "error": "boom"}]
    if kind == "acked-one":
        return [{"k": "acked", "id": args[0]}]
    if kind == "run-to-release":  # a whole uneventful life, as most are
        return [*_lifecycle(args[0], True),
                {"k": "acked", "id": "", "ids": [args[0]]}]
    return [{"k": "acked", "id": "", "ids": args[0]}]


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, max_size=50), prune=st.booleans())
def test_recovers_what_the_fold_recovered(ops, prune):
    with tempfile.TemporaryDirectory() as new_dir, \
            tempfile.TemporaryDirectory() as old_dir, \
            mock.patch.object(os, "fsync", lambda fd: None), \
            mock.patch.object(journal_module, "FLUSH_WINDOW", 3600.0):
        reference = FoldingReference(old_dir, prune)
        journal = Journal(new_dir, prune_settled=prune)
        model = RecoveredState()
        try:
            for op in ops:
                if op[0] == "compact":
                    if op[1]:
                        assert journal.commit()
                    journal.compact()
                    reference.compact()
                    continue
                rows = _rows_of(op, model)
                if rows:
                    for row in rows:
                        model.apply(row)
                    journal.append_many(rows)
                    reference.append(rows)
        finally:
            journal.close()
        want = reference.recover().tasks
        assert recover(new_dir).tasks == want
        # ... and a second incarnation boots from, and compacts to, the same.
        with Journal(new_dir, prune_settled=prune) as journal:
            assert journal.recovered.tasks == want
            journal.compact()
        reference.compact()
        assert recover(new_dir).tasks == reference.recover().tasks


# -- the point of it -----------------------------------------------------------
def test_compaction_parses_nothing_and_keeps_only_unreleased_rows(
        tmp_path, monkeypatch):
    settled = [f"s-{i:05d}" for i in range(6_000)]
    running = [f"r-{i:02d}" for i in range(50)]
    # A window longer than the test: the flusher, which would compact
    # the due tail on its own, never wakes; the compaction is ours.
    monkeypatch.setattr(journal_module, "FLUSH_WINDOW", 3600.0)
    with Journal(tmp_path, compact_every=20_000,
                 prune_settled=True) as journal:
        for at in range(0, len(settled), 500):
            bundle = settled[at:at + 500]
            journal.append_many([row for task_id in bundle
                                 for row in _lifecycle(task_id, True)])
            journal.append("acked", "", ids=bundle)
            if at == 3_000:
                journal.append_many([row for task_id in running
                                     for row in _lifecycle(task_id, False)])
        journal.append_many([{"k": "requeue", "id": "s-00000", "attempt": 1}
                             for _ in range(2_000)])  # stale: not kept
        assert journal.commit()
        assert journal.tail_records >= 20_000 and journal.should_compact()
        # Tracking rides the flusher after the commit barrier is released.
        assert wait_until(lambda: journal.stats()["live_tasks"] == 50)

        def forbidden(*args, **kwargs):
            raise AssertionError("compact() read the journal back")

        with monkeypatch.context() as patch:
            for name in ("read_journal_tail", "parse_journal_line", "_scan"):
                patch.setattr(journal_module, name, forbidden)
            patch.setattr(json, "load", forbidden)
            patch.setattr(json, "loads", forbidden)
            patch.setattr(journal_module, "loads", forbidden)
            journal.compact()
        assert journal.stats()["compactions"] == 1
        assert journal.tail_records == 0
    rows, truncated = read_journal_tail(tmp_path / "base.jsonl")
    assert truncated == 0 and len(rows) == 100
    assert {row["id"] for row in rows} == set(running)
    assert os.path.getsize(tmp_path / "base.jsonl") < 10_000
    assert os.path.getsize(tmp_path / "journal.jsonl") == 0
    state = recover(tmp_path)
    assert set(state.tasks) == set(running) and state.replayed == 0
    assert all(task.state == "dispatched" for task in state.tasks.values())


def test_recovered_task_dict_round_trip():
    task = RecoveredTask(
        task_id="t-1", spec={"command": "sleep"}, client_id="c-1",
        state="dispatched", attempts=2, executor_id="e-1",
        result=None, acked=False, in_dlq=False,
    )
    entry = dataclasses.asdict(task)
    del entry["origin"]  # an unset origin was left out
    assert _task_from_dict(entry) == task
