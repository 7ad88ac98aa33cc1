"""A settled task's result is its wire entry.

The dispatcher keeps the executor's sparse result object as it arrived
and builds every entry from it; it used to parse the object into a
``TaskResult``, write the settle's fields on that, and serialise it
back.  That path is kept here as the reference — ``result_from_dict``
with the record's stamps, ``result_to_dict``, and ``_reference_notify``
(the notify builder the dispatcher had) — and the entries a RESULT
frame settles into must equal it: the client's CLIENT_NOTIFY entry and
the WAL ``result`` row, for any result fields, attempt count, peer or
executor sender, and known or unknown stamps.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.live import LiveDispatcher
from repro.live.dispatcher import _ClientSession, _LiveRecord, _wal_object
from repro.live.protocol import result_from_dict, result_to_dict
from repro.net.message import Message, MessageType
from repro.net.wire import dumps
from repro.types import TaskResult, TaskState, TaskTimeline

CLIENT = "c-entry"


def _reference_notify(result: TaskResult, payload: Optional[dict] = None) -> dict:
    """*result* as a CLIENT_NOTIFY entry, the way the parsed path built
    it: its wire object plus a ``timeline`` of the finite stamps."""
    if payload is None:
        payload = result_to_dict(result)
    timeline = result.timeline
    stamps = {}
    if math.isfinite(timeline.submitted):
        stamps["submitted"] = timeline.submitted
    if math.isfinite(timeline.dispatched):
        stamps["dispatched"] = timeline.dispatched
    if math.isfinite(timeline.completed):
        stamps["completed"] = timeline.completed
    if stamps:
        payload["timeline"] = stamps
    return payload


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """A journalled dispatcher (every failure settles: no retries) with
    a fake client session that collects its CLIENT_NOTIFY frames, and
    the WAL rows it appends."""
    dispatcher = LiveDispatcher(
        max_retries=0, journal_dir=str(tmp_path_factory.mktemp("wal")))
    notified: list[Message] = []
    rows: list[dict] = []
    journal = dispatcher.journal
    append_many = journal.append_many

    def capture(records):
        rows.extend(records)
        append_many(records)

    journal.append_many = capture
    dispatcher._call(dispatcher._clients.__setitem__, CLIENT, _ClientSession(
        CLIENT, SimpleNamespace(send=notified.append, close=lambda: None)))
    try:
        yield dispatcher, notified, rows
    finally:
        dispatcher.close()


_ids = itertools.count()
_text = st.text(max_size=6)
_stamps = st.one_of(st.just(math.nan), st.floats(0.0, 1e6))
_results = st.builds(
    TaskResult, task_id=st.just(""),
    return_code=st.sampled_from([0, 0, 1, -9, 127]),
    stdout=_text, stderr=_text,
    executor_id=st.sampled_from(["", "remote-7"]),
    error=st.sampled_from(["", "boom"]) | _text,
    attempts=st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(sent=_results, attempts=st.integers(1, 4), peer=st.booleans(),
       submitted=_stamps, dispatched=_stamps)
def test_settled_entries_equal_the_parsed_path(
        deployment, sent, attempts, peer, submitted, dispatched):
    dispatcher, notified, rows = deployment
    task_id = sent.task_id = f"entry-{next(_ids)}"
    wire = result_to_dict(sent)
    record = _LiveRecord(task_id, CLIENT, state=TaskState.DISPATCHED,
                         attempts=attempts, spec_dict={"task_id": task_id},
                         submitted=submitted, dispatched=dispatched)
    dispatcher._call(dispatcher._records.__setitem__, task_id, record)
    role = ("peer", "peer:b") if peer else ("executor", "e-1")
    session = SimpleNamespace(role=role, conn=SimpleNamespace(send=lambda m: None))
    notified.clear()
    rows.clear()
    dispatcher._call(dispatcher._on_result, session, Message(
        MessageType.RESULT, sender=role[1], payload={"results": [{
            "result": dict(wire), "attempt": attempts,
            "exec": {"seconds": 0.0}}]}))

    # The parsed path: the result adopts the record's stamps, the
    # settle writes its executor id and attempt count on it.
    parsed = result_from_dict(wire, TaskTimeline(
        submitted=submitted, dispatched=dispatched, completed=record.completed))
    if not (peer and parsed.executor_id):
        parsed.executor_id = role[1]
    parsed.attempts = attempts
    reference_row = _wal_object(result_to_dict(parsed))
    reference = _reference_notify(parsed)

    (row,) = [r for r in rows if r["k"] == "result"]
    (entry,) = [e for frame in notified for e in frame.payload["results"]]
    assert row["result"] == reference_row
    assert entry == reference
    if "executor_id" in wire:
        # The LiveExecutor shape (it always names itself): byte for byte.
        assert dumps(row["result"]) == dumps(reference_row)
        assert dumps(entry) == dumps(reference)
    # Building an entry leaves the kept object as it was.
    assert "timeline" not in record.result
    assert record.entry() == entry
