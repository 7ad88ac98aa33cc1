"""The dispatcher's memory per settled task, and the state it releases.

A light-weight dispatcher is one whose per-task heap stays small:
every retained byte is also collector work on every later task
(``docs/PERFORMANCE.md``, "Per-task memory").  The budget test pins the
retained bytes and collector-tracked containers per settled task; the
release tests pin what a record keeps of its task's spec — the wire
dict it arrived as, while the task can still be sent (queued,
dispatched, quarantined: ``dlq_retry`` and a later steal grant send it
as it came) and nothing once it settles anywhere else — and that a
result a reconnecting client backfills is released like a notified one.
"""

import gc
import tracemalloc

from repro.live import LiveDispatcher, LiveExecutor, LocalFalkon
from repro.live import federation as federation_module
from repro.live.protocol import task_to_dict
from repro.net.message import Message, MessageType
from repro.net.wire import dumps
from repro.types import TaskResult, TaskSpec, TaskTimeline

from tests.live.util import RawPeer, wait_until

#: Retained bytes per settled task: 1.25 x the ~780 this method reads
#: once a record keeps no parsed ``TaskSpec`` and the ring no per-task
#: exec attrs tuple (it read ~1 122 with both, against a 1 408 budget).
BYTES_PER_TASK_BUDGET = 975

#: Collector-tracked containers retained per settled task: 1.25 x the
#: ~1.0 this method reads once a record keeps its stamps in slots and its
#: result as the wire dict it arrived as — a dict of strings the
#: collector does not track — so the record is the one container left
#: (~3.0 with a parsed result and its timeline, ~4.0 with the parsed spec
#: too).  Every one of them is walked by every full collection.
TRACKED_PER_TASK_BUDGET = 1.25


def sleep0(prefix, n):
    return [TaskSpec.sleep(0, task_id=f"{prefix}-{i:06d}") for i in range(n)]


def test_retained_bytes_per_settled_task_within_budget():
    """4 000 sleep-0 tasks settled and retained, measured by
    ``tracemalloc`` after a warm-up, and the collector-tracked objects
    they leave (``len(gc.get_objects())`` after a full collection):
    counts of the same allocations, so no timing and no flake.  The parent of the
    per-task diet (list-of-tuples span store, ``spec_dict`` and
    ``trace_wire`` kept, unslotted records) reads 3 584 bytes per task
    here — 2.5 x this budget — so the gate can fail.  The dispatcher's
    event ring is per-task memory until it holds its 720 000 events, so
    it is measured, not warmed away: the warm-up only gets the
    deployment's first allocations out of the window.  Tracing starts
    before the deployment exists, so a column the measured run
    reallocates counts only what it grew."""
    tasks = 4_000
    warm = 500
    tracemalloc.start()
    try:
        with LocalFalkon(executors=2, pipeline_depth=16) as falkon:
            assert all(r.ok for r in falkon.run(sleep0("warm", warm), timeout=60))
            falkon.client.release_settled()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracked_before = len(gc.get_objects())
            ok = all(r.ok for r in falkon.run(sleep0("mem", tasks), timeout=120))
            falkon.client.release_settled()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            tracked = len(gc.get_objects()) - tracked_before
            assert ok
            assert falkon.dispatcher.stats().completed == tasks + warm
            # A settled task keeps its result as the wire dict it came as.
            assert not any(
                isinstance(getattr(record, name), (TaskResult, TaskTimeline))
                for record in falkon.dispatcher._records.values()
                for name in record.__slots__)
    finally:
        tracemalloc.stop()
    assert retained / tasks <= BYTES_PER_TASK_BUDGET
    assert tracked / tasks <= TRACKED_PER_TASK_BUDGET


SPEC = TaskSpec(task_id="diet-1", command="sleep", args=("0",),
                env=(("A", "1"),), stage="stage-7", runtime_estimate=0.5)


class _Exchange:
    """A hand-driven client and executor on one dispatcher."""

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher
        self.client = RawPeer(dispatcher.address)
        self.client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        self.client.recv_until(MessageType.INSTANCE_CREATED)
        self.executor = RawPeer(dispatcher.address)
        self.executor.register("e-1")

    def submit(self, spec):
        self.client.send(Message(MessageType.SUBMIT, sender="c",
                                 payload={"tasks": [task_to_dict(spec)]}))
        return self.client.recv_until(MessageType.SUBMIT_ACK)

    def pull(self):
        """The single entry of the WORK pushed to the idle executor."""
        (entry,) = self.executor.recv_work()
        return entry

    def finish(self, entry, return_code):
        self.executor.send(Message(MessageType.RESULT, sender="e-1", payload={
            "results": [{"result": {"task_id": entry["task"]["task_id"],
                                    "return_code": return_code},
                         "attempt": entry["attempt"]}]}))
        self.executor.recv_until(MessageType.RESULT_ACK)
        (result,) = self.client.recv_until(
            MessageType.CLIENT_NOTIFY).payload["results"]
        return result

    def close(self):
        self.client.close()
        self.executor.close()
        self.dispatcher.close()


def test_settle_releases_wire_state_and_it_is_rebuilt_on_demand():
    """A quarantined task keeps the spec dict it arrived as, and
    ``dlq_retry`` sends it byte for byte; an ok settle releases it.
    No record holds a parsed ``TaskSpec``."""
    exchange = _Exchange(LiveDispatcher(max_retries=0))
    dispatcher = exchange.dispatcher
    try:
        exchange.submit(SPEC)
        first = exchange.pull()
        record = dispatcher._records[SPEC.task_id]
        assert first["task"] == task_to_dict(SPEC)
        assert record.spec_dict == task_to_dict(SPEC)
        assert not hasattr(record, "spec") and record.task_id == SPEC.task_id
        assert wait_until(lambda: dispatcher.trace(SPEC.task_id)[-1].name == "pull")

        assert exchange.finish(first, return_code=1)["return_code"] == 1
        assert record.spec_dict == task_to_dict(SPEC)  # quarantined: kept
        assert dispatcher.dlq_entry(SPEC.task_id)["command"] == SPEC.command
        assert dispatcher.trace(SPEC.task_id)[-2].get("outcome") == "fail"
        assert [e["task_id"] for e in dispatcher.dlq_list()] == [SPEC.task_id]

        # A duplicate SUBMIT of the settled id re-pushes the stored result.
        assert exchange.submit(SPEC).payload["accepted"] == 1
        (again,) = exchange.client.recv_until(
            MessageType.CLIENT_NOTIFY).payload["results"]
        assert again["task_id"] == SPEC.task_id and again["return_code"] == 1

        # dlq_retry re-dispatches the same spec on the same chain: the
        # new attempt's own enqueue and notify follow the settled ack.
        assert dispatcher.dlq_retry(SPEC.task_id)
        second = exchange.pull()
        assert dumps(second["task"]) == dumps(first["task"])
        assert second["attempt"] == 1
        assert wait_until(lambda: dispatcher.trace(SPEC.task_id)[-1].name == "pull")
        chain = dispatcher.trace(SPEC.task_id)
        assert len({span.trace_id for span in chain}) == 1
        assert [span.name for span in chain[-4:]] == [
            "ack", "enqueue", "notify", "pull"]
        assert chain[-3].get("reason") == "dlq-retry"

        # The result object travels as the executor sent it (this one
        # names its default return code), with the settle's executor
        # id and the timeline added.
        done = exchange.finish(second, return_code=0)
        assert set(done) == {"task_id", "return_code", "executor_id", "timeline"}
        assert record.spec_dict is None
        assert dispatcher.spans.chain_complete(SPEC.task_id)
        assert dispatcher.stats().completed == 1
    finally:
        exchange.close()


def test_steal_grant_of_a_requeued_settled_task_carries_the_full_spec(monkeypatch):
    # One queued task is all there is: no floor may keep it home.
    monkeypatch.setattr(federation_module, "STEAL_MIN_QUEUE", 0)
    exchange = _Exchange(LiveDispatcher(max_retries=0, shard_id="a"))
    dispatcher = exchange.dispatcher
    thief = None
    try:
        exchange.submit(SPEC)
        first = exchange.pull()
        exchange.finish(first, return_code=1)
        assert dispatcher._records[SPEC.task_id].spec_dict is not None
        # The executor leaves, so the requeued task is surplus.
        exchange.executor.send(Message(MessageType.DEREGISTER, sender="e-1"))
        exchange.executor.close()
        assert wait_until(lambda: not dispatcher._executors)
        assert dispatcher.dlq_retry(SPEC.task_id)

        thief = RawPeer(dispatcher.address)
        thief.send(Message(MessageType.HEARTBEAT, sender="b", payload={
            "shard": {"id": "b", "caps": ["steal"], "stats": {"queued": 0}}}))
        thief.send(Message(MessageType.STEAL_REQUEST, sender="b",
                           payload={"want": 1}))
        (granted,) = thief.recv_until(MessageType.STEAL_GRANT).payload["tasks"]
        assert granted["attempt"] == 1
        assert dumps(granted["task"]) == dumps(first["task"])
    finally:
        if thief is not None:
            thief.close()
        exchange.close()


def test_dlq_entry_command_defaults_like_the_codec():
    """A spec dict that omits ``command`` (the codec's default) still
    names it in the DLQ entry, as the parsed spec did."""
    exchange = _Exchange(LiveDispatcher(max_retries=0))
    try:
        spec = TaskSpec(task_id="bare-1")
        assert "command" not in task_to_dict(spec)
        exchange.submit(spec)
        exchange.finish(exchange.pull(), return_code=1)
        assert exchange.dispatcher.dlq_entry("bare-1")["command"] == spec.command
    finally:
        exchange.close()


def test_backfilled_results_are_acked_and_released(tmp_path):
    """Results a reconnecting client fetches with GET_RESULTS were
    delivered: they are acked like notified ones, so ``retain_settled``
    evicts them and journal compaction drops them, instead of keeping
    them settled and unacked for good."""
    dispatcher = LiveDispatcher(retain_settled=5, journal_dir=str(tmp_path))
    client = RawPeer(dispatcher.address)
    executor = None
    try:
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        epr = client.recv_until(MessageType.INSTANCE_CREATED).payload["epr"]
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [task_to_dict(spec) for spec in sleep0("away", 20)]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        client.close()  # gone before anything settles: nothing is notified
        assert wait_until(lambda: epr not in dispatcher._clients)
        executor = LiveExecutor(dispatcher.endpoint).start()
        assert wait_until(lambda: dispatcher.stats().completed == 20)

        client = RawPeer(dispatcher.address)
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c",
                            payload={"epr": epr}))
        client.recv_until(MessageType.INSTANCE_CREATED)
        client.send(Message(MessageType.GET_RESULTS, sender="c"))
        assert len(client.recv_until(MessageType.RESULTS).payload["results"]) == 20
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [task_to_dict(spec) for spec in sleep0("back", 50)]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        assert wait_until(lambda: dispatcher.stats().completed == 70)
        assert wait_until(lambda: len(dispatcher._records) == 5)
        assert all(record.acked for record in list(dispatcher._records.values()))
        dispatcher.journal.compact()
        assert dispatcher.journal.stats()["live_tasks"] == 0
    finally:
        client.close()
        if executor is not None:
            executor.stop()
            executor.join(timeout=5.0)
        dispatcher.close()


def test_backfilled_results_carry_their_stamps():
    """A RESULTS entry is built like a CLIENT_NOTIFY one: a future a
    reconnecting client backfills gets the dispatcher's stamps, in
    causal order, instead of none."""
    exchange = _Exchange(LiveDispatcher())
    try:
        exchange.submit(SPEC)
        notified = exchange.finish(exchange.pull(), return_code=0)
        exchange.client.send(Message(MessageType.GET_RESULTS, sender="c"))
        (entry,) = exchange.client.recv_until(MessageType.RESULTS).payload["results"]
        timeline = entry["timeline"]
        assert timeline["submitted"] <= timeline["dispatched"] <= timeline["completed"]
        assert entry == notified
    finally:
        exchange.close()
