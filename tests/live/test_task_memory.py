"""The dispatcher's memory per settled task, and the state it releases.

A light-weight dispatcher is one whose per-task heap stays small:
every retained byte is also collector work on every later task
(``docs/PERFORMANCE.md``, "Per-task memory").  The budget test pins the
retained bytes per settled task; the release tests pin that the
wire-only state dropped at settle is rebuilt wherever it is still
needed — ``dlq_retry``, duplicate SUBMIT of a settled id, a steal
grant.
"""

import gc
import tracemalloc

from repro.live import LiveDispatcher, LocalFalkon
from repro.live.protocol import task_to_dict
from repro.net.message import Message, MessageType
from repro.types import TaskSpec

from tests.live.util import RawPeer

#: Retained bytes per settled task: 1.25 x the 1 270 this reads.
BYTES_PER_TASK_BUDGET = 1_600


def sleep0(prefix, n):
    return [TaskSpec.sleep(0, task_id=f"{prefix}-{i:06d}") for i in range(n)]


def test_retained_bytes_per_settled_task_within_budget():
    """4 000 sleep-0 tasks settled and retained, measured by
    ``tracemalloc`` after a warm-up: byte counts of the same
    allocations, so no timing and no flake.  The parent of the
    per-task diet (list-of-tuples span store, ``spec_dict`` and
    ``trace_wire`` kept, unslotted records) reads 3 584 bytes per task
    here — 2.2 x this budget — so the gate can fail.  The flight
    recorder is off because its ring is bounded, not per-task: 4 000
    tasks would only measure it still filling."""
    tasks = 4_000
    with LocalFalkon(executors=2, pipeline_depth=16, flight=False) as falkon:
        assert all(r.ok for r in falkon.run(sleep0("warm", 500), timeout=60))
        falkon.client.release_settled()
        gc.collect()
        tracemalloc.start()
        try:
            ok = all(r.ok for r in falkon.run(sleep0("mem", tasks), timeout=120))
            falkon.client.release_settled()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ok
        assert falkon.dispatcher.stats().completed == tasks + 500
    assert retained / tasks <= BYTES_PER_TASK_BUDGET


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
        """GET_WORK; returns the single WORK entry."""
        self.executor.send(Message(MessageType.GET_WORK, sender="e-1"))
        (entry,) = self.executor.recv_until(MessageType.WORK).payload["tasks"]
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
    exchange = _Exchange(LiveDispatcher(max_retries=0))
    dispatcher = exchange.dispatcher
    try:
        exchange.submit(SPEC)
        first = exchange.pull()
        record = dispatcher._records[SPEC.task_id]
        assert first["task"] == task_to_dict(SPEC)
        assert record.spec_dict is not None and record.trace_wire == first["trace"]

        assert exchange.finish(first, return_code=1)["return_code"] == 1
        assert record.spec_dict is None and record.trace_wire is None
        assert [e["task_id"] for e in dispatcher.dlq_list()] == [SPEC.task_id]

        # A duplicate SUBMIT of the settled id re-pushes the stored result.
        assert exchange.submit(SPEC).payload["accepted"] == 1
        (again,) = exchange.client.recv_until(
            MessageType.CLIENT_NOTIFY).payload["results"]
        assert again["task_id"] == SPEC.task_id and again["return_code"] == 1

        # dlq_retry re-dispatches the same spec under a fresh context:
        # same trace, a later span — the new attempt's own notify.
        assert dispatcher.dlq_retry(SPEC.task_id)
        second = exchange.pull()
        assert second["task"] == task_to_dict(SPEC)
        assert second["attempt"] == 1
        assert second["trace"]["tid"] == first["trace"]["tid"]
        assert second["trace"]["sid"] > first["trace"]["sid"]
        chain = dispatcher.trace(SPEC.task_id)
        assert chain[second["trace"]["sid"] - 1].name == "notify"

        # An ok result travels sparse: return_code 0 is a default.
        done = exchange.finish(second, return_code=0)
        assert set(done) == {"task_id", "executor_id", "timeline"}
        assert record.spec_dict is None and record.trace_wire is None
        assert dispatcher.stats().completed == 1
    finally:
        exchange.close()


def test_steal_grant_of_a_requeued_settled_task_carries_the_full_spec():
    exchange = _Exchange(LiveDispatcher(max_retries=0, shard_id="a",
                                        steal_min_queue=0))
    dispatcher = exchange.dispatcher
    thief = None
    try:
        exchange.submit(SPEC)
        exchange.finish(exchange.pull(), return_code=1)
        assert dispatcher._records[SPEC.task_id].spec_dict is None
        # The executor leaves, so the requeued task is surplus.
        exchange.executor.send(Message(MessageType.DEREGISTER, sender="e-1"))
        exchange.executor.close()
        assert dispatcher.dlq_retry(SPEC.task_id)

        thief = RawPeer(dispatcher.address)
        thief.send(Message(MessageType.HEARTBEAT, sender="b", payload={
            "shard": {"id": "b", "caps": ["steal"], "stats": {"queued": 0}}}))
        thief.send(Message(MessageType.STEAL_REQUEST, sender="b",
                           payload={"want": 1}))
        (granted,) = thief.recv_until(MessageType.STEAL_GRANT).payload["tasks"]
        assert granted == {"task": task_to_dict(SPEC), "attempt": 1}
    finally:
        if thief is not None:
            thief.close()
        exchange.close()
