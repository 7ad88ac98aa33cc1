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
from repro.live import dispatcher as dispatcher_module
from repro.live.protocol import task_to_dict
from repro.net.message import Message, MessageType
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until

#: Retained bytes per settled task: 1.25 x the 1 126 the untraced-
#: warm-up method of the parent read (1 222 while every task record still
#: carried a ``threading.Lock``); this method reads ~1 050.
BYTES_PER_TASK_BUDGET = 1_408


def sleep0(prefix, n):
    return [TaskSpec.sleep(0, task_id=f"{prefix}-{i:06d}") for i in range(n)]


def test_retained_bytes_per_settled_task_within_budget():
    """4 000 sleep-0 tasks settled and retained, measured by
    ``tracemalloc`` after a warm-up: byte counts of the same
    allocations, so no timing and no flake.  The parent of the
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
            ok = all(r.ok for r in falkon.run(sleep0("mem", tasks), timeout=120))
            falkon.client.release_settled()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            assert ok
            assert falkon.dispatcher.stats().completed == tasks + warm
    finally:
        tracemalloc.stop()
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
    exchange = _Exchange(LiveDispatcher(max_retries=0))
    dispatcher = exchange.dispatcher
    try:
        exchange.submit(SPEC)
        first = exchange.pull()
        record = dispatcher._records[SPEC.task_id]
        assert first["task"] == task_to_dict(SPEC)
        assert record.spec_dict is not None
        assert wait_until(lambda: dispatcher.trace(SPEC.task_id)[-1].name == "pull")

        assert exchange.finish(first, return_code=1)["return_code"] == 1
        assert record.spec_dict is None
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
        assert second["task"] == task_to_dict(SPEC)
        assert second["attempt"] == 1
        assert wait_until(lambda: dispatcher.trace(SPEC.task_id)[-1].name == "pull")
        chain = dispatcher.trace(SPEC.task_id)
        assert len({span.trace_id for span in chain}) == 1
        assert [span.name for span in chain[-4:]] == [
            "ack", "enqueue", "notify", "pull"]
        assert chain[-3].get("reason") == "dlq-retry"

        # An ok result travels sparse: return_code 0 is a default.
        done = exchange.finish(second, return_code=0)
        assert set(done) == {"task_id", "executor_id", "timeline"}
        assert record.spec_dict is None
        assert dispatcher.spans.chain_complete(SPEC.task_id)
        assert dispatcher.stats().completed == 1
    finally:
        exchange.close()


def test_steal_grant_of_a_requeued_settled_task_carries_the_full_spec(monkeypatch):
    # One queued task is all there is: no floor may keep it home.
    monkeypatch.setattr(dispatcher_module, "STEAL_MIN_QUEUE", 0)
    exchange = _Exchange(LiveDispatcher(max_retries=0, shard_id="a"))
    dispatcher = exchange.dispatcher
    thief = None
    try:
        exchange.submit(SPEC)
        exchange.finish(exchange.pull(), return_code=1)
        assert dispatcher._records[SPEC.task_id].spec_dict is None
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
        assert granted == {"task": task_to_dict(SPEC), "attempt": 1}
    finally:
        if thief is not None:
            thief.close()
        exchange.close()
