"""One writer per task transition: what the live table, the WAL, the
span chain and the lifecycle log say about a task agree.

Each case pins one agreement a second writer of the same transition
would break: the WAL hears of an undelivered requeue, a stolen task's
failure is a ``fail`` in its ``result`` span too, and steal admissions
are in the lifecycle log like SUBMIT's.
"""

from repro.errors import ProtocolError
from repro.live import LiveDispatcher
from repro.live import federation as federation_module
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor
from repro.live.federation import LocalFederation
from repro.live.journal import recover
from repro.live.protocol import Connection, task_to_dict
from repro.net.message import CODE_TO_TYPE, Message, MessageType
from repro.obs import read_events_jsonl, replay_summary
from repro.types import TaskSpec, TaskState

from tests.live.util import RawPeer, wait_until


def _client(dispatcher):
    client = RawPeer(dispatcher.address)
    client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
    client.recv_until(MessageType.INSTANCE_CREATED)
    return client


def test_undelivered_requeue_leaves_the_wal_agreeing_with_the_table(
    tmp_path, monkeypatch
):
    """A WORK frame whose send fails hands its attempt back — in the
    journal too, so a crash afterwards does not charge the task a retry
    it never ran."""
    transmit = Connection._transmit

    def refusing_work(self, frame):
        if CODE_TO_TYPE[frame[2]] is MessageType.WORK:
            self.close()
            raise ProtocolError(f"{self.name}: send failed: refused")
        transmit(self, frame)

    journal_dir = str(tmp_path / "journal")
    dispatcher = LiveDispatcher(journal_dir=journal_dir, max_retries=1)
    client = _client(dispatcher)
    executor = RawPeer(dispatcher.address)
    try:
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": "undelivered-0", "args": ["0"]}]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        monkeypatch.setattr(Connection, "_transmit", refusing_work)
        executor.register("refused")
        assert wait_until(lambda: not dispatcher._executors)
        record = dispatcher._records["undelivered-0"]
        assert (record.state, record.attempts) == (TaskState.QUEUED, 0)
        assert dispatcher.stats().retries == 0
    finally:
        client.close()
        executor.close()
        dispatcher.close()
    task = recover(journal_dir).tasks["undelivered-0"]
    assert (task.state, task.attempts) == ("queued", 0)


def test_failed_stolen_task_result_span_says_fail():
    """A stolen task settles on its first result, pass or fail (the
    donor owns its retry budget), and its ``result`` span says so."""
    dispatcher = LiveDispatcher(shard_id="thief")
    executor = RawPeer(dispatcher.address)
    spec = TaskSpec.sleep(0, task_id="stolen-fail")
    try:
        executor.register("e-1")
        dispatcher._post(dispatcher._federation.ingest, "donor",
                         [{"task": task_to_dict(spec), "attempt": 1}])
        (entry,) = executor.recv_work()
        executor.send(Message(MessageType.RESULT, sender="e-1", payload={
            "results": [{"result": {"task_id": spec.task_id, "return_code": 1},
                         "attempt": entry["attempt"]}]}))
        assert wait_until(lambda: dispatcher.stats().stolen_failed == 1)
        assert dispatcher._records[spec.task_id].state is TaskState.FAILED
        results = [span for span in dispatcher.trace(spec.task_id)
                   if span.name == "result"]
        assert [span.get("outcome") for span in results] == ["fail"]
        assert dispatcher.stats().retries == 0
    finally:
        executor.close()
        dispatcher.close()


def test_thief_lifecycle_log_counts_what_its_stats_count(tmp_path, monkeypatch):
    """Steal ingest is an admission like SUBMIT: one ``queue.enq`` per
    task, so the thief's followed log replays to its own counters."""
    # The donor has no executors; no floor may keep its last tasks home.
    monkeypatch.setattr(federation_module, "STEAL_MIN_QUEUE", 0)
    logs = {}
    with LocalFederation(shards=2, executors_per_shard=0,
                         monitor_interval=0.05) as fed:
        for shard_id, dispatcher in fed.dispatchers.items():
            logs[shard_id] = tmp_path / f"{shard_id}.jsonl"
            dispatcher.flight.follow(str(logs[shard_id]))
        donor, thief = fed.dispatchers["s0"], fed.dispatchers["s1"]
        executor = LiveExecutor(thief.endpoint, pipeline=4).start()
        client = None
        try:
            assert executor.wait_registered()
            client = LiveClient(donor.endpoint)
            results = client.run([TaskSpec.sleep(0, task_id=f"log-steal-{i}")
                                  for i in range(8)], timeout=30)
            assert all(result.ok for result in results)
            stats = thief.stats()
        finally:
            if client is not None:
                client.close()
            executor.stop()
    assert stats.stolen_in >= 1
    summary = replay_summary(read_events_jsonl(logs["s1"]))
    assert summary["submitted"] == stats.accepted
    assert summary["retries"] == stats.retries
    assert summary["settled"] == stats.completed + stats.failed


def test_a_duplicate_queue_entry_is_claimed_and_settled_once():
    """A failed result for a task the replay timer or an executor loss
    already requeued queues it a second time.  A claim burst must still
    hand the task out once: a WORK frame carrying it twice makes the
    executor answer twice in one RESULT frame, and the one attempt
    settles twice (a poison task is counted failed twice)."""
    dispatcher = LiveDispatcher()
    client = _client(dispatcher)
    executor = RawPeer(dispatcher.address)
    try:
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": "dup-0", "args": ["0"]}]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        dispatcher._post(dispatcher._queue.append, "dup-0")
        assert wait_until(lambda: list(dispatcher._queue) == ["dup-0", "dup-0"])
        executor.send(Message(MessageType.REGISTER, sender="e-dup", payload={
            "executor_id": "e-dup", "pipeline": 4}))
        executor.recv_until(MessageType.REGISTER_ACK)
        entries = executor.recv_work()
        assert [(e["task"]["task_id"], e["attempt"]) for e in entries] == [("dup-0", 1)]
        # Answer every entry, as an executor does, in one frame.
        executor.send(Message(MessageType.RESULT, sender="e-dup", payload={"results": [
            {"result": {"task_id": e["task"]["task_id"]}, "attempt": e["attempt"],
             "exec": {"seconds": 0.0}} for e in entries]}))
        executor.recv_until(MessageType.RESULT_ACK)
        stats = dispatcher.stats()
        assert (stats.accepted, stats.completed, stats.failed) == (1, 1, 0)
        assert dispatcher._records["dup-0"].attempts == 1
    finally:
        client.close()
        executor.close()
        dispatcher.close()
