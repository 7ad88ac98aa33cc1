"""Bounded pipelining (§3.4 piggy-backing extended).

Executors that advertise ``pipeline: N`` in REGISTER receive up to N
queued tasks per WORK/RESULT_ACK frame as a ``tasks`` list, report
completions in batched RESULT frames, and the dispatcher pushes the
matching settled results to clients in batched CLIENT_NOTIFY frames.
Depth 1 is the one-entry case of the same list shapes.
"""

import pytest

from repro.live.client import LiveClient
from repro.live.dispatcher import MAX_PIPELINE_DEPTH, LiveDispatcher
from repro.live.faults import FaultPlan
from repro.live.local import LocalFalkon
from repro.live.protocol import Connection
from repro.net.message import Message, MessageType
from repro.net.wire import decode_frame
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


def _sleep_tasks(n, prefix="pp"):
    return [TaskSpec.sleep(0, task_id=f"{prefix}-{i:04d}") for i in range(n)]


def _register_pipelined(peer: RawPeer, executor_id: str, depth: int) -> None:
    peer.send(
        Message(
            MessageType.REGISTER,
            sender=executor_id,
            payload={"executor_id": executor_id, "pipeline": depth},
        )
    )
    peer.recv_until(MessageType.REGISTER_ACK)


def test_pipelined_deployment_completes_with_full_traces():
    with LocalFalkon(executors=2, pipeline_depth=8) as falkon:
        tasks = _sleep_tasks(200)
        results = falkon.run(tasks, timeout=60)
        assert all(r.ok for r in results)
        for task in tasks:
            assert falkon.dispatcher.spans.chain_complete(task.task_id), \
                falkon.dispatcher.spans.chain_errors(task.task_id)


def test_work_and_result_entries_carry_no_trace_context(monkeypatch):
    """The attempt number is the whole per-entry context: the WORK
    entry carries it, the RESULT entry echoes it with the exec window,
    and no trace id rides along either way."""
    frames = []
    send_encoded = Connection.send_encoded

    def recording(self, frame):
        frames.append(frame)
        send_encoded(self, frame)

    monkeypatch.setattr(Connection, "send_encoded", recording)
    with LocalFalkon(executors=1, pipeline_depth=4) as falkon:
        assert all(r.ok for r in falkon.run(_sleep_tasks(12, "nt"), timeout=30))
    messages = [decode_frame(frame) for frame in frames]
    work = [entry for m in messages
            if m.type in (MessageType.WORK, MessageType.RESULT_ACK)
            for entry in m.payload.get("tasks", ())]
    results = [entry for m in messages if m.type is MessageType.RESULT
               for entry in m.payload["results"]]
    assert len(work) == len(results) == 12
    assert all(set(entry) == {"task", "attempt"} for entry in work)
    assert all(set(entry) == {"result", "attempt", "exec"} for entry in results)


def test_pipelined_work_frame_carries_task_list():
    with LiveDispatcher() as dispatcher:
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(_sleep_tasks(10, "wl"))
        peer = RawPeer(dispatcher.address)
        try:
            _register_pipelined(peer, "pp-exec", 4)
            entries = peer.recv_work()  # pushed: the agent registered idle
            assert 1 <= len(entries) <= 4
            for entry in entries:
                assert entry["task"]["task_id"].startswith("wl-")
                assert entry["attempt"] == 1
                assert set(entry) == {"task", "attempt"}
        finally:
            peer.close()
            client.close()
            del futures


def test_batched_result_settles_all_and_refills_ack():
    with LiveDispatcher() as dispatcher:
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(_sleep_tasks(8, "br"))
        peer = RawPeer(dispatcher.address)
        try:
            _register_pipelined(peer, "br-exec", 4)
            entries = peer.recv_work()
            assert len(entries) == 4
            # One RESULT frame carries the whole batch.
            peer.send(
                Message(
                    MessageType.RESULT,
                    sender="br-exec",
                    payload={
                        "results": [
                            {
                                "result": {"task_id": e["task"]["task_id"],
                                           "return_code": 0},
                                "attempt": e["attempt"],
                                "exec": {"seconds": 0.0},
                            }
                            for e in entries
                        ]
                    },
                )
            )
            ack = peer.recv_until(MessageType.RESULT_ACK)
            # The ack refills the freed capacity with the next batch.
            refill = ack.payload["tasks"]
            assert len(refill) == 4
            done = {e["task"]["task_id"] for e in entries}
            assert {e["task"]["task_id"] for e in refill}.isdisjoint(done)
            # The settled batch reached the client (batched notify).
            settled = [f for f in futures if f.task_id in done]
            for future in settled:
                assert future.result(timeout=5.0).ok
            assert dispatcher.tasks_completed == 4
        finally:
            peer.close()
            client.close()


def test_depth1_peer_gets_one_entry_task_lists():
    # Depth 1 is the N = 1 case of the list shapes: no singular
    # "task"/"attempt" keys, one entry per WORK and per RESULT_ACK.
    with LiveDispatcher() as dispatcher:
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(_sleep_tasks(4, "d1"))
        peer = RawPeer(dispatcher.address)
        try:
            peer.register("d1-exec")  # advertises no pipeline: depth 1
            # Registering with work queued: one task is pushed.
            work = peer.recv_until(MessageType.WORK)
            assert set(work.payload) == {"tasks"}
            (entry,) = work.payload["tasks"]
            assert entry["task"]["task_id"].startswith("d1-")
            assert entry["attempt"] == 1
            assert set(entry) == {"task", "attempt"}
            peer.send(Message(
                MessageType.RESULT, sender="d1-exec",
                payload={"results": [{
                    "result": {"task_id": entry["task"]["task_id"],
                               "return_code": 0},
                    "attempt": entry["attempt"],
                }]}))
            ack = peer.recv_until(MessageType.RESULT_ACK)
            (refill,) = ack.payload["tasks"]
            assert refill["task"]["task_id"] != entry["task"]["task_id"]
            done = next(f for f in futures
                        if f.task_id == entry["task"]["task_id"])
            assert done.result(timeout=5.0).ok
        finally:
            peer.close()
            client.close()


def test_get_work_gets_the_error_of_any_unexpected_frame():
    """Nothing is pulled: GET_WORK is answered as every frame type the
    dispatcher has no handler for, and hands out no task."""
    with LiveDispatcher() as dispatcher:
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(_sleep_tasks(2, "gw"))
        peer = RawPeer(dispatcher.address)
        try:
            peer.register("gw-exec")
            assert len(peer.recv_work()) == 1  # the push to a depth-1 agent
            peer.send(Message(MessageType.GET_WORK, sender="gw-exec"))
            error = peer.recv_until(MessageType.ERROR)
            assert error.payload == {"error": "unexpected get-work"}
            assert dispatcher.stats().queued == 1
        finally:
            peer.close()
            client.close()
            del futures


def test_depth1_executor_end_to_end_has_complete_span_chains():
    with LocalFalkon(executors=2) as falkon:  # pipeline_depth defaults to 1
        assert all(e.pipeline == 1 for e in falkon.executors)
        tasks = _sleep_tasks(60, "e2e")
        results = falkon.run(tasks, timeout=60)
        assert all(r.ok for r in results)
        assert sorted(r.task_id for r in results) == sorted(t.task_id for t in tasks)
        spans = falkon.dispatcher.spans
        for task in tasks:
            assert not spans.chain_errors(task.task_id), spans.chain_errors(task.task_id)
            assert spans.chain_complete(task.task_id)


def test_advertised_depth_is_capped():
    with LiveDispatcher() as dispatcher:
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(_sleep_tasks(2 * MAX_PIPELINE_DEPTH, "cap"))
        peer = RawPeer(dispatcher.address)
        try:
            _register_pipelined(peer, "cap-exec", 10_000)
            assert len(peer.recv_work()) == MAX_PIPELINE_DEPTH
        finally:
            peer.close()
            client.close()
            del futures


def test_pipeline_depth_validation():
    with pytest.raises(ValueError):
        LocalFalkon(executors=1, pipeline_depth=0)


def test_pipelined_run_survives_frame_loss():
    # Replay and liveness must hold with batched WORK/RESULT frames:
    # a dropped frame now loses a whole batch, and the replay timer
    # must recover every task in it.
    plan = FaultPlan(seed=7, drop_rate=0.05)
    with LocalFalkon(
        executors=2,
        pipeline_depth=4,
        fault_plan=plan,
        heartbeat_interval=0.2,
        replay_timeout=0.75,
        max_retries=12,
    ) as falkon:
        tasks = _sleep_tasks(80, "fl")
        results = falkon.run(tasks, timeout=60)
        assert all(r.ok for r in results)
        assert wait_until(
            lambda: all(
                falkon.dispatcher.spans.chain_complete(t.task_id) for t in tasks
            ),
            timeout=5.0,
        )


# -- per-frame accounting ≡ per-entry accounting -----------------------------------
def _drive_mixed_results(journal_dir: str, one_frame: bool) -> dict:
    """Bring a journaled dispatcher (``max_retries=1``) to six tasks in
    six different positions, then deliver their RESULT entries — ok,
    retry, exhausted retry, stale attempt, unknown id, already terminal
    — in one frame or in six, and return everything the handler owes
    its sinks: counters, histogram counts, span chains, chain errors
    and WAL rows."""
    from repro.live.journal import read_journal_tail

    dispatcher = LiveDispatcher(journal_dir=journal_dir, max_retries=1)
    client = RawPeer(dispatcher.address)
    executor = RawPeer(dispatcher.address)
    ids = ["mx-ok", "mx-retry", "mx-spent", "mx-stale", "mx-ghost", "mx-done"]

    def submit(*task_ids):
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": task_id, "args": ["0"]} for task_id in task_ids]}))
        client.recv_until(MessageType.SUBMIT_ACK)

    def entry(task_id, attempt, ok=True):
        result = {"task_id": task_id}
        if not ok:
            result.update(return_code=2, error="boom")
        return {"result": result, "attempt": attempt, "exec": {"seconds": 0.25}}

    def report(*entries):
        executor.send(Message(MessageType.RESULT, sender="e-1",
                              payload={"results": list(entries)}))
        return executor.recv_until(MessageType.RESULT_ACK).payload.get("tasks", [])

    try:
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        client.recv_until(MessageType.INSTANCE_CREATED)
        _register_pipelined(executor, "e-1", 8)
        # mx-spent burns its one retry and mx-done settles, up front.
        # The three submitted meanwhile queue behind the busy executor
        # until that ack refills it with them and mx-spent's retry.
        submit("mx-spent", "mx-done")
        assert len(executor.recv_work()) == 2
        submit("mx-ok", "mx-retry", "mx-stale")
        refill = report(entry("mx-spent", 1, ok=False), entry("mx-done", 1))
        assert [(t["task"]["task_id"], t["attempt"]) for t in refill] == [
            ("mx-ok", 1), ("mx-retry", 1), ("mx-stale", 1), ("mx-spent", 2)]

        mixed = [
            entry("mx-ok", 1), entry("mx-retry", 1, ok=False),
            entry("mx-spent", 2, ok=False), entry("mx-stale", 7),
            entry("mx-ghost", 1), entry("mx-done", 1),
        ]
        if one_frame:
            refill = report(*mixed)
        else:
            refill = [task for one in mixed for task in report(one)]
        assert [(t["task"]["task_id"], t["attempt"]) for t in refill] == [
            ("mx-retry", 2)]

        stats = dispatcher.stats()
        # Both terminal notifies out, so every WAL row is appended.
        assert wait_until(lambda: all(
            dispatcher._records[task_id].acked
            for task_id in ("mx-ok", "mx-spent", "mx-done")))
        assert dispatcher.journal.commit()
        rows, _ = read_journal_tail(dispatcher.journal.tail_path)
        return {
            "stats": (stats.completed, stats.failed, stats.retries,
                      stats.stale_results, stats.dlq_size, stats.queued),
            "histograms": (dispatcher._h_exec.count, dispatcher._h_e2e.count,
                           dispatcher._h_dispatch.count),
            "exec_sum": dispatcher._h_exec.sum,
            "chains": {task_id: [(s.name, s.attempt, s.get("outcome"))
                                 for s in dispatcher.trace(task_id)]
                       for task_id in ids},
            "chain_errors": {task_id: dispatcher.spans.chain_errors(task_id)
                             for task_id in ids},
            "wal": {task_id: [{k: v for k, v in row.items() if k != "id"}
                              for row in rows if row["id"] == task_id]
                    for task_id in ids},
            "acked": sorted(acked for row in rows if row["k"] == "acked"
                            for acked in row["ids"]),
        }
    finally:
        client.close()
        executor.close()
        dispatcher.close()


def test_mixed_result_frame_accounts_like_one_entry_frames(tmp_path):
    """The dispatcher pays its sinks once per RESULT frame (one
    ``observe_many`` per histogram, one ``inc(n)`` per counter, one
    span and one WAL batch); what lands in them must be exactly what
    six one-entry frames leave."""
    batched = _drive_mixed_results(str(tmp_path / "one-frame"), one_frame=True)
    single = _drive_mixed_results(str(tmp_path / "six-frames"), one_frame=False)
    assert batched == single
    assert batched["stats"] == (2, 1, 2, 1, 1, 0)
    # Executions observed: the two up front, then ok, retry and spent —
    # never the stale, unknown or already-terminal entry.
    assert batched["histograms"] == (5, 3, 7)
    assert batched["chain_errors"]["mx-ok"] == []
    assert batched["chain_errors"]["mx-spent"] == []
    assert [row["k"] for row in batched["wal"]["mx-spent"]] == [
        "submit", "dispatch", "requeue", "dispatch", "result", "dlq"]
    assert batched["acked"] == ["mx-done", "mx-ok", "mx-spent"]


# -- a RESULT frame is validated whole before it mutates anything -------------------
def _drive_frame_with_bad_entry(journal_dir: str, bad) -> dict:
    """Three tasks dispatched in one WORK frame to a journaled
    dispatcher; one RESULT frame settles the first two and carries
    *bad* (a malformed third entry, or ``None`` for no third entry).
    Returns what the frame left behind, then checks the third task is
    replayed once the session drops."""
    from repro.live.journal import read_journal_tail
    from repro.scenarios.oracles import OracleReport, check_conservation
    from repro.types import TaskState

    dispatcher = LiveDispatcher(journal_dir=journal_dir)
    client = RawPeer(dispatcher.address)
    executor = RawPeer(dispatcher.address)
    second = None
    ids = ["bad-0", "bad-1", "bad-2"]

    def ok_entry(task_id, attempt):
        return {"result": {"task_id": task_id}, "attempt": attempt,
                "exec": {"seconds": 0.25}}

    try:
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        client.recv_until(MessageType.INSTANCE_CREATED)
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": task_id, "args": ["0"]} for task_id in ids]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        _register_pipelined(executor, "e-1", 8)
        assert len(executor.recv_work()) == 3

        entries = [ok_entry("bad-0", 1), ok_entry("bad-1", 1)]
        if bad is not None:
            entries.append(bad)
        executor.send(Message(MessageType.RESULT, sender="e-1",
                              payload={"results": entries}))
        # The session survives the bad entry: the frame is acknowledged.
        executor.recv_until(MessageType.RESULT_ACK)
        notified = client.recv_until(MessageType.CLIENT_NOTIFY).payload["results"]
        assert wait_until(lambda: all(
            dispatcher._records[task_id].acked for task_id in ids[:2]))
        assert dispatcher.journal.commit()
        rows, _ = read_journal_tail(dispatcher.journal.tail_path)
        stats = dispatcher.stats()
        observed = {
            "notified": sorted(r["task_id"] for r in notified),
            "stats": (stats.completed, stats.failed, stats.retries, stats.busy),
            "histograms": (dispatcher._h_exec.count, dispatcher._h_e2e.count),
            "wal": {task_id: [row["k"] for row in rows if row.get("id") == task_id]
                    for task_id in ids},
            "acked": sorted(acked for row in rows if row["k"] == "acked"
                            for acked in row["ids"]),
        }
        # The skipped entry's task is still the executor's to finish...
        assert dispatcher._records["bad-2"].state is TaskState.DISPATCHED
        assert dispatcher._executors["e-1"].busy == {"bad-2"}
        # ...and is replayed through the normal path when the session drops.
        executor.close()
        second = RawPeer(dispatcher.address)
        _register_pipelined(second, "e-2", 8)
        (again,) = second.recv_work()  # pushed once the drop requeues it
        assert (again["task"]["task_id"], again["attempt"]) == ("bad-2", 2)
        second.send(Message(MessageType.RESULT, sender="e-2",
                            payload={"results": [ok_entry("bad-2", 2)]}))
        second.recv_until(MessageType.RESULT_ACK)
        (late,) = client.recv_until(MessageType.CLIENT_NOTIFY).payload["results"]
        assert late["task_id"] == "bad-2"
        report = OracleReport()
        check_conservation(report, submitted=3, stats=dispatcher.stats())
        assert report.ok, report.summary()
        return observed
    finally:
        client.close()
        executor.close()
        if second is not None:
            second.close()
        dispatcher.close()


@pytest.mark.parametrize("bad", [
    {"result": {"task_id": "bad-2"}, "attempt": 1, "exec": {"seconds": "x"}},
    {"result": "oops", "attempt": 1, "exec": {"seconds": 0.0}},
    {"result": {"task_id": "bad-2"}, "attempt": "1", "exec": {"seconds": 0.0}},
    {"result": {"task_id": "bad-2"}, "attempt": 1, "exec": {"seconds": float("inf")}},
], ids=["seconds-not-a-number", "result-not-a-dict", "attempt-not-an-int",
        "seconds-not-finite"])
def test_malformed_result_entry_is_skipped_and_the_rest_of_the_frame_settles(
    tmp_path, bad
):
    """One bad entry used to raise mid-settle: the session closed with
    the frame's good entries COMPLETED in memory but never notified,
    counted or journaled, and every busy slot already cleared."""
    with_bad = _drive_frame_with_bad_entry(str(tmp_path / "bad"), bad)
    without = _drive_frame_with_bad_entry(str(tmp_path / "control"), None)
    assert with_bad == without
    assert with_bad["notified"] == ["bad-0", "bad-1"]
    assert with_bad["stats"] == (2, 0, 0, 1)
    assert with_bad["wal"]["bad-0"] == ["submit", "dispatch", "result"]
    assert with_bad["wal"]["bad-2"] == ["submit", "dispatch"]
    assert with_bad["acked"] == ["bad-0", "bad-1"]


# -- a result that arrives after the replay timer requeued its attempt -------------
def _late_result(return_code: int) -> dict:
    """Submit ``late-a`` and ``late-b`` to a depth-1 executor that sits
    on ``late-a`` until the replay timer requeues it (and ``late-b``
    is pushed in its place), then deliver ``late-a``'s result for
    attempt 1 with *return_code*."""
    dispatcher = LiveDispatcher(replay_timeout=0.3)
    client = RawPeer(dispatcher.address)
    executor = RawPeer(dispatcher.address)
    try:
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        client.recv_until(MessageType.INSTANCE_CREATED)
        executor.register("e-late")
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": task_id, "args": ["0"]}
                      for task_id in ("late-a", "late-b")]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        assert [t["task"]["task_id"] for t in executor.recv_work()] == ["late-a"]
        assert [t["task"]["task_id"] for t in executor.recv_work()] == ["late-b"]
        assert dispatcher.stats().retries == 1
        executor.send(Message(MessageType.RESULT, sender="e-late", payload={
            "results": [{"result": {"task_id": "late-a", "return_code": return_code},
                         "attempt": 1, "exec": {"seconds": 0.0}}]}))
        executor.recv_until(MessageType.RESULT_ACK)
        stats = dispatcher.stats()
        return {"retries": stats.retries, "stale": stats.stale_results,
                "queued": stats.queued, "queue": list(dispatcher._queue),
                "state": dispatcher._records["late-a"].state.name}
    finally:
        client.close()
        executor.close()
        dispatcher.close()


def test_late_failed_result_of_a_requeued_attempt_is_stale():
    # The replay timer already charged this attempt as a retry and
    # queued the task once: the failure must not do either again.
    assert _late_result(return_code=1) == {
        "retries": 1, "stale": 1, "queued": 1, "queue": ["late-a"],
        "state": "QUEUED"}


def test_late_ok_result_of_a_requeued_attempt_settles_and_leaves_the_queue():
    assert _late_result(return_code=0) == {
        "retries": 1, "stale": 0, "queued": 0, "queue": [],
        "state": "COMPLETED"}
