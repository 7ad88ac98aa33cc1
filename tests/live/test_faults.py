"""Failure-path tests: fault injection, liveness, reconnect, replay.

These drive exactly the paths the endurance claims rest on: executors
dying mid-task, half-open sockets that never close, lost frames, and
connection churn between a result and its acknowledgement.
"""

import socket
import time

import pytest

from repro.errors import ProtocolError, ReconnectError
from repro.live import (
    Connection,
    FaultAction,
    FaultPlan,
    FaultyConnection,
    LiveClient,
    LiveDispatcher,
    LiveExecutor,
    LocalFalkon,
)
from repro.metrics import delivery_ratio, fault_rates, liveness_summary, tasks_lost
from repro.net.message import Message, MessageType
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


def _socket_pair():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    left = socket.create_connection(("127.0.0.1", port))
    right, _ = server.accept()
    server.close()
    return left, right


# ---------------------------------------------------------------- fault plan
def test_fault_plan_is_deterministic_per_seed():
    kwargs = dict(drop_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.1, delay_rate=0.1)
    a = FaultPlan(seed=11, **kwargs).schedule("conn-A", 128)
    b = FaultPlan(seed=11, **kwargs).schedule("conn-A", 128)
    assert a == b
    assert any(act is not FaultAction.NONE for act in a)
    other_seed = FaultPlan(seed=12, **kwargs).schedule("conn-A", 128)
    assert a != other_seed
    other_conn = FaultPlan(seed=11, **kwargs).schedule("conn-B", 128)
    assert a != other_conn


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=0.9, corrupt_rate=0.2)
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(delay_range=(0.5, 0.1))
    with pytest.raises(ValueError):
        FaultPlan(drop_types={"NOTFY"})


def test_fault_plan_kill_schedule_overrides_rates():
    plan = FaultPlan(seed=0, kill_at={"doomed": 3})
    assert plan.decide("doomed", 2)[0] is not FaultAction.KILL
    assert plan.decide("doomed", 3)[0] is FaultAction.KILL
    assert plan.decide("other", 3)[0] is FaultAction.NONE


def test_faulty_connection_drops_frames():
    left_sock, right_sock = _socket_pair()
    received = []
    plan = FaultPlan(seed=1, drop_rate=1.0, roles=None)
    left = FaultyConnection(left_sock, handler=lambda m: None, name="L", plan=plan).start()
    right = Connection(right_sock, handler=received.append, name="R").start()
    for _ in range(5):
        left.send(Message(MessageType.NOTIFY))
    # A sentinel on the same connection, past the plan: once it is in,
    # any of the five that had been sent would be in before it.
    left.plan = None
    left.send(Message(MessageType.STATUS))
    assert wait_until(lambda: len(received) == 1)
    assert received.pop().type is MessageType.STATUS
    assert received == []
    assert plan.snapshot()["frames_dropped"] == 5
    left.close()
    right.close()


def test_type_scoped_drops_match_the_header_type_code_exactly():
    # Only NOTIFY frames drop.  A RESULT whose payload merely contains
    # the word is out of scope: it passes and consumes no draw.
    left_sock, right_sock = _socket_pair()
    received = []
    plan = FaultPlan(seed=1, drop_rate=1.0, drop_types={"NOTIFY"}, roles=None)
    left = FaultyConnection(left_sock, handler=lambda m: None, name="L", plan=plan).start()
    right = Connection(right_sock, handler=received.append, name="R").start()
    result = {"results": [{"result": {"task_id": "t", "stdout": '"notify" "NOTIFY"'}}]}
    left.send(Message(MessageType.NOTIFY))
    left.send(Message(MessageType.RESULT, sender="notify", payload=result))
    left.send(Message(MessageType.NOTIFY))
    # An out-of-scope sentinel behind the second NOTIFY: once it is in,
    # that NOTIFY would be too, had it not been dropped.
    left.send(Message(MessageType.STATUS))
    assert wait_until(lambda: len(received) == 2)
    assert received.pop().type is MessageType.STATUS
    assert [m.type for m in received] == [MessageType.RESULT]
    assert received[0].payload == result
    assert plan.snapshot()["frames_seen"] == 2
    assert plan.snapshot()["frames_dropped"] == 2
    left.close()
    right.close()


def test_faulty_connection_duplicates_frames():
    left_sock, right_sock = _socket_pair()
    received = []
    plan = FaultPlan(seed=1, duplicate_rate=1.0, roles=None)
    left = FaultyConnection(left_sock, handler=lambda m: None, name="L", plan=plan).start()
    right = Connection(right_sock, handler=received.append, name="R").start()
    left.send(Message(MessageType.NOTIFY, payload={"n": 7}))
    assert wait_until(lambda: len(received) == 2)
    assert all(m.payload == {"n": 7} for m in received)
    assert plan.snapshot()["frames_duplicated"] == 1
    left.close()
    right.close()


def test_faulty_connection_corruption_drops_signed_stream():
    left_sock, right_sock = _socket_pair()
    received = []
    plan = FaultPlan(seed=1, corrupt_rate=1.0, roles=None)
    left = FaultyConnection(
        left_sock, handler=lambda m: None, key=b"k", name="L", plan=plan
    ).start()
    right = Connection(right_sock, handler=received.append, key=b"k", name="R").start()
    left.send(Message(MessageType.NOTIFY))
    right.join(5.0)
    assert right.closed  # tampered frame kills the stream, never the process
    assert received == []
    assert plan.snapshot()["frames_corrupted"] == 1
    left.close()


def test_faulty_connection_kill_is_mid_message():
    left_sock, right_sock = _socket_pair()
    received = []
    plan = FaultPlan(seed=1, kill_at={"L": 1}, roles=None)
    left = FaultyConnection(left_sock, handler=lambda m: None, name="L", plan=plan).start()
    right = Connection(right_sock, handler=received.append, name="R").start()
    left.send(Message(MessageType.NOTIFY, payload={"n": 1}))  # frame 0: clean
    with pytest.raises(ProtocolError):
        left.send(Message(MessageType.NOTIFY, payload={"n": 2}))  # frame 1: killed
    assert left.closed
    right.join(5.0)
    assert right.closed  # half a frame then EOF: receiver drops cleanly
    assert [m.payload["n"] for m in received] == [1]
    assert plan.snapshot()["sockets_killed"] == 1


# ---------------------------------------------------------------- liveness
def test_heartbeat_misses_evict_half_open_executor():
    dispatcher = LiveDispatcher(
        heartbeat_interval=0.1, heartbeat_miss_budget=3, monitor_interval=0.05
    )
    try:
        zombie = RawPeer(dispatcher.address)
        zombie.register("zombie")
        assert dispatcher.stats().registered == 1
        # The socket stays open but the peer goes silent: only the
        # liveness protocol can catch this.
        assert wait_until(lambda: dispatcher.stats().registered == 0, timeout=5.0)
        # The sweep counts the eviction after the drop returns.
        assert wait_until(
            lambda: dispatcher.stats().executors_declared_dead == 1, timeout=5.0)
        zombie.close()
    finally:
        dispatcher.close()


def test_heartbeats_keep_slow_executor_alive():
    registry = {"slow": lambda: time.sleep(0.8)}
    dispatcher = LiveDispatcher(
        heartbeat_interval=0.1, heartbeat_miss_budget=3, monitor_interval=0.05
    )
    executor = LiveExecutor(
        dispatcher.endpoint, python_registry=registry, heartbeat_interval=0.1
    ).start()
    client = None
    try:
        assert executor.wait_registered()
        client = LiveClient(dispatcher.endpoint)
        # The task runs 0.8s — far past the 0.3s miss deadline; the
        # heartbeat side-thread is what distinguishes slow from dead.
        result = client.run([TaskSpec(task_id="slow-1", command="python:slow")], timeout=15)[0]
        assert result.ok
        stats = dispatcher.stats()
        assert stats.executors_declared_dead == 0
        assert stats.retries == 0
    finally:
        if client is not None:
            client.close()
        executor.stop()
        dispatcher.close()


def test_executor_killed_mid_task_is_redispatched_and_completes():
    dispatcher = LiveDispatcher(max_retries=3)
    backup = None
    client = None
    try:
        victim = RawPeer(dispatcher.address)
        victim.register("victim")
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit([TaskSpec.sleep(0.0, task_id="redispatch-1")])
        # The task is pushed to the idle victim, which dies without
        # ever answering.
        (entry,) = victim.recv_work()
        assert entry["task"]["task_id"] == "redispatch-1"
        victim.close()
        assert wait_until(lambda: dispatcher.stats().registered == 0, timeout=5.0)
        backup = LiveExecutor(dispatcher.endpoint).start()
        result = futures[0].result(timeout=15)
        assert result.ok
        assert result.attempts == 2
        assert result.executor_id == backup.executor_id
        assert dispatcher.stats().retries == 1
    finally:
        if client is not None:
            client.close()
        if backup is not None:
            backup.stop()
        dispatcher.close()


def test_permanent_fault_exhausts_retries_and_preserves_error():
    def boom():
        raise RuntimeError("kaboom-original-error")

    with LocalFalkon(executors=1, max_retries=2, python_registry={"boom": boom}) as falkon:
        result = falkon.run([TaskSpec(task_id="perma", command="python:boom")], timeout=20)[0]
    assert not result.ok
    assert result.attempts == 3  # 1 try + max_retries replays
    assert "kaboom-original-error" in result.error
    stats = falkon.dispatcher.stats()
    assert stats.failed == 1
    assert stats.retries == 2


def test_replay_timeout_redispatches_lost_work():
    # Drop every dispatcher->executor frame past the REGISTER_ACK on
    # the lossy session: the WORK frame for the task vanishes in
    # transit, so only the replay timer can get the task back.
    plan = FaultPlan(seed=3, drop_rate=1.0)
    dispatcher = LiveDispatcher(replay_timeout=0.4, monitor_interval=0.1, fault_plan=plan)
    client = None
    rescuer = None
    try:
        lossy = RawPeer(dispatcher.address)
        lossy.register("lossy")
        client = LiveClient(dispatcher.endpoint)
        # The task is pushed to the idle lossy session: the dispatcher
        # marks it dispatched, but the WORK frame never arrives.
        futures = client.submit([TaskSpec.sleep(0.0, task_id="lost-work-1")])
        assert wait_until(lambda: dispatcher.stats().retries >= 1, timeout=10.0)
        lossy.close()
        plan.drop_rate = 0.0  # the rescuer's frames get through
        rescuer = LiveExecutor(dispatcher.endpoint).start()
        result = futures[0].result(timeout=20)
        assert result.ok
        assert dispatcher.stats().frames_dropped >= 1
    finally:
        if client is not None:
            client.close()
        if rescuer is not None:
            rescuer.stop()
        dispatcher.close()


# ---------------------------------------------------------------- reconnect
def test_executor_reconnects_with_backoff_and_supersedes():
    dispatcher = LiveDispatcher()
    executor = LiveExecutor(
        dispatcher.endpoint, executor_id="phoenix", max_reconnects=5, backoff_base=0.02
    ).start()
    client = None
    try:
        assert executor.wait_registered()
        # The network "drops": the executor's socket dies under it.
        executor._conn.close()
        assert wait_until(
            lambda: executor.reconnects >= 1 and dispatcher.stats().registered == 1,
            timeout=10.0,
        )
        assert dispatcher.stats().reconnects >= 1
        client = LiveClient(dispatcher.endpoint)
        result = client.run([TaskSpec.sleep(0.0, task_id="post-reconnect")], timeout=15)[0]
        assert result.ok
        assert result.executor_id == "phoenix"
    finally:
        if client is not None:
            client.close()
        executor.stop()
        dispatcher.close()


def test_client_reconnects_resumes_instance_and_backfills():
    with LocalFalkon(executors=2) as falkon:
        client = LiveClient(falkon.dispatcher.endpoint, backoff_base=0.02)
        try:
            first = client.run([TaskSpec.sleep(0.0, task_id="pre-drop")], timeout=15)[0]
            assert first.ok
            epr_before = client.epr
            client._conn.close()  # unexpected drop, not close()
            assert wait_until(lambda: client.reconnects >= 1, timeout=10.0)
            assert client.epr == epr_before  # instance resumed, not recreated
            futures = client.submit([TaskSpec.sleep(0.0, task_id="post-drop")])
            assert futures[0].result(timeout=15).ok
            assert falkon.dispatcher.stats().reconnects >= 1
        finally:
            client.close()


def test_client_reconnect_exhaustion_fails_futures():
    dispatcher = LiveDispatcher()
    client = LiveClient(dispatcher.endpoint, max_reconnects=2, backoff_base=0.02)
    # No executors: the future stays pending when the dispatcher dies.
    futures = client.submit([TaskSpec.sleep(0.0, task_id="orphaned")])
    dispatcher.close()
    with pytest.raises(ReconnectError):
        futures[0].result(timeout=20)
    client.close()


# ---------------------------------------------------------------- bugfix
def test_ack_send_failure_does_not_charge_retry_or_attempt():
    """Regression: a connection dying between the completion frame and
    the piggy-backed ack must not burn the piggy-backed task's retry
    budget — with max_retries=0 the old accounting failed the task
    without it ever reaching an executor."""
    dispatcher = LiveDispatcher(max_retries=0)
    client = None
    rescuer = None
    try:
        worker = RawPeer(dispatcher.address)
        worker.register("fragile")
        client = LiveClient(dispatcher.endpoint)
        futures = client.submit(
            [TaskSpec.sleep(0.0, task_id="done-task"), TaskSpec.sleep(0.0, task_id="piggy-task")]
        )
        # The idle depth-1 worker is pushed the first task only.
        (entry,) = worker.recv_work()
        assert entry["task"]["task_id"] == "done-task"

        # Make the dispatcher's ack transmission fail exactly like a
        # dead socket: close, then raise (Connection.send's contract).
        conn = dispatcher._executors["fragile"].conn
        original_send = conn.send

        def dying_send(message):
            if message.type is MessageType.RESULT_ACK:
                conn.send = original_send
                conn.close()
                raise ProtocolError("injected: connection died before ack")
            original_send(message)

        conn.send = dying_send
        worker.send(
            Message(
                MessageType.RESULT,
                sender="fragile",
                payload={"results": [{
                    "result": {"task_id": "done-task", "return_code": 0},
                    "attempt": entry["attempt"],
                }]},
            )
        )
        # The completed task's notification must still reach the client.
        assert futures[0].result(timeout=10).ok
        assert wait_until(lambda: dispatcher.stats().registered == 0, timeout=5.0)
        worker.close()

        # The piggy-backed task never left the process: no retry, no
        # attempt, no failure — it completes cleanly elsewhere.
        stats = dispatcher.stats()
        assert stats.failed == 0
        assert stats.retries == 0
        rescuer = LiveExecutor(dispatcher.endpoint).start()
        result = futures[1].result(timeout=15)
        assert result.ok
        assert result.attempts == 1
        assert dispatcher.stats().retries == 0
    finally:
        if client is not None:
            client.close()
        if rescuer is not None:
            rescuer.stop()
        dispatcher.close()


# ---------------------------------------------------------------- metrics
def test_liveness_metrics_helpers():
    stats = {
        "queued": 0,
        "busy": 0,
        "accepted": 10,
        "completed": 8,
        "failed": 2,
        "retries": 3,
        "executors_declared_dead": 1,
        "reconnects": 2,
        "stale_results": 0,
        "frames_dropped": 4,
    }
    assert tasks_lost(stats) == 0
    assert delivery_ratio(stats) == 0.8
    rates = fault_rates({"frames_seen": 100, "frames_dropped": 10, "sockets_killed": 1})
    assert rates["frames_dropped"] == 0.1
    assert rates["sockets_killed"] == 0.01
    rendered = liveness_summary(stats).render()
    assert "executors_declared_dead" in rendered
    assert "delivery_ratio" in rendered


def test_dispatcher_stats_include_failure_counters():
    with LocalFalkon(executors=1) as falkon:
        stats = falkon.dispatcher.stats()
    for key in ("executors_declared_dead", "reconnects", "stale_results", "frames_dropped"):
        assert getattr(stats, key) == 0
        assert stats.as_dict()[key] == 0
