"""The wake path: idle executors are pushed WORK, from the loop thread.

Every place that once NOTIFYed an idle executor now claims queued tasks
and sends them as WORK.  Claims stay on the dispatcher's loop thread
(``_settle`` relies on it), so a wake raised on another thread — an
operator's ``dlq_retry``, the monitor's heartbeat eviction and its
anti-starvation sweep — is posted to the loop.  A peer shard is never
pushed work: stealing is explicit-request-only, and an idle peer gets
the NOTIFY steal hint instead.
"""

import threading

from repro.live import LiveClient, LiveDispatcher, LiveExecutor
from repro.live.protocol import Connection
from repro.net.message import CODE_TO_TYPE, Message, MessageType
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


def _watch(monkeypatch, dispatcher):
    """Record the thread of every claim that took a task and of every
    WORK frame sent."""
    seen = {"claims": [], "work": []}
    claim = dispatcher._claim_many

    def claiming(executor, limit, mode):
        claimed = claim(executor, limit, mode)
        if claimed:
            seen["claims"].append((threading.current_thread().name, mode))
        return claimed

    transmit = Connection._transmit

    def transmitting(self, frame):
        if CODE_TO_TYPE[frame[2]] is MessageType.WORK:
            seen["work"].append(threading.current_thread().name)
        transmit(self, frame)

    monkeypatch.setattr(dispatcher, "_claim_many", claiming)
    monkeypatch.setattr(Connection, "_transmit", transmitting)
    return seen


def _loop_thread(dispatcher):
    return f"ioloop-dispatcher-{dispatcher.port}"


def test_dlq_retry_wake_is_pushed_from_the_loop_thread(monkeypatch):
    runs = []

    def fails_once():
        runs.append(1)
        if len(runs) == 1:
            raise RuntimeError("first run fails")

    dispatcher = LiveDispatcher(max_retries=0)
    executor = LiveExecutor(dispatcher.endpoint,
                            python_registry={"fails_once": fails_once}).start()
    client = None
    try:
        assert executor.wait_registered()
        client = LiveClient(dispatcher.endpoint)
        (result,) = client.run(
            [TaskSpec(task_id="dlq-0", command="python:fails_once")], timeout=15)
        assert not result.ok
        seen = _watch(monkeypatch, dispatcher)
        assert dispatcher.dlq_retry("dlq-0")  # called on the test's thread
        assert wait_until(lambda: dispatcher.stats().completed == 1)
        loop = _loop_thread(dispatcher)
        assert seen["claims"] == [(loop, "push")]
        assert seen["work"] == [loop]
    finally:
        if client is not None:
            client.close()
        executor.stop()
        dispatcher.close()


def test_eviction_wake_is_pushed_from_the_loop_thread(monkeypatch):
    dispatcher = LiveDispatcher(heartbeat_interval=0.2, heartbeat_miss_budget=2)
    silent = RawPeer(dispatcher.address)
    steady = None
    client = None
    try:
        silent.register("silent")  # first in the table; never heartbeats
        steady = LiveExecutor(dispatcher.endpoint, executor_id="steady",
                              heartbeat_interval=0.05).start()
        assert steady.wait_registered()
        seen = _watch(monkeypatch, dispatcher)
        client = LiveClient(dispatcher.endpoint)
        silent.send(Message(MessageType.HEARTBEAT, sender="silent"))
        (future,) = client.submit([TaskSpec.sleep(0, task_id="evict-0")])
        (entry,) = silent.recv_work()  # pushed to the first idle executor
        assert entry["attempt"] == 1
        # The monitor evicts the silent agent and requeues the task.
        result = future.result(timeout=15)
        assert (result.executor_id, result.attempts) == ("steady", 2)
        assert dispatcher.stats().executors_declared_dead == 1
        loop = _loop_thread(dispatcher)
        assert seen["claims"] == [(loop, "push"), (loop, "push")]
        assert seen["work"] == [loop, loop]
    finally:
        if client is not None:
            client.close()
        if steady is not None:
            steady.stop()
        silent.close()
        dispatcher.close()


def test_sweep_wake_is_pushed_from_the_loop_thread(monkeypatch):
    dispatcher = LiveDispatcher(replay_timeout=0.3, monitor_interval=0.05)
    mute = RawPeer(dispatcher.address)
    client = None
    try:
        mute.register("mute")
        seen = _watch(monkeypatch, dispatcher)
        client = LiveClient(dispatcher.endpoint)
        client.submit([TaskSpec.sleep(0, task_id="replay-0")])
        (first,) = mute.recv_work()
        # Never answered: the sweep requeues it past replay_timeout and
        # its anti-starvation pass pushes it to the (again idle) agent.
        (second,) = mute.recv_work()
        assert (first["attempt"], second["attempt"]) == (1, 2)
        loop = _loop_thread(dispatcher)
        assert seen["claims"][:2] == [(loop, "push"), (loop, "push")]
        assert {name for name, _ in seen["claims"]} == {loop}
        assert set(seen["work"]) == {loop}
    finally:
        if client is not None:
            client.close()
        mute.close()
        dispatcher.close()


def test_peer_shard_gets_the_steal_hint_and_never_unrequested_work():
    dispatcher = LiveDispatcher(shard_id="a", monitor_interval=0.05)
    peer = RawPeer(dispatcher.address)
    client = None
    try:
        # Its first gossip frame makes this session peer shard "b", a
        # pseudo-executor in the dispatcher's table.
        peer.send(Message(MessageType.HEARTBEAT, sender="shard:b", payload={
            "shard": {"id": "b", "caps": ["steal"], "stats": {"queued": 0}}}))
        assert wait_until(lambda: dispatcher._exec_get("peer:b") is not None)
        client = LiveClient(dispatcher.endpoint)
        client.submit([TaskSpec.sleep(0, task_id=f"hint-{i}") for i in range(3)])
        # The submit hints the idle peer; every sweep re-arms the hint.
        received = []
        while received.count(MessageType.NOTIFY) < 3:
            received.append(peer.recv(timeout=5.0).type)
        assert MessageType.WORK not in received
        stats = dispatcher.stats()
        assert (stats.queued, stats.stolen_out) == (3, 0)
    finally:
        if client is not None:
            client.close()
        peer.close()
        dispatcher.close()
