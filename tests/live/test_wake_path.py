"""The wake path, and the one owner of dispatcher state: the loop thread.

Every place that once NOTIFYed an idle executor now claims queued tasks
and sends them as WORK.  Claims stay on the dispatcher's loop thread
(``_settle`` relies on it), so a wake raised on another thread — an
operator's ``dlq_retry``, the monitor's heartbeat eviction and its
anti-starvation sweep — is posted to the loop.  A peer shard is never
pushed work: stealing is explicit-request-only, and an idle peer gets
the NOTIFY steal hint instead.

The owner tests go further: every function that mutates dispatcher
state runs on ``ioloop-dispatcher-<port>``, whichever thread set it off
— the monitor (heartbeat eviction, replay timeout, a CLIENT_NOTIFY
whose send fails), the HTTP server (``POST /dlq/<id>/retry``) or a peer
shard (a two-shard steal).  So does every mutator of a shard's
federation plane and of its peer links, whose inbound frames arrive on
that loop too.
"""

import sys
import threading
import urllib.request

from repro.live import LiveClient, LiveDispatcher, LiveExecutor, LocalFalkon
from repro.live.federation import LocalFederation, PeerLink, _ShardPlane
from repro.live.protocol import Connection
from repro.net.message import CODE_TO_TYPE, Message, MessageType
from repro.obs import render_prometheus
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until

#: The functions that mutate dispatcher state.
MUTATORS = (
    "_admit", "_claim_many", "_mark_dispatched", "_settle", "_requeue",
    "_expire", "_drop_executor", "_evict_settled", "_mark_acked",
    "_adopt_inflight", "_requeue_quarantined",
)
#: The functions that mutate a shard's federation plane and its peer
#: records, the link's inbound handler among them.
PLANE_MUTATORS = {
    _ShardPlane: ("add_peer", "on_gossip", "_session", "session_lost",
                  "tick", "hint", "on_steal_request", "ingest", "results_home"),
    PeerLink: ("_on_message", "note", "tick", "_dialed", "maybe_steal"),
}


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
        assert wait_until(lambda: "peer:b" in dispatcher._executors)
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


# -- one owner ------------------------------------------------------------------
def _record_owners(monkeypatch, *dispatchers, seen=None):
    """Record ``(function, dispatcher port, thread name)`` for every
    mutator call on *dispatchers*."""
    seen = [] if seen is None else seen
    for dispatcher in dispatchers:
        for name in MUTATORS:
            method = getattr(dispatcher, name, None)
            if method is None:
                continue

            def recording(*args, _method=method, _name=name,
                          _port=dispatcher.port, **kwargs):
                seen.append((_name, _port, threading.current_thread().name))
                return _method(*args, **kwargs)

            monkeypatch.setattr(dispatcher, name, recording)
    return seen


def _record_plane_owners(monkeypatch):
    """Record ``(Class.function, dispatcher port, thread name)`` for
    every plane and peer-record mutator call — patched on the classes,
    before any plane exists, since a link's connection holds its bound
    handler from the dial on."""
    seen = []
    for cls, names in PLANE_MUTATORS.items():
        for name in names:
            method = getattr(cls, name)

            def recording(self, *args, _method=method,
                          _name=f"{cls.__name__}.{name}", **kwargs):
                plane = self if isinstance(self, _ShardPlane) else self.plane
                seen.append((_name, plane.dispatcher.port,
                             threading.current_thread().name))
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, recording)
    return seen


def _assert_loop_owned(seen, *expected):
    # The last of them (the ack after a CLIENT_NOTIFY) may still be on
    # its way when the caller's condition came true.
    wait_until(lambda: set(expected) <= {name for name, _, _ in seen})
    called = {name for name, _, _ in seen}
    assert set(expected) <= called, f"never reached: {set(expected) - called}"
    strays = sorted({(name, thread) for name, port, thread in seen
                     if thread != f"ioloop-dispatcher-{port}"})
    assert strays == []


def test_heartbeat_eviction_mutates_only_on_the_loop(monkeypatch):
    dispatcher = LiveDispatcher(heartbeat_interval=0.2, heartbeat_miss_budget=2,
                                retain_settled=1)
    seen = _record_owners(monkeypatch, dispatcher)
    silent = RawPeer(dispatcher.address)
    steady = client = None
    try:
        silent.register("silent")  # never heartbeats
        steady = LiveExecutor(dispatcher.endpoint, executor_id="steady",
                              heartbeat_interval=0.05).start()
        assert steady.wait_registered()
        client = LiveClient(dispatcher.endpoint)
        silent.send(Message(MessageType.HEARTBEAT, sender="silent"))
        (future,) = client.submit([TaskSpec.sleep(0, task_id="owner-evict")])
        silent.recv_work()
        assert future.result(timeout=15).executor_id == "steady"
        assert dispatcher.stats().executors_declared_dead == 1
        _assert_loop_owned(seen, "_drop_executor", "_requeue",
                           "_claim_many", "_settle", "_mark_acked",
                           "_evict_settled", "_adopt_inflight")
    finally:
        if client is not None:
            client.close()
        if steady is not None:
            steady.stop()
        silent.close()
        dispatcher.close()


def test_replay_timeout_requeue_mutates_only_on_the_loop(monkeypatch):
    dispatcher = LiveDispatcher(replay_timeout=0.3, monitor_interval=0.05)
    seen = _record_owners(monkeypatch, dispatcher)
    mute = RawPeer(dispatcher.address)
    client = None
    try:
        mute.register("mute")
        client = LiveClient(dispatcher.endpoint)
        (future,) = client.submit([TaskSpec.sleep(0, task_id="owner-replay")])
        mute.recv_work()  # never answered: the sweep requeues it
        (again,) = mute.recv_work()
        mute.send(Message(MessageType.RESULT, sender="mute", payload={
            "results": [{"result": {"task_id": "owner-replay"},
                         "attempt": again["attempt"]}]}))
        assert future.result(timeout=15).ok
        _assert_loop_owned(seen, "_expire", "_requeue", "_claim_many",
                           "_settle", "_mark_acked")
    finally:
        if client is not None:
            client.close()
        mute.close()
        dispatcher.close()


def test_http_dlq_retry_mutates_only_on_the_loop(monkeypatch):
    runs = []

    def fails_once():
        runs.append(1)
        if len(runs) == 1:
            raise RuntimeError("first run fails")

    dispatcher = LiveDispatcher(max_retries=0)
    http = dispatcher.serve_http(port=0)
    executor = LiveExecutor(dispatcher.endpoint,
                            python_registry={"fails_once": fails_once}).start()
    client = None
    try:
        assert executor.wait_registered()
        client = LiveClient(dispatcher.endpoint)
        (result,) = client.run(
            [TaskSpec(task_id="owner-dlq", command="python:fails_once")],
            timeout=15)
        assert not result.ok
        seen = _record_owners(monkeypatch, dispatcher)
        request = urllib.request.Request(
            f"http://127.0.0.1:{http.port}/dlq/owner-dlq/retry",
            data=b"", method="POST")
        with urllib.request.urlopen(request, timeout=5.0) as response:
            assert response.status == 200
        assert wait_until(lambda: dispatcher.stats().completed == 1)
        _assert_loop_owned(seen, "_requeue_quarantined", "_claim_many",
                           "_settle")
    finally:
        if client is not None:
            client.close()
        executor.stop()
        dispatcher.close()


def test_two_shard_steal_mutates_only_on_each_shards_loop(monkeypatch):
    seen = _record_plane_owners(monkeypatch)
    with LocalFederation(shards=2, executors_per_shard=0,
                         monitor_interval=0.05) as fed:
        donor, thief = fed.dispatchers["s0"], fed.dispatchers["s1"]
        _record_owners(monkeypatch, donor, thief, seen=seen)
        executor = LiveExecutor(thief.endpoint, pipeline=4).start()
        client = None
        try:
            assert executor.wait_registered()
            client = LiveClient(donor.endpoint)
            # The donor has no executors: everything above its steal
            # floor travels to the thief and settles back home.
            client.submit([TaskSpec.sleep(0, task_id=f"owner-steal-{i}")
                           for i in range(8)])
            assert wait_until(lambda: thief.stats().stolen_completed >= 1
                              and donor.stats().completed >= 1)
            _assert_loop_owned(
                seen, "_claim_many", "_settle", "_mark_acked",
                "_ShardPlane.add_peer", "_ShardPlane.tick", "PeerLink._dialed",
                "_ShardPlane.on_gossip", "PeerLink._on_message", "PeerLink.note",
                "_ShardPlane.on_steal_request", "_ShardPlane.ingest",
                "_ShardPlane.results_home")
        finally:
            if client is not None:
                client.close()
            executor.stop()


def test_failed_client_notify_is_handled_on_the_loop(monkeypatch):
    dispatcher = LiveDispatcher(replay_timeout=0.2, monitor_interval=0.05,
                                max_retries=0)
    seen = _record_owners(monkeypatch, dispatcher)
    mute = RawPeer(dispatcher.address)
    client = RawPeer(dispatcher.address)
    try:
        mute.register("mute")
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        client_id = client.recv_until(MessageType.INSTANCE_CREATED).payload["epr"]
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": "owner-notify", "args": ["0"]}]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        mute.recv_work()  # never answered; with no retries left the
        # replay timeout fails the task, and its CLIENT_NOTIFY send fails.
        conn = dispatcher._clients[client_id].conn

        def broken_pipe():
            raise BrokenPipeError("client went away")

        monkeypatch.setattr(conn, "_flush_locked", broken_pipe)
        assert wait_until(lambda: dispatcher.stats().failed == 1
                          and client_id not in dispatcher._clients)
        _assert_loop_owned(seen, "_expire", "_settle")
    finally:
        client.close()
        mute.close()
        dispatcher.close()


def test_readers_on_other_threads_see_whole_tables():
    """The loop writes without locks, so every reader on another thread
    takes single-call snapshots; with a thread switch forced every few
    microseconds, none of them may ever see a table change size under
    it, and the run they watch must still complete."""
    failures = []
    reads = [0]
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with LocalFalkon(executors=2, pipeline_depth=8,
                         heartbeat_interval=0.05) as falkon:
            dispatcher = falkon.dispatcher

            def read() -> None:
                while not stop.is_set():
                    try:
                        dispatcher.stats()
                        dispatcher.status_snapshot()
                        dispatcher.dlq_list()
                        dispatcher._flight_extra()
                        render_prometheus(dispatcher.metrics)
                        reads[0] += 1
                    except Exception as exc:  # the assertion below reports it
                        failures.append(repr(exc))
                        return

            readers = [threading.Thread(target=read) for _ in range(3)]
            for reader in readers:
                reader.start()
            try:
                results = falkon.run([TaskSpec.sleep(0, task_id=f"read-{i}")
                                      for i in range(1_000)], timeout=60)
            finally:
                stop.set()
                for reader in readers:
                    reader.join(timeout=10)
            assert not any(reader.is_alive() for reader in readers)
            assert all(result.ok for result in results)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert reads[0] > 0
