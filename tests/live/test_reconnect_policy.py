"""One reconnect policy: ``Connection.dial`` and ``backoff``, and the
router's handling of a shard that dies under its tasks."""

import itertools
import socket
import threading
import time

import pytest

from repro.live import LiveClient, LiveDispatcher, LiveExecutor
from repro.live.federation import LocalFederation
from repro.live.protocol import Connection, backoff
from repro.types import TaskSpec

from tests.live.util import wait_until


def specs(n, seconds=0.0, prefix="rp"):
    return [TaskSpec.sleep(seconds, task_id=f"{prefix}-{i:04d}") for i in range(n)]


# ---------------------------------------------------------------- backoff
def test_backoff_doubles_from_base_and_stops_at_the_budget():
    assert list(backoff(5)) == [0.05, 0.1, 0.2, 0.4, 0.8]
    assert list(backoff(8)) == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
    assert list(backoff(0)) == []


def test_unbounded_backoff_never_stops_and_stays_at_the_cap():
    delays = list(itertools.islice(backoff(None), 50))
    assert len(delays) == 50
    assert delays[:3] == [0.05, 0.1, 0.2]
    assert set(delays[6:]) == {2.0}


def test_backoff_reads_the_constants_when_it_starts(monkeypatch):
    monkeypatch.setattr("repro.live.protocol.RECONNECT_BASE", 0.5)
    monkeypatch.setattr("repro.live.protocol.RECONNECT_CAP", 1.0)
    assert list(backoff(3)) == [0.5, 1.0, 1.0]


def test_first_dial_is_never_delayed(monkeypatch):
    # A retry delay longer than the test: only an undelayed first dial
    # can register the executor and connect the client in time.
    monkeypatch.setattr("repro.live.protocol.RECONNECT_BASE", 30.0)
    monkeypatch.setattr("repro.live.protocol.RECONNECT_CAP", 30.0)
    dispatcher = LiveDispatcher()
    executor = LiveExecutor(dispatcher.endpoint).start()
    client = None
    try:
        started = time.monotonic()
        assert executor.wait_registered(timeout=5.0)
        client = LiveClient(dispatcher.endpoint)
        assert client.run(specs(2), timeout=10)[0].ok
        assert time.monotonic() - started < 5.0
    finally:
        if client is not None:
            client.close()
        executor.stop()
        executor.join(timeout=5.0)
        dispatcher.close()


# ---------------------------------------------------------------- dial
def test_dial_disables_nagle_and_starts_the_connection():
    dispatcher = LiveDispatcher()
    try:
        conn = Connection.dial(dispatcher.endpoint, lambda message: None,
                               name="probe", timeout=2.0)
        try:
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert not conn.closed and conn._started
        finally:
            conn.close()
    finally:
        dispatcher.close()


def test_dial_raises_oserror_when_nothing_listens():
    dispatcher = LiveDispatcher()
    endpoint = dispatcher.endpoint
    dispatcher.close()
    with pytest.raises(OSError):
        Connection.dial(endpoint, lambda message: None, name="probe", timeout=2.0)


# ---------------------------------------------------------------- router
def test_router_counts_a_retarget_when_the_owner_is_already_down():
    with LocalFederation(shards=2, executors_per_shard=1,
                         monitor_interval=0.05) as fed:
        router = fed.router
        s0, s1 = (fed.dispatchers[s].endpoint for s in ("s0", "s1"))
        router._mark_down(s1.url)
        owned_by_s1 = [spec for spec in specs(40, prefix="down")
                       if router.ring.owner(spec.task_id) == s1.url]
        assert owned_by_s1
        results = router.run(owned_by_s1, timeout=30)
        assert all(r.ok for r in results)
        # One bundle, moved off its hash owner onto the survivor.
        assert router.retargets == 1
        assert {router.owner(s.task_id) for s in owned_by_s1} == {s0}


def test_router_replaces_a_dead_shards_tasks_from_one_thread(monkeypatch):
    resubmit_threads = []
    real_thread = threading.Thread

    class CountingThread(real_thread):
        def start(self):
            if self.name.startswith("router-resubmit"):
                resubmit_threads.append(self.name)
            super().start()

    submits = []
    real_send_bundle = LiveClient._send_bundle

    def counting_send_bundle(self, frame, count):
        submits.append((self.endpoint.url, count))
        return real_send_bundle(self, frame, count)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(LiveClient, "_send_bundle", counting_send_bundle)
    with LocalFederation(shards=2, executors_per_shard=1,
                         monitor_interval=0.05) as fed:
        router = fed.router
        futures = fed.submit(specs(40, seconds=0.1, prefix="dead"))
        submitted = len(submits)
        time.sleep(0.15)
        fed.kill_shard("s1")
        assert wait_until(lambda: all(f.done() for f in futures), timeout=30.0)
        assert all(f.result(0).ok for f in futures)
        orphans = router.resubmits
        assert orphans >= 8, "the scenario must orphan a real batch"
        # One thread per dead shard (a second only if a straggler lands
        # after the first drained), and a bundle per hash owner per
        # round — not one of each per orphaned task.
        assert 1 <= len(resubmit_threads) <= 2, resubmit_threads
        resubmitted = submits[submitted:]
        assert 1 <= len(resubmitted) <= 4, resubmitted
        # Every orphan left its hash owner: each bundle is a retarget.
        assert router.retargets >= len(resubmitted)
