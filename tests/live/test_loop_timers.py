"""Timers on the loop: the IOLoop's timer heap and clock, and what moved
onto them — the dispatcher's sweep, its watchdogs and the executors'
heartbeats — in place of threads that sleep.

The heap orders timers by ``(deadline, seq)``, so equal deadlines run
first in, first out; the dispatcher reads every time off the loop's
clock, so a test that moves ``IOLoop.now`` moves replay and heartbeat
deadlines together, with no sleep.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.live import LiveClient, LiveDispatcher, LiveExecutor
from repro.live import dispatcher as dispatcher_module
from repro.live import ioloop as ioloop_module
from repro.live.ioloop import IOLoop
from repro.net.message import Message, MessageType
from repro.obs import flight as fl
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


@pytest.fixture
def loop():
    loop = IOLoop(name="timers").start()
    yield loop
    loop.stop()


def _sync(loop):
    """Return once the loop has run everything posted before."""
    done = threading.Event()
    loop.call_soon(done.set)
    assert done.wait(5.0)


def _after_due_timers(loop):
    """Return once every timer due by now has run: a zero-delay timer,
    set later, sorts after each of them."""
    done = threading.Event()
    loop.call_later(0.0, done.set)
    assert done.wait(5.0)


# -- the timer heap ------------------------------------------------------------
def test_timers_fire_in_deadline_then_seq_order(loop, monkeypatch):
    clock = [loop.now()]
    monkeypatch.setattr(loop, "now", lambda: clock[0])
    fired = []
    for label, delay in (("c1", 0.02), ("b1", 0.01), ("b2", 0.01),
                         ("a", 0.0), ("c2", 0.02), ("b3", 0.01)):
        loop.call_later(delay, lambda label=label: fired.append(label))
    _after_due_timers(loop)  # on the frozen clock only "a" is due
    assert fired == ["a"]
    clock[0] += 1.0
    _after_due_timers(loop)
    assert fired == ["a", "b1", "b2", "b3", "c1", "c2"]


def test_negative_delay_is_refused(loop):
    with pytest.raises(ValueError, match="delay"):
        loop.call_later(-0.001, lambda: None)
    loop.call_later(0.0, lambda: None)  # zero is "next pass"


def test_timer_from_another_thread_wakes_a_loop_waiting_on_a_later_one(monkeypatch):
    # The probe would wake the loop every half second: push it past the
    # test, so the only deadline the loop sleeps towards is 10 s away.
    monkeypatch.setattr(ioloop_module, "LAG_PROBE_INTERVAL", 60.0)
    loop = IOLoop(name="timers-wake").start()
    try:
        loop.call_later(10.0, lambda: None)
        _sync(loop)
        fired = threading.Event()
        started = time.monotonic()
        loop.call_later(0.05, fired.set)
        assert fired.wait(5.0)
        assert time.monotonic() - started < 5.0
    finally:
        loop.stop()


def test_a_raising_timer_does_not_kill_the_loop(loop):
    def boom():
        raise RuntimeError("timer failed")

    fired = threading.Event()
    loop.call_later(0.0, boom)
    loop.call_later(0.01, fired.set)
    assert fired.wait(5.0)
    _sync(loop)
    assert loop._thread.is_alive()


def test_stop_drops_pending_timers():
    loop = IOLoop(name="timers-stop").start()
    fired = threading.Event()
    loop.call_later(0.05, fired.set)
    _sync(loop)
    loop.stop()
    assert not fired.wait(0.2)


def test_the_lag_probe_is_a_timer_whose_lateness_is_the_lag(loop):
    loop.call_soon(lambda: time.sleep(0.8))  # a handler blocking the loop
    assert wait_until(lambda: loop.max_lag_s > 0.25)
    assert loop.drain_max_lag() > 0.25
    assert loop.max_lag_s == 0.0


# -- the dispatcher on the loop's clock ----------------------------------------
def fetch(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return json.loads(response.read())


def test_a_blocked_loop_is_reported_by_the_lag_watchdog(monkeypatch):
    """The watchdogs run off the loop they watch, so a handler that
    blocks the dispatcher's loop reads as lag on ``/healthz`` — from
    ``_check_ioloop_lag``, whose reason the flight ring keeps."""
    monkeypatch.setattr(dispatcher_module, "IOLOOP_LAG_DEGRADED", 0.3)
    dispatcher = LiveDispatcher(monitor_interval=1.0)
    http = dispatcher.serve_http(port=0)
    try:
        base = http.url("").rstrip("/")
        assert fetch(base + "/healthz")["status"] == "ok"
        dispatcher._post(time.sleep, 1.5)

        def lagging():
            health = fetch(base + "/healthz")
            return (health["status"] == "degraded"
                    and any("ioloop wakeup lag" in r for r in health["degraded"]))

        assert wait_until(lagging, timeout=15.0)
        reasons = [attrs["reason"] for _, kind, _, attrs
                   in dispatcher.flight.snapshot() if kind == fl.WATCHDOG]
        assert any(r.startswith("ioloop wakeup lag") for r in reasons)
    finally:
        dispatcher.close()


def test_one_clock_drives_replay_and_eviction_without_sleeping(monkeypatch):
    """Every dispatcher deadline is read off ``IOLoop.now``: moving that
    clock two minutes on and running one sweep replays an overdue
    dispatch and evicts an executor that went silent, with no real time
    passing."""
    # No sweep of its own inside the test: the clock jump would fire it.
    dispatcher = LiveDispatcher(heartbeat_interval=30.0, replay_timeout=30.0,
                                monitor_interval=3600.0)
    mute, silent = RawPeer(dispatcher.address), RawPeer(dispatcher.address)
    client = None
    try:
        mute.register("mute")  # talks, never answers its work
        client = LiveClient(dispatcher.endpoint)
        client.submit([TaskSpec.sleep(0, task_id="clock-0")])
        (first,) = mute.recv_work()
        silent.register("silent")  # never heard from again
        later = dispatcher._loop.now() + 120.0
        monkeypatch.setattr(dispatcher._loop, "now", lambda: later)
        mute.send(Message(MessageType.STATUS, sender="mute"))  # seen "now"
        mute.recv_until(MessageType.STATUS_REPLY)
        stats = dispatcher.stats()
        assert (stats.retries, stats.executors_declared_dead) == (0, 0)
        dispatcher._call(dispatcher._expire)
        stats = dispatcher.stats()
        assert stats.executors_declared_dead == 1
        assert set(dispatcher._executors) == {"mute"}
        assert stats.retries == 1
        (second,) = mute.recv_work()  # replayed to the idle again
        assert (first["attempt"], second["attempt"]) == (1, 2)
    finally:
        if client is not None:
            client.close()
        mute.close()
        silent.close()
        dispatcher.close()


def test_durable_shape_runs_no_sleeping_threads(tmp_path):
    """The benchmark's durable shape — journal, heartbeats every
    0.25 s, four executors — runs the dispatcher's loop, the journal's
    flusher and one thread per executor, sharing the outbound loop:
    no monitor thread, no heartbeat threads, and the executors'
    ``/status`` rows still fill from their heartbeats."""
    before = {t.name for t in threading.enumerate()}
    dispatcher = LiveDispatcher(journal_dir=str(tmp_path), heartbeat_interval=0.25,
                                retain_settled=20_000, journal_compact_every=20_000)
    executors = [LiveExecutor(dispatcher.endpoint, pipeline=8,
                              heartbeat_interval=0.25).start() for _ in range(4)]
    client = None
    try:
        assert all(e.wait_registered() for e in executors)
        started = {t.name for t in threading.enumerate()} - before
        assert started == ({f"ioloop-dispatcher-{dispatcher.port}", "journal-flusher"}
                           | {e.executor_id for e in executors}
                           | ({"ioloop-shared"} - before))
        client = LiveClient(dispatcher.endpoint)
        assert all(r.ok for r in client.run(
            [TaskSpec.sleep(0, task_id=f"census-{i}") for i in range(200)],
            timeout=30))

        def telemetry_complete():
            rows = dispatcher.status_snapshot()["executors"]
            return (len(rows) == 4
                    and sum(row.get("executed", 0) for row in rows.values()) == 200)

        assert wait_until(telemetry_complete, timeout=10.0)
        names = {t.name for t in threading.enumerate()}
        assert "dispatcher-monitor" not in names
        assert not any(name.startswith("hb-") for name in names)
    finally:
        if client is not None:
            client.close()
        for executor in executors:
            executor.stop()
        dispatcher.close()


def test_heartbeats_keep_flowing_while_a_long_task_runs():
    """The heartbeat is a timer on the shared loop, not the executor's
    thread, so a task that holds that thread does not silence it."""
    dispatcher = LiveDispatcher(heartbeat_interval=0.1, heartbeat_miss_budget=3)
    executor = LiveExecutor(dispatcher.endpoint, heartbeat_interval=0.1).start()
    client = None
    try:
        assert executor.wait_registered()
        client = LiveClient(dispatcher.endpoint)
        (result,) = client.run([TaskSpec.sleep(1.0, task_id="long-0")], timeout=30)
        assert result.ok and result.attempts == 1
        assert dispatcher.stats().executors_declared_dead == 0
    finally:
        if client is not None:
            client.close()
        executor.stop()
        dispatcher.close()


def test_a_stopped_executor_stops_beating():
    dispatcher = LiveDispatcher()
    executor = LiveExecutor(dispatcher.endpoint, heartbeat_interval=0.02)
    beats = []
    beat = executor._heartbeat

    def counting():
        beats.append(1)
        beat()

    executor._heartbeat = counting  # what the timer re-arms with
    executor.start()
    try:
        assert executor.wait_registered()
        assert wait_until(lambda: len(beats) >= 3)
        executor.stop()
        executor.join(5.0)
        count = len(beats)
        time.sleep(0.2)  # ten intervals: at most the one already armed
        assert len(beats) <= count + 1
    finally:
        dispatcher.close()
