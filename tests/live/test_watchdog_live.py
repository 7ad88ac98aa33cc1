"""Stall watchdog against a real deployment: the suppression rules
(no false positives on idle or saturated clusters) and the true
positive (a wedged loop thread holding back a wake must read as
degraded).
"""

import json
import threading
import urllib.request

from repro.live import LocalFalkon
from repro.live import dispatcher as dispatcher_module
from repro.types import TaskSpec

from tests.live.util import wait_until


def fetch(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


class TestNoFalsePositives:
    def test_paused_but_empty_queue_never_trips(self, monkeypatch):
        """Depth 0 with idle executors is quiet, not stalled — an idle
        deployment sitting many multiples of STALL_AFTER must stay ok."""
        monkeypatch.setattr(dispatcher_module, "STALL_AFTER", 0.2)
        with LocalFalkon(executors=2, heartbeat_interval=0.05) as falkon:
            deadline_sweeps = wait_until(
                lambda: falkon.dispatcher.health_snapshot()["uptime_s"] > 1.0,
                timeout=10.0)
            assert deadline_sweeps
            health = falkon.dispatcher.health_snapshot()
            assert health["status"] == "ok"
            assert health["degraded"] == []

    def test_sleep_heavy_workload_never_trips(self, monkeypatch):
        """Queue deep + every executor busy is backpressure: zero idle
        capacity suppresses the detector for the whole run."""
        monkeypatch.setattr(dispatcher_module, "STALL_AFTER", 0.2)
        with LocalFalkon(executors=2, heartbeat_interval=0.05) as falkon:
            futures = falkon.submit(
                [TaskSpec.sleep(0.3, task_id=f"heavy-{i}") for i in range(6)])
            stall_seen = []

            def finished_clean():
                reasons = falkon.dispatcher.health_snapshot()["degraded"]
                stall_seen.extend(
                    r for r in reasons if "queue stalled" in r)
                return all(f.done() for f in futures)

            assert wait_until(finished_clean, timeout=30.0)
            assert stall_seen == []
            assert all(f.result().ok for f in futures)


class TestTruePositive:
    def test_dropped_notifies_trip_the_stall_detector(self, monkeypatch):
        """Idle executors are pushed WORK, so no dropped frame can leave
        work queued next to them any more: a lost WORK is a dispatched
        task, the replay timer's.  The stall push can still have is a
        wedged loop thread — here ``dlq_retry`` queues work on the loop
        and the loop then blocks ahead of the wake: queued work, idle
        executors, no dispatch.  Must surface on /healthz and /metrics,
        and clear once the loop runs the wake.  (No heartbeats: a
        wedged loop would evict the executors.)"""
        monkeypatch.setattr(dispatcher_module, "STALL_AFTER", 0.4)
        runs = []

        def fails_once():
            runs.append(1)
            if len(runs) == 1:
                raise RuntimeError("first run fails")

        falkon = LocalFalkon(executors=2, max_retries=0,
                             python_registry={"fails_once": fails_once},
                             http_port=0)
        dispatcher = falkon.dispatcher
        wedge = threading.Event()
        retried = []
        try:
            (result,) = falkon.run(
                [TaskSpec(task_id="stall-0", command="python:fails_once")],
                timeout=20)
            assert not result.ok
            wake = dispatcher._wake_idle

            def wedged_wake():
                dispatcher._wake_idle = wake
                wedge.wait(30.0)  # a blocking op ahead of the wake
                wake()

            dispatcher._wake_idle = wedged_wake
            # dlq_retry answers once the loop has run it: off this thread.
            threading.Thread(
                target=lambda: retried.append(dispatcher.dlq_retry("stall-0")),
                daemon=True).start()

            def stalled():
                health = falkon.dispatcher.health_snapshot()
                return any("queue stalled" in r for r in health["degraded"])

            assert wait_until(stalled, timeout=20.0)
            base = falkon.http.url("").rstrip("/")
            health = json.loads(fetch(base + "/healthz"))
            assert health["status"] == "degraded"
            assert any("queue stalled" in r for r in health["degraded"])
            metrics = fetch(base + "/metrics").decode()
            assert "falkon_dispatcher_degraded 1" in metrics
            assert "falkon_dispatcher_queue_stall_seconds" in metrics
            assert "falkon_dispatcher_ioloop_lag_seconds" in metrics
            wedge.set()
            assert wait_until(
                lambda: falkon.dispatcher.stats().completed == 1, timeout=10.0)
            assert wait_until(lambda: not stalled(), timeout=10.0)
            assert retried == [True]
        finally:
            wedge.set()
            falkon.close()
