"""Stall watchdog against a real deployment: the suppression rules
(no false positives on idle or saturated clusters) and the true
positive (every NOTIFY dropped on the floor must read as degraded).
"""

import json
import urllib.request

from repro.live import FaultPlan, LocalFalkon
from repro.types import TaskSpec

from tests.live.util import wait_until


def fetch(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


class TestNoFalsePositives:
    def test_paused_but_empty_queue_never_trips(self):
        """Depth 0 with idle executors is quiet, not stalled — an idle
        deployment sitting many multiples of stall_after must stay ok."""
        with LocalFalkon(executors=2, stall_after=0.2,
                         heartbeat_interval=0.05) as falkon:
            deadline_sweeps = wait_until(
                lambda: falkon.dispatcher.health_snapshot()["uptime_s"] > 1.0,
                timeout=10.0)
            assert deadline_sweeps
            health = falkon.dispatcher.health_snapshot()
            assert health["status"] == "ok"
            assert health["degraded"] == []

    def test_sleep_heavy_workload_never_trips(self):
        """Queue deep + every executor busy is backpressure: zero idle
        capacity suppresses the detector for the whole run."""
        with LocalFalkon(executors=2, stall_after=0.2,
                         heartbeat_interval=0.05) as falkon:
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
    def test_dropped_notifies_trip_the_stall_detector(self):
        """Chaos plan that eats every NOTIFY: queued work, idle
        executors, no dispatch — the lost-wakeup signature the
        detector exists for.  Must surface on /healthz and /metrics."""
        plan = FaultPlan(seed=7, drop_rate=1.0, drop_types={"NOTIFY"},
                         roles=("executor",))
        falkon = LocalFalkon(executors=2, fault_plan=plan,
                             stall_after=0.4,
                             heartbeat_interval=0.05, http_port=0)
        try:
            falkon.submit(
                [TaskSpec.sleep(0, task_id=f"stall-{i}") for i in range(4)])

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
        finally:
            falkon.close()
