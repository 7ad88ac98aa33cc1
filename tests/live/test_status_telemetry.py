"""``/status`` telemetry, read where each fact is kept.

Nothing is sampled into a second store: an executor's row is its
session's last heartbeat ``stats`` dict, ``provisioner`` the last
STATUS poll's, the cluster counts are ``stats()``'s, the overhead comes
from the e2e and exec histograms, and the dispatch rate from the
``(t, completed)`` pairs the sweep keeps for its window.
"""

import math
import time

import pytest

from repro.live import LiveDispatcher
from repro.live.dispatcher import PEER_PREFIX, efficiency_curve
from repro.live.federation import LocalFederation
from repro.net.message import Message, MessageType

from tests.live.util import RawPeer, wait_until


def _unswept_dispatcher():
    # An hour between sweeps: no rate sample lands unless a test puts it.
    return LiveDispatcher(monitor_interval=3600.0)


class TestEfficiencyCurve:
    def test_shape_matches_the_paper_figure(self):
        curve = efficiency_curve(1.0, lengths=(1.0, 4.0, 32.0))
        assert curve["1s"] == 0.5
        assert curve["4s"] == 0.8
        # Longer tasks amortise the overhead: monotone, approaching 1.
        assert curve["1s"] < curve["4s"] < curve["32s"] < 1.0

    def test_nan_overhead_propagates(self):
        curve = efficiency_curve(math.nan)
        assert all(math.isnan(v) for v in curve.values())

    def test_zero_overhead_is_perfect_efficiency(self):
        assert set(efficiency_curve(0.0).values()) == {1.0}


class TestClusterGauges:
    def test_utilization_and_dispatch_rate(self):
        with _unswept_dispatcher() as dispatcher:
            client = RawPeer(dispatcher.address)
            executors = [RawPeer(dispatcher.address) for _ in range(2)]
            try:
                for index, peer in enumerate(executors):
                    peer.register(f"u-{index}")
                client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
                client.recv_until(MessageType.INSTANCE_CREATED)
                client.send(Message(MessageType.SUBMIT, sender="c", payload={
                    "tasks": [{"task_id": "u-task", "args": ["0"]}]}))
                client.recv_until(MessageType.SUBMIT_ACK)
                executors[0].recv_work()  # pushed to the first idle agent
                dispatcher._h_e2e.observe_many([0.3] * 100)
                dispatcher._h_exec.observe_many([0.1] * 100)
                dispatcher._completions.extend([(0.0, 0), (2.0, 100)])
                cluster = dispatcher.status_snapshot()["cluster"]
            finally:
                client.close()
                for peer in executors:
                    peer.close()
        assert (cluster["registered"], cluster["busy"], cluster["queued"]) == (2, 1, 0)
        assert cluster["utilization"] == 0.5
        assert cluster["dispatch_rate_tasks_per_s"] == 50.0
        assert cluster["overhead_per_task_s"] == pytest.approx((30.0 - 10.0) / 100)

    def test_gauges_are_nan_before_any_settle(self):
        with _unswept_dispatcher() as dispatcher:
            cluster = dispatcher.status_snapshot()["cluster"]
        assert math.isnan(cluster["utilization"])  # an empty pool
        assert math.isnan(cluster["dispatch_rate_tasks_per_s"])
        assert math.isnan(cluster["overhead_per_task_s"])

    def test_overhead_clamps_clock_skew_to_zero(self):
        # Exec time (executor clocks) can exceed e2e time (dispatcher
        # clock) by jitter; overhead must clamp at zero, not go negative.
        with _unswept_dispatcher() as dispatcher:
            dispatcher._h_e2e.observe_many([0.5] * 10)
            dispatcher._h_exec.observe_many([0.6] * 10)
            cluster = dispatcher.status_snapshot()["cluster"]
        assert cluster["overhead_per_task_s"] == 0.0

    def test_peer_shards_are_not_counted_as_executors(self):
        """A federated shard's ``peer:`` pseudo-executor is a link, not
        a worker: the cluster gauges count what ``stats()`` counts."""
        with LocalFederation(shards=2, executors_per_shard=2,
                             monitor_interval=0.05) as fed:
            dispatchers = list(fed.dispatchers.values())
            assert wait_until(lambda: all(
                d.stats().registered == 2
                and any(e.startswith(PEER_PREFIX) for e in list(d._executors))
                for d in dispatchers))
            time.sleep(0.25)  # a few sweeps with the peer session in the table
            for dispatcher in dispatchers:
                status = dispatcher.status_snapshot()
                cluster = status["cluster"]
                assert cluster["registered"] == status["dispatcher"]["registered"] == 2
                assert cluster["busy"] == status["dispatcher"]["busy"]
                assert cluster["utilization"] == cluster["busy"] / 2


class TestDispatchRate:
    def test_counter_rate_over_window(self):
        with _unswept_dispatcher() as dispatcher:
            # The first pair is older than the window behind the newest.
            dispatcher._completions.extend(
                [(0.0, 0), (10.0, 100), (11.0, 200), (12.0, 400)])
            cluster = dispatcher.status_snapshot()["cluster"]
        assert cluster["dispatch_rate_tasks_per_s"] == 150.0

    def test_rate_needs_two_points(self):
        with _unswept_dispatcher() as dispatcher:
            dispatcher._completions.append((1.0, 5))
            cluster = dispatcher.status_snapshot()["cluster"]
        assert math.isnan(cluster["dispatch_rate_tasks_per_s"])


def _without_age(row):
    return {key: value for key, value in row.items() if key != "age_s"}


def test_executor_row_is_the_newest_heartbeat():
    """Each heartbeat's stats replace the row whole; one that sanitizes
    to nothing leaves the previous row standing."""
    with _unswept_dispatcher() as dispatcher:
        peer = RawPeer(dispatcher.address)
        try:
            peer.register("hb-exec")

            def beat(stats):
                peer.send(Message(MessageType.HEARTBEAT, sender="hb-exec",
                                  payload={"stats": stats}))
                # Frames are handled in order: the reply proves the beat was.
                peer.send(Message(MessageType.STATUS, sender="hb-exec"))
                peer.recv_until(MessageType.STATUS_REPLY)
                return _without_age(
                    dispatcher.status_snapshot()["executors"]["hb-exec"])

            assert beat({"busy": 1, "executed": 10})["executed"] == 10.0
            row = beat({"busy": 0, "executed": 25})
            assert row == {"busy_tasks": 0, "pipeline": 1,
                           "busy": 0.0, "executed": 25.0}
            assert beat({"executed": "junk"}) == row
            assert beat({"backlog": 3}) == {"busy_tasks": 0, "pipeline": 1,
                                            "backlog": 3.0}
        finally:
            peer.close()


def test_provisioner_row_is_the_newest_status_poll():
    with _unswept_dispatcher() as dispatcher:
        peer = RawPeer(dispatcher.address)
        try:
            rows = []
            for stats in ({"pool_size": 2, "polls": 1}, "junk", {"polls": 2}):
                peer.send(Message(MessageType.STATUS, sender="prov",
                                  payload={"stats": stats}))
                peer.recv_until(MessageType.STATUS_REPLY)
                rows.append(dispatcher.status_snapshot()["provisioner"])
        finally:
            peer.close()
    assert rows == [{"pool_size": 2.0, "polls": 1.0},
                    {"pool_size": 2.0, "polls": 1.0},
                    {"polls": 2.0}]
