"""Chaos tests for heartbeat-carried telemetry (``pytest -m chaos``).

The acceptance bar for the live telemetry plane under adversity:

* stats deltas riding HEARTBEAT frames keep converging when a seeded
  fault plan drops frames — telemetry is best-effort but self-healing,
  because every delta carries cumulative counters;
* an evicted executor's series disappear from the store and the status
  surface (no stuck gauges);
* hand-written peers — bare heartbeats, or junk where the stats field
  should be — interoperate: the run completes and the store stays clean.
"""

import math
import threading

import pytest

from repro.live import FaultPlan, LocalFalkon
from repro.net.message import Message, MessageType
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until

pytestmark = pytest.mark.chaos

SEED = 20070607


class TestStatsUnderFrameLoss:
    def test_timeseries_converges_despite_dropped_frames(self):
        plan = FaultPlan(seed=SEED, drop_rate=0.10)
        with LocalFalkon(
            executors=3,
            heartbeat_interval=0.1,
            heartbeat_miss_budget=30,  # loss must not evict anyone here
            replay_timeout=0.75,
            max_retries=12,
            fault_plan=plan,
        ) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"loss-{i:04d}") for i in range(150)]
            results = falkon.run(tasks, timeout=120)
            assert all(r.ok for r in results)
            store = falkon.dispatcher.timeseries

            # Heartbeats are lossy, but the deltas are cumulative
            # counters: the *latest* surviving sample per executor must
            # converge on the true totals.
            def totals_converged():
                executed = 0.0
                for executor in falkon.executors:
                    latest = store.latest(executor.executor_id)
                    if "executed" not in latest:
                        return False
                    executed += latest["executed"]
                return executed >= len(tasks)

            assert wait_until(totals_converged, timeout=15.0)
            assert plan.snapshot()["frames_dropped"] > 0  # not a clean run

    def test_dispatcher_self_samples_survive_chaos(self):
        plan = FaultPlan(seed=SEED + 7, drop_rate=0.10)
        with LocalFalkon(
            executors=3,
            heartbeat_interval=0.1,
            heartbeat_miss_budget=30,
            replay_timeout=0.75,
            max_retries=12,
            fault_plan=plan,
        ) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"self-{i:04d}") for i in range(100)]
            results = falkon.run(tasks, timeout=120)
            assert all(r.ok for r in results)
            store = falkon.dispatcher.timeseries
            assert wait_until(
                lambda: store.latest("dispatcher").get("completed", 0.0) >= 100,
                timeout=15.0,
            )
            cluster = store.cluster()
            assert cluster["registered"] == 3.0
            overhead = cluster["overhead_per_task_s"]
            assert not math.isnan(overhead) and overhead >= 0.0


class TestEvictionConvergence:
    def test_evicted_executor_leaves_no_stuck_gauges(self):
        with LocalFalkon(
            executors=3,
            heartbeat_interval=0.2,
            heartbeat_miss_budget=3,
            replay_timeout=1.0,
            max_retries=12,
        ) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"evict-{i:04d}") for i in range(60)]
            results = falkon.run(tasks, timeout=60)
            assert all(r.ok for r in results)
            store = falkon.dispatcher.timeseries
            victim = falkon.executors[0]
            # Its heartbeats have been streaming stats.
            assert wait_until(
                lambda: "executed" in store.latest(victim.executor_id), timeout=10.0
            )
            # Socket death with no deregister: the liveness monitor must
            # both evict the session and forget its telemetry.
            victim._stop.set()
            victim._conn.close()
            assert wait_until(
                lambda: victim.executor_id not in store.sources(), timeout=15.0
            )
            assert store.latest(victim.executor_id) == {}
            snapshot = falkon.dispatcher.status_snapshot()
            assert victim.executor_id not in snapshot["executors"]
            # The survivors' telemetry is untouched.
            survivors = [e.executor_id for e in falkon.executors[1:]]
            assert all(s in store.sources() for s in survivors)


def _serve_bare(peer: RawPeer, stop: threading.Event) -> None:
    """A hand-written agent's loop: run whatever tasks arrive — pushed
    or piggy-backed — and report them, with a bare (stats-free)
    HEARTBEAT ahead of every report."""
    while not stop.is_set():
        try:
            msg = peer.recv(timeout=0.1)
        except (TimeoutError, OSError):
            continue
        if msg.type not in (MessageType.WORK, MessageType.RESULT_ACK):
            continue
        tasks = msg.payload.get("tasks") or ()
        if tasks:
            peer.send(Message(MessageType.HEARTBEAT, sender="bare-exec"))
            peer.send(Message(MessageType.RESULT, sender="bare-exec", payload={
                "results": [{"result": {"task_id": t["task"]["task_id"]},
                             "attempt": t["attempt"]} for t in tasks]}))


class TestV1Interop:
    def test_stats_free_heartbeats_complete_the_run(self):
        # A hand-written agent sending bare HEARTBEAT frames: no stats
        # field anywhere.  Liveness is served, no series is minted.
        with LocalFalkon(executors=1) as falkon:
            peer = RawPeer(falkon.dispatcher.address)
            stop = threading.Event()
            server = threading.Thread(target=_serve_bare, args=(peer, stop))
            try:
                peer.register("bare-exec")
                for _ in range(3):
                    peer.send(Message(MessageType.HEARTBEAT, sender="bare-exec"))
                # Frames are handled in order: the NO_WORK reply proves
                # the heartbeats before it were processed.
                peer.send(Message(MessageType.GET_WORK, sender="bare-exec"))
                peer.recv_until(MessageType.NO_WORK)
                # Idle agents are pushed work, so the bare one takes its
                # share of the run.
                server.start()
                tasks = [TaskSpec.sleep(0, task_id=f"bare-{i:04d}") for i in range(80)]
                results = falkon.run(tasks, timeout=60)
                assert all(r.ok for r in results)
                assert any(r.executor_id == "bare-exec" for r in results)
                store = falkon.dispatcher.timeseries
                assert store.latest("bare-exec") == {}
                # The dispatcher's own samples (and derived gauges)
                # still work.
                assert wait_until(
                    lambda: store.latest("dispatcher").get("completed", 0.0) >= 80,
                    timeout=10.0,
                )
                # The status surface degrades gracefully: the executor
                # table still lists the agent from session-side truth.
                row = falkon.dispatcher.status_snapshot()["executors"]["bare-exec"]
                assert "pipeline" in row and "executed" not in row
            finally:
                stop.set()
                if server.is_alive():
                    server.join(timeout=5.0)
                peer.close()

    def test_junk_stats_never_poison_the_store(self):
        with LocalFalkon(executors=1) as falkon:
            peer = RawPeer(falkon.dispatcher.address)
            try:
                peer.register("junk-exec")
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="junk-exec",
                    payload={"stats": {"executed": "a lot", "nan": float("nan"),
                                       "list": [1], "ok": 5}},
                ))
                store = falkon.dispatcher.timeseries

                def sanitized():
                    latest = store.latest("junk-exec")
                    return set(latest) == {"ok", "_t"}

                assert wait_until(sanitized, timeout=10.0)
                # Entirely malformed stats fields are ignored outright.
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="junk-exec",
                    payload={"stats": "not a mapping"},
                ))
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="junk-exec",
                    payload={"stats": {"everything": "junk"}},
                ))
                # The dispatcher still works: real tasks flow.
                results = falkon.run(
                    [TaskSpec.sleep(0, task_id="post-junk")], timeout=30
                )
                assert results[0].ok
                assert set(store.latest("junk-exec")) == {"ok", "_t"}
            finally:
                peer.close()

    def test_unregistered_peer_cannot_mint_series(self):
        # A raw socket spraying HEARTBEAT+stats without REGISTER must
        # not create telemetry series (role-gated ingest).
        with LocalFalkon(executors=1) as falkon:
            peer = RawPeer(falkon.dispatcher.address)
            try:
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="ghost",
                    payload={"stats": {"executed": 999}},
                ))
                results = falkon.run(
                    [TaskSpec.sleep(0, task_id="after-ghost")], timeout=30
                )
                assert results[0].ok
                assert "ghost" not in falkon.dispatcher.timeseries.sources()
            finally:
                peer.close()
