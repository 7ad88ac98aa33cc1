"""Chaos tests for heartbeat-carried telemetry (``pytest -m chaos``).

The acceptance bar for the live telemetry plane under adversity, read
through ``status_snapshot()`` — the ``/status`` payload:

* stats deltas riding HEARTBEAT frames keep converging when a seeded
  fault plan drops frames — telemetry is best-effort but self-healing,
  because every delta carries cumulative counters;
* an evicted executor's row leaves the status surface with its session
  (no stuck gauges);
* hand-written peers — bare heartbeats, or junk where the stats field
  should be — interoperate: the run completes and the rows stay clean.
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

#: What an executor row holds from session-side truth alone.
SESSION_KEYS = {"busy_tasks", "pipeline", "age_s"}


def _rows(falkon) -> dict:
    return falkon.dispatcher.status_snapshot()["executors"]


def _sync(peer: RawPeer, sender: str) -> None:
    """Frames are handled in order: the STATUS_REPLY proves every frame
    *peer* sent before its STATUS was processed."""
    peer.send(Message(MessageType.STATUS, sender=sender))
    peer.recv_until(MessageType.STATUS_REPLY)


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

            # Heartbeats are lossy, but the deltas are cumulative
            # counters: the row each executor's latest surviving
            # heartbeat left must converge on the true totals.
            def totals_converged():
                rows = _rows(falkon)
                executed = 0.0
                for executor in falkon.executors:
                    row = rows.get(executor.executor_id, {})
                    if "executed" not in row:
                        return False
                    executed += row["executed"]
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
            # The cluster gauges are derived from the dispatcher's own
            # counters and histograms, which no dropped frame touches.
            status = falkon.dispatcher.status_snapshot()
            assert status["dispatcher"]["completed"] >= 100
            cluster = status["cluster"]
            assert cluster["registered"] == 3
            overhead = cluster["overhead_per_task_s"]
            assert not math.isnan(overhead) and overhead >= 0.0
            # The rate needs two sweeps' samples, and nothing else.
            assert wait_until(lambda: not math.isnan(
                falkon.dispatcher.status_snapshot()["cluster"][
                    "dispatch_rate_tasks_per_s"]), timeout=10.0)


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
            victim = falkon.executors[0]
            # Its heartbeats have been streaming stats.
            assert wait_until(
                lambda: "executed" in _rows(falkon).get(victim.executor_id, {}),
                timeout=10.0)
            # Socket death with no deregister: the liveness monitor must
            # evict the session, and its telemetry row goes with it.
            victim._stop.set()
            victim._conn.close()
            assert wait_until(
                lambda: victim.executor_id not in _rows(falkon), timeout=15.0)
            # The survivors' telemetry is untouched.
            rows = _rows(falkon)
            assert all("executed" in rows[e.executor_id]
                       for e in falkon.executors[1:])


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
        # field anywhere.  Liveness is served, no telemetry row is made.
        with LocalFalkon(executors=1) as falkon:
            peer = RawPeer(falkon.dispatcher.address)
            stop = threading.Event()
            server = threading.Thread(target=_serve_bare, args=(peer, stop))
            try:
                peer.register("bare-exec")
                for _ in range(3):
                    peer.send(Message(MessageType.HEARTBEAT, sender="bare-exec"))
                _sync(peer, "bare-exec")
                # The status surface degrades gracefully: the executor
                # table lists the agent from session-side truth only.
                assert set(_rows(falkon)["bare-exec"]) == SESSION_KEYS
                # Idle agents are pushed work, so the bare one takes its
                # share of the run.
                server.start()
                tasks = [TaskSpec.sleep(0, task_id=f"bare-{i:04d}") for i in range(80)]
                results = falkon.run(tasks, timeout=60)
                assert all(r.ok for r in results)
                assert any(r.executor_id == "bare-exec" for r in results)
                # The dispatcher's own gauges still work.
                status = falkon.dispatcher.status_snapshot()
                assert status["dispatcher"]["completed"] >= 80
                assert not math.isnan(status["cluster"]["overhead_per_task_s"])
                row = status["executors"]["bare-exec"]
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
                _sync(peer, "junk-exec")
                assert set(_rows(falkon)["junk-exec"]) == SESSION_KEYS | {"ok"}
                # Entirely malformed stats fields are ignored outright.
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="junk-exec",
                    payload={"stats": "not a mapping"},
                ))
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="junk-exec",
                    payload={"stats": {"everything": "junk"}},
                ))
                _sync(peer, "junk-exec")
                # The dispatcher still works: real tasks flow.
                results = falkon.run(
                    [TaskSpec.sleep(0, task_id="post-junk")], timeout=30
                )
                assert results[0].ok
                row = _rows(falkon)["junk-exec"]
                assert set(row) == SESSION_KEYS | {"ok"} and row["ok"] == 5.0
            finally:
                peer.close()

    def test_unregistered_peer_cannot_mint_series(self):
        # A raw socket spraying HEARTBEAT+stats without REGISTER must
        # not create a telemetry row (role-gated ingest).
        with LocalFalkon(executors=1) as falkon:
            peer = RawPeer(falkon.dispatcher.address)
            try:
                peer.send(Message(
                    MessageType.HEARTBEAT, sender="ghost",
                    payload={"stats": {"executed": 999}},
                ))
                _sync(peer, "ghost")
                results = falkon.run(
                    [TaskSpec.sleep(0, task_id="after-ghost")], timeout=30
                )
                assert results[0].ok
                rows = _rows(falkon)
                assert "ghost" not in rows
                assert all(row.get("executed") != 999 for row in rows.values())
            finally:
                peer.close()
