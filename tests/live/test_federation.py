"""Federation: hash ring, work stealing, router failover, v2 interop."""

import threading
import time

import pytest

from repro.live import LiveClient, LiveDispatcher, LiveExecutor
from repro.live import federation as federation_module
from repro.live.federation import HashRing, LocalFederation, aggregate_stats
from repro.types import TaskSpec

from tests.live.util import wait_until


def specs(n, seconds=0.0, prefix="fed"):
    return [
        TaskSpec(task_id=f"{prefix}-{i:04d}", command="sleep",
                 args=(str(seconds),))
        for i in range(n)
    ]


# ---------------------------------------------------------------- hash ring
class TestHashRing:
    def test_deterministic_across_instances(self):
        labels = ["s0", "s1", "s2"]
        a, b = HashRing(labels), HashRing(list(reversed(labels)))
        keys = [f"task-{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_distribution_is_not_degenerate(self):
        ring = HashRing(["s0", "s1"])
        owned = sum(1 for i in range(1000) if ring.owner(f"t-{i}") == "s0")
        assert 200 < owned < 800

    def test_single_label(self):
        ring = HashRing(["only"])
        assert ring.owner("anything") == "only"


# ---------------------------------------------------------------- stealing
class TestWorkStealing:
    def test_idle_shard_steals_from_deep_peer(self, monkeypatch):
        """A shard with zero executors donates everything to its idle
        peer; results settle back on the home shard's clients."""
        # No floor: the donor cannot run its last tasks itself.
        monkeypatch.setattr(federation_module, "STEAL_MIN_QUEUE", 0)
        donor = LiveDispatcher(shard_id="a", monitor_interval=0.05)
        thief = LiveDispatcher(shard_id="b", monitor_interval=0.05)
        executor = client = None
        try:
            donor.add_peer("b", thief.endpoint)
            thief.add_peer("a", donor.endpoint)
            executor = LiveExecutor(thief.endpoint, pipeline=4).start()
            executor.wait_registered()
            client = LiveClient(donor.endpoint)
            results = client.run(specs(20, seconds=0.005), timeout=30)
            assert all(r.ok for r in results)

            a, b = donor.stats(), thief.stats()
            assert a.stolen_out == 20
            assert b.stolen_in == 20
            assert wait_until(lambda: thief.stats().stolen_completed == 20)
            # Home-shard attribution: the donor owns completion...
            assert a.completed == 20
            assert a.failed == 0
            # ...and the aggregate counts each task exactly once.
            agg = aggregate_stats([donor.stats(), thief.stats()])
            assert agg.accepted == 20
            assert agg.completed == 20
            assert agg.stolen_tasks == 20
            assert agg.steals_granted >= 1
        finally:
            if client is not None:
                client.close()
            if executor is not None:
                executor.stop()
                executor.join(timeout=5.0)
            donor.close()
            thief.close()

    def test_peers_are_not_executors_in_stats(self):
        donor = LiveDispatcher(shard_id="a", monitor_interval=0.05)
        thief = LiveDispatcher(shard_id="b", monitor_interval=0.05)
        try:
            donor.add_peer("b", thief.endpoint)
            thief.add_peer("a", donor.endpoint)
            assert wait_until(
                lambda: "a" in thief.status_snapshot()["federation"]["peers"]
                and "b" in donor.status_snapshot()["federation"]["peers"],
                timeout=5.0,
            )
            assert donor.stats().registered == 0
            assert thief.stats().registered == 0
        finally:
            donor.close()
            thief.close()


# ------------------------------------------------------ steal capability gate
class TestStealCapabilityGate:
    def test_plain_dispatcher_never_sees_steal_traffic(self):
        """A federated shard peered at a non-federated dispatcher must
        not steal from it: the plain side never advertises the "steal"
        capability, so the link never becomes ready."""
        plain = LiveDispatcher()  # shard_id=None: not federated
        fed = LiveDispatcher(shard_id="f", monitor_interval=0.05)
        plain_exec = fed_exec = client = None
        try:
            fed.add_peer("p", plain.endpoint)
            # The federated side is idle with capacity -> it *wants*
            # to steal; the plain side has a deep queue to tempt it.
            fed_exec = LiveExecutor(fed.endpoint).start()
            fed_exec.wait_registered()
            plain_exec = LiveExecutor(plain.endpoint).start()
            plain_exec.wait_registered()
            client = LiveClient(plain.endpoint)
            futures = client.submit(specs(12, seconds=0.05, prefix="plain"))
            # Several of the federated side's monitor sweeps' worth of
            # temptation: each sweep samples one completion count.
            swept = len(fed._completions)
            assert wait_until(lambda: len(fed._completions) >= swept + 12)
            # No peer pseudo-executor materialised on the plain dispatcher,
            # no grants, no stolen tasks anywhere.
            assert not [e for e in plain._executors if e.startswith("peer:")]
            assert plain.stats().steals_granted == 0
            assert fed.stats().stolen_in == 0
            for fut in futures:
                assert fut.result(timeout=30).ok
        finally:
            if client is not None:
                client.close()
            for ex in (plain_exec, fed_exec):
                if ex is not None:
                    ex.stop()
                    ex.join(timeout=5.0)
            plain.close()
            fed.close()


# ---------------------------------------------------------------- failover
class TestRouterFailover:
    def test_shard_killed_mid_run_retargets_without_stuck_futures(
            self, tmp_path):
        settle_counts = {}
        lock = threading.Lock()

        def on_done(fut):
            with lock:
                settle_counts[fut.task_id] = settle_counts.get(fut.task_id, 0) + 1

        with LocalFederation(shards=2, executors_per_shard=2,
                             monitor_interval=0.05,
                             journal_root=str(tmp_path)) as fed:
            futures = fed.submit(specs(60, seconds=0.03, prefix="kill"))
            for fut in futures:
                fut.add_done_callback(on_done)
            assert wait_until(
                lambda: sum(1 for f in futures if f.done()) >= 10,
                timeout=20.0,
            )
            fed.kill_shard("s1")
            assert wait_until(lambda: all(f.done() for f in futures),
                              timeout=30.0)
            stuck = [f.task_id for f in futures if not f.done()]
            assert stuck == []
            assert all(f.result(0).ok for f in futures)
            # Exactly-once-visible at the router surface.
            assert all(count == 1 for count in settle_counts.values())
            assert len(settle_counts) == 60

            # The survivor keeps accepting; a restarted shard rejoins.
            fed.restart_shard("s1")
            again = fed.run(specs(20, prefix="after"), timeout=30)
            assert all(r.ok for r in again)

    def test_submits_while_shard_down_land_on_survivor(self, tmp_path):
        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05,
                             journal_root=str(tmp_path)) as fed:
            fed.kill_shard("s1")
            results = fed.run(specs(30, prefix="down"), timeout=30)
            assert all(r.ok for r in results)
            s0 = fed.shard_stats()["s0"]
            assert s0.completed == 30


# ---------------------------------------------------------------- facade
class TestFederationFacade:
    def test_trace_resolves_across_shards(self):
        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05) as fed:
            results = fed.run(specs(8, prefix="tr"), timeout=30)
            assert all(r.ok for r in results)
            for task_id in ("tr-0000", "tr-0007"):
                chain = fed.trace(task_id)
                assert chain, f"no span chain for {task_id}"

    def test_falkon_client_protocol_conformance(self):
        from repro.api import FalkonClient

        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05) as fed:
            assert isinstance(fed, FalkonClient)
            assert isinstance(fed.router, FalkonClient)
            futs = fed.submit(specs(6, prefix="proto"))
            done = list(fed.as_completed(futs, timeout=30))
            assert len(done) == 6
            assert all(f.result(0).ok for f in done)
