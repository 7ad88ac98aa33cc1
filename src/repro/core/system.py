"""Composition root: a whole Falkon deployment in one object.

:class:`FalkonSystem` wires the simulated pieces together the way the
paper's testbed was wired: a compute cluster managed by an LRM (PBS by
default), fronted by a GRAM4 gateway, a dispatcher on its own host, a
provisioner, and a client.  Experiments either let the provisioner
acquire resources dynamically (§4.6) or call :meth:`static_pool` to
stand up a fixed set of executors (the §4.1–§4.5 microbenchmarks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.cluster.jvm import JVMModel
from repro.cluster.node import Cluster, ClusterSpec, NodeSpec
from repro.config import FalkonConfig
from repro.core.client import SimClient
from repro.core.dispatcher import SimDispatcher, TaskRecord
from repro.core.executor import SimExecutor
from repro.core.provisioner import Provisioner
from repro.core.staging import StagingModel
from repro.lrm.base import BatchScheduler, LRMConfig
from repro.lrm.gram import Gram4Gateway, GramConfig
from repro.lrm.pbs import PBS_CONFIG
from repro.net.costs import BundlingCostModel, NetworkModel, WSCostModel
from repro.sim import Environment, RngStreams
from repro.types import TaskResult, TaskSpec

__all__ = ["FalkonSystem", "WorkloadResult"]


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    records: list[TaskRecord]
    started_at: float
    finished_at: float

    @property
    def results(self) -> list[TaskResult]:
        return [r.result for r in self.records if r.result is not None]

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.result is not None and r.result.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.result is not None and not r.result.ok)

    @property
    def throughput(self) -> float:
        """Completed tasks per second over the makespan."""
        return self.completed / self.makespan if self.makespan > 0 else math.inf

    def mean_queue_time(self) -> float:
        times = [r.timeline.queue_time for r in self.records if r.result is not None]
        return float(np.mean(times)) if times else math.nan

    def mean_execution_time(self) -> float:
        times = [r.timeline.execution_time for r in self.records if r.result is not None]
        return float(np.mean(times)) if times else math.nan

    def execution_time_fraction(self) -> float:
        """Table 3's ``exec_time / (exec_time + queue_time)`` ratio."""
        q, e = self.mean_queue_time(), self.mean_execution_time()
        return e / (e + q) if e + q > 0 else math.nan


class FalkonSystem:
    """A complete simulated Falkon deployment."""

    def __init__(
        self,
        config: Optional[FalkonConfig] = None,
        env: Optional[Environment] = None,
        cluster_nodes: int = 64,
        processors_per_node: int = 2,
        free_limit: Optional[int] = None,
        lrm_config: Optional[LRMConfig] = None,
        gram_config: Optional[GramConfig] = None,
        costs: Optional[WSCostModel] = None,
        network: Optional[NetworkModel] = None,
        bundling: Optional[BundlingCostModel] = None,
        jvm: Optional[JVMModel] = None,
        staging: Optional[StagingModel] = None,
        seed: int = 0,
    ) -> None:
        self.env = env or Environment()
        self.config = (config or FalkonConfig()).validate()
        self.costs = costs or WSCostModel()
        self.network = network or NetworkModel()
        self.bundling = bundling or BundlingCostModel()
        self.rngs = RngStreams(seed)
        self.cluster = Cluster(
            self.env,
            ClusterSpec(
                name="sim-cluster",
                nodes=cluster_nodes,
                node=NodeSpec(processors=processors_per_node),
            ),
            free_limit=free_limit,
        )
        self.lrm = BatchScheduler(self.env, self.cluster, lrm_config or PBS_CONFIG)
        self.gateway = Gram4Gateway(self.env, self.lrm, gram_config)
        self.staging = staging
        self.dispatcher = SimDispatcher(
            self.env, self.config, costs=self.costs, network=self.network, jvm=jvm
        )
        self.provisioner = Provisioner(
            self.env, self.dispatcher, self.gateway, self.config, staging=staging
        )
        self.client = SimClient(self.env, self.dispatcher, bundling=self.bundling)
        self._static_executors: list[SimExecutor] = []

    # ------------------------------------------------------------------
    def static_pool(
        self,
        n_executors: int,
        startup_delay: float = 0.0,
        contention_factor: float = 1.0,
        overhead_jitter: float = 0.0,
        failure_rate: float = 0.0,
        executors_per_machine: Optional[int] = None,
    ) -> list[SimExecutor]:
        """Create *n_executors* directly, bypassing the provisioner.

        Used by the microbenchmarks, which fix the executor count.  The
        provisioner is stopped so it does not double-provision.
        Executors are spread round-robin over synthetic node names,
        ``executors_per_machine`` to a node (defaults to the cluster's
        processors per node).
        """
        if n_executors <= 0:
            raise ValueError("n_executors must be positive")
        self.provisioner.stop()
        per_machine = executors_per_machine or self.cluster.spec.node.processors
        # A fixed pool has no provisioner behind it: executors must not
        # self-release on idle (the paper's microbenchmarks start all
        # executors up front and keep them for the whole experiment —
        # e.g. the 54 K pool idles ~400 s during the dispatch ramp).
        from repro.core.policies import NeverRelease

        release = NeverRelease()
        # One independent stream per executor (split from the root seed
        # by name, not a shared generator): each executor's jitter and
        # failure draws are a pure function of (seed, pool index), so
        # identical seeds reproduce identical per-executor timelines
        # regardless of how the scheduler interleaves their draws.
        pool_base = len(self._static_executors)
        executors = [
            SimExecutor(
                self.env,
                self.dispatcher,
                release_policy=release,
                startup_delay=startup_delay,
                staging=self.staging,
                node=f"sim-node{(i // per_machine):05d}",
                contention_factor=contention_factor,
                overhead_jitter=overhead_jitter,
                rng=self.rngs.stream(f"executor:{pool_base + i:05d}"),
                failure_rate=failure_rate,
            )
            for i in range(n_executors)
        ]
        self._static_executors.extend(executors)
        return executors

    # ------------------------------------------------------------------
    def run_workload(
        self,
        tasks: list[TaskSpec],
        bundle_size: Optional[int] = None,
        prewarm: bool = False,
    ) -> WorkloadResult:
        """Submit *tasks* and run the simulation until all complete."""
        if not tasks:
            raise ValueError("workload must contain at least one task")
        already_done = self.dispatcher.tasks_completed + self.dispatcher.tasks_failed
        records_box: list[TaskRecord] = []

        def driver() -> Generator:
            if prewarm:
                yield from self.provisioner.prewarm()
            start = self.env.now
            records = yield from self.client.submit(tasks, bundle_size)
            records_box.extend(records)
            return start

        driver_proc = self.env.process(driver(), name="workload-driver")
        milestone = self.dispatcher.completion_milestone(already_done + len(tasks))
        started_at = self.env.run(until=driver_proc)
        self.env.run(until=milestone)
        return WorkloadResult(
            records=records_box, started_at=started_at, finished_at=self.env.now
        )

    def __repr__(self) -> str:
        return f"<FalkonSystem {self.dispatcher!r} cluster={self.cluster.name}>"
