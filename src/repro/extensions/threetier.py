"""The 3-tier architecture (§6, Figure 16).

"One or more forwarders receive tasks from a client ... dispatchers
are deployed on cluster manager nodes ... each dispatcher manages a
disjoint set of executors that may run in either a private or public
IP space.  We are investigating this three-tier architecture with the
goal of scaling Falkon to two or more orders of magnitude more
executors."

The :class:`Forwarder` sits between clients and several dispatchers.
It routes each incoming task to the dispatcher with the least load
(queued + busy), paying only a tiny routing cost per task — far below
a full dispatcher's per-task CPU — so aggregate dispatch throughput
scales with the number of second-tier dispatchers (bench F16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.dispatcher import SimDispatcher, TaskRecord
from repro.net.costs import NetworkModel
from repro.sim import Environment, Resource
from repro.types import TaskSpec

__all__ = ["Forwarder", "ForwarderResult"]


@dataclass
class ForwarderResult:
    """Outcome of a workload pushed through the forwarder."""

    records: list[TaskRecord]
    started_at: float
    finished_at: float
    per_dispatcher: dict[int, int]

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.result is not None and r.result.ok)

    @property
    def throughput(self) -> float:
        return self.completed / self.makespan if self.makespan > 0 else float("inf")


class Forwarder:
    """First-tier router over several second-tier dispatchers."""

    def __init__(
        self,
        env: Environment,
        dispatchers: list[SimDispatcher],
        routing_cpu: float = 0.0002,
        network: Optional[NetworkModel] = None,
    ) -> None:
        if not dispatchers:
            raise ValueError("a forwarder needs at least one dispatcher")
        if routing_cpu < 0:
            raise ValueError("routing_cpu must be >= 0")
        self.env = env
        self.dispatchers = list(dispatchers)
        self.routing_cpu = routing_cpu
        self.network = network or NetworkModel()
        self.cpu = Resource(env, capacity=1)
        self.tasks_routed = 0
        self._route_counts = {i: 0 for i in range(len(dispatchers))}

    def _pick(self) -> int:
        """Least-loaded dispatcher (queued + busy, ties to lowest index)."""
        loads = [
            (d.queued_tasks + d.busy_executors, i)
            for i, d in enumerate(self.dispatchers)
        ]
        return min(loads)[1]

    def route_bundle(self, tasks: list[TaskSpec]) -> Generator:
        """Generator: route one bundle; returns the TaskRecords.

        Each task costs ``routing_cpu`` on the forwarder (the tier-1
        work is a header inspection and a table lookup, not WS
        deserialisation of the whole payload).
        """
        if not tasks:
            raise ValueError("bundle must contain at least one task")
        records: list[TaskRecord] = []
        with self.cpu.request() as slot:
            yield slot
            yield self.env.timeout(self.routing_cpu * len(tasks))
        # One inter-tier hop for the bundle.
        yield self.env.timeout(self.network.latency)
        # Partition across dispatchers by current load.
        assignment: dict[int, list[TaskSpec]] = {}
        for task in tasks:
            index = self._pick_with_pending(assignment)
            assignment.setdefault(index, []).append(task)
        for index, chunk in assignment.items():
            dispatcher = self.dispatchers[index]
            chunk_records = yield from dispatcher.accept_tasks(chunk)
            records.extend(chunk_records)
            self._route_counts[index] += len(chunk)
            self.tasks_routed += len(chunk)
        return records

    def _pick_with_pending(self, assignment: dict[int, list[TaskSpec]]) -> int:
        loads = [
            (
                d.queued_tasks + d.busy_executors + len(assignment.get(i, ())),
                i,
            )
            for i, d in enumerate(self.dispatchers)
        ]
        return min(loads)[1]

    def run_workload(self, tasks: list[TaskSpec], bundle_size: int = 300) -> ForwarderResult:
        """Route *tasks* and run the simulation until all complete."""
        if bundle_size <= 0:
            raise ValueError("bundle_size must be positive")
        records_box: list[TaskRecord] = []

        def driver() -> Generator:
            start = self.env.now
            for i in range(0, len(tasks), bundle_size):
                chunk = tasks[i : i + bundle_size]
                records_box.extend((yield from self.route_bundle(chunk)))
            return start

        proc = self.env.process(driver(), name="forwarder-driver")
        started_at = self.env.run(until=proc)
        milestones = [
            d.completion_milestone(d.tasks_accepted) for d in self.dispatchers
        ]
        self.env.run(until=self.env.all_of(milestones))
        return ForwarderResult(
            records=records_box,
            started_at=started_at,
            finished_at=self.env.now,
            per_dispatcher=dict(self._route_counts),
        )

    def __repr__(self) -> str:
        return f"<Forwarder dispatchers={len(self.dispatchers)} routed={self.tasks_routed}>"
