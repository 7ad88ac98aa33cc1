"""Execution providers: how ready tasks reach compute resources.

Three providers mirror §5.1's three measured configurations:

* :class:`FalkonProvider` — tasks go to a Falkon dispatcher ("Swift
  submitting via Falkon").
* :class:`GramProvider` — each task becomes a separate GRAM4+PBS job
  ("task submission via GRAM4+PBS").
* :class:`ClusteredGramProvider` — ready tasks are clustered into a
  bounded number of groups, each group running as one GRAM4+PBS job
  that executes its tasks sequentially ("a variant ... in which tasks
  are clustered into eight groups").
"""

from __future__ import annotations

from typing import Generator

from repro.core.dispatcher import SimDispatcher
from repro.lrm.base import LRMJob
from repro.lrm.gram import Gram4Gateway
from repro.sim import Environment, Event
from repro.types import TaskResult, TaskSpec, TaskTimeline

__all__ = [
    "ExecutionProvider",
    "FalkonProvider",
    "GramProvider",
    "ClusteredGramProvider",
]


class ExecutionProvider:
    """Submits waves of ready tasks; yields one completion event each."""

    env: Environment

    def submit_wave(self, specs: list[TaskSpec]) -> Generator:
        """Generator: submit *specs*; returns a list of events, one per
        spec (same order), each succeeding with a
        :class:`~repro.types.TaskResult`."""
        raise NotImplementedError


class FalkonProvider(ExecutionProvider):
    """Dispatch through a Falkon dispatcher.

    The provider speaks the client protocol: one bundled submit call
    per wave (Swift's Falkon provider batches ready tasks).
    """

    def __init__(self, env: Environment, dispatcher: SimDispatcher) -> None:
        self.env = env
        self.dispatcher = dispatcher

    def submit_wave(self, specs: list[TaskSpec]) -> Generator:
        if not specs:
            return []
        records = yield from self.dispatcher.accept_tasks(specs)
        return [record.completion for record in records]


class GramProvider(ExecutionProvider):
    """One GRAM4+PBS job per task (the paper's slow baseline)."""

    def __init__(self, env: Environment, gateway: Gram4Gateway) -> None:
        self.env = env
        self.gateway = gateway

    def submit_wave(self, specs: list[TaskSpec]) -> Generator:
        events: list[Event] = []
        for spec in specs:
            events.append(
                self.env.process(
                    self.gateway.run_task(spec), name=f"gram-{spec.task_id}"
                )
            )
        return events
        yield  # pragma: no cover - makes this a generator


class ClusteredGramProvider(ExecutionProvider):
    """Swift-style task clustering over GRAM4+PBS (§5.1).

    Each wave is partitioned into at most ``clusters`` groups; each
    group runs as one GRAM4 job whose body executes the group's tasks
    back-to-back.  GRAM4's pre/post overheads are paid once per group
    instead of once per task — the source of the "more than four times"
    §5.1 speedup.
    """

    def __init__(
        self,
        env: Environment,
        gateway: Gram4Gateway,
        clusters: int = 8,
        batch_window: float = 0.0,
    ) -> None:
        if clusters <= 0:
            raise ValueError("clusters must be positive")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.env = env
        self.gateway = gateway
        self.clusters = clusters
        #: Seconds to accumulate ready tasks before forming groups.
        #: DAG workflows release tasks one at a time as dependencies
        #: complete; without a window, "clusters" degenerate to single
        #: tasks.  Swift's clustering batches over time, as here.
        self.batch_window = batch_window
        self._pending: list[tuple[TaskSpec, Event]] = []
        self._flush_scheduled = False

    def submit_wave(self, specs: list[TaskSpec]) -> Generator:
        if not specs:
            return []
        events = [self.env.event() for _ in specs]
        if self.batch_window <= 0:
            self._submit_groups(list(zip(specs, events)))
        else:
            self._pending.extend(zip(specs, events))
            if not self._flush_scheduled:
                self._flush_scheduled = True
                self.env.process(self._flush_later(), name="cluster-flush")
        return events
        yield  # pragma: no cover - makes this a generator

    def _flush_later(self) -> Generator:
        yield self.env.timeout(self.batch_window)
        pending, self._pending = self._pending, []
        self._flush_scheduled = False
        if pending:
            self._submit_groups(pending)

    def _submit_groups(self, items: list[tuple[TaskSpec, Event]]) -> None:
        group_count = min(self.clusters, len(items))
        groups: list[list[tuple[TaskSpec, Event]]] = [[] for _ in range(group_count)]
        for index, item in enumerate(items):
            groups[index % group_count].append(item)
        for group in groups:
            self.env.process(
                self._run_group(group), name=f"cluster-{group[0][0].task_id}"
            )

    def _run_group(self, group: list[tuple[TaskSpec, Event]]) -> Generator:
        """Submit one clustered job and resolve per-task events."""
        cfg = self.gateway.config
        total = sum(spec.duration for spec, _event in group)
        walltime = cfg.pre_exec_overhead + total + cfg.post_exec_overhead + 3600.0
        submit_time = self.env.now

        def body(env: Environment, job: LRMJob, machines) -> Generator:
            yield env.timeout(cfg.pre_exec_overhead)
            for spec, event in group:
                timeline = TaskTimeline(
                    submitted=submit_time, dispatched=env.now, started=env.now
                )
                if spec.duration > 0:
                    yield env.timeout(spec.duration)
                timeline.completed = env.now
                event.succeed(
                    TaskResult(
                        spec.task_id,
                        executor_id=machines[0].name if machines else "",
                        timeline=timeline,
                    )
                )
            yield env.timeout(cfg.post_exec_overhead)

        job = yield from self.gateway.allocate(
            nodes=1, walltime=walltime, body=body, name="clustered-group"
        )
        final = yield job.completed
        # Any tasks whose events never fired (job killed) fail now.
        for spec, event in group:
            if not event.triggered:
                event.succeed(
                    TaskResult(
                        spec.task_id,
                        return_code=1,
                        error=f"clustered job ended {final.value} before task ran",
                    )
                )
