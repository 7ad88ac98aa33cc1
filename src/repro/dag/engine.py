"""The ready-task scheduler.

The engine walks a :class:`~repro.dag.graph.Workflow`, submitting every
task whose dependencies are satisfied to an execution provider, exactly
as Swift/Karajan feed Falkon or GRAM4 (§5).  Failed tasks fail their
transitive dependents (no partial re-execution — Swift's restart logs
are out of scope; the paper's runs assume success).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.dag.graph import TaskNode, Workflow
from repro.dag.providers import ExecutionProvider
from repro.sim import Environment, Store
from repro.types import TaskResult

__all__ = ["WorkflowRunResult", "WorkflowEngine"]


@dataclass
class WorkflowRunResult:
    """Outcome of one workflow execution."""

    workflow: Workflow
    results: dict[str, TaskResult]
    started_at: float
    finished_at: float
    #: Wall-clock when each stage's last task completed.
    stage_finish: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return len(self.results) == len(self.workflow) and all(
            r.ok for r in self.results.values()
        )

    def stage_elapsed(self) -> dict[str, float]:
        """Per-stage elapsed time: previous stage's finish → this one's.

        Stages are taken in workflow insertion order, which for the
        paper's pipelines is also execution order.
        """
        elapsed: dict[str, float] = {}
        prev = self.started_at
        for stage in self.workflow.stages():
            end = self.stage_finish.get(stage, prev)
            elapsed[stage] = max(0.0, end - prev)
            prev = max(prev, end)
        return elapsed


class WorkflowEngine:
    """Executes workflows over an :class:`ExecutionProvider`."""

    def __init__(self, env: Environment, provider: ExecutionProvider) -> None:
        self.env = env
        self.provider = provider

    def run(self, workflow: Workflow, checkpoint=None) -> Generator:
        """Generator: execute *workflow*; returns a
        :class:`WorkflowRunResult`.  Use as
        ``result = yield env.process(engine.run(wf))`` or via
        :meth:`run_to_completion`.

        With a :class:`~repro.dag.checkpoint.WorkflowCheckpoint`, tasks
        already recorded are skipped (their recorded results are
        returned) and fresh completions are recorded — Swift-style
        restart semantics.
        """
        workflow.validate()
        started_at = self.env.now
        results: dict[str, TaskResult] = {}
        stage_finish: dict[str, float] = {}
        remaining_deps = {node.task_id: len(node.deps) for node in workflow.tasks()}
        failed_skipped: set[str] = set()
        mailbox: Store = Store(self.env)

        already_done: set[str] = set()
        if checkpoint is not None:
            already_done = {
                tid for tid in checkpoint.completed_ids() if tid in workflow
            }
            for tid in already_done:
                results[tid] = checkpoint.result(tid)
            for tid in already_done:
                for dep_id in workflow.dependents(tid):
                    remaining_deps[dep_id] -= 1

        def watch(node: TaskNode, completion) -> Generator:
            result = yield completion
            yield mailbox.put((node, result))

        def submit(nodes: list[TaskNode]) -> Generator:
            events = yield from self.provider.submit_wave([n.spec for n in nodes])
            for node, event in zip(nodes, events):
                self.env.process(watch(node, event), name=f"watch-{node.task_id}")

        def skip_dependents(task_id: str) -> None:
            for dep_id in workflow.dependents(task_id):
                if dep_id in failed_skipped:
                    continue
                failed_skipped.add(dep_id)
                results[dep_id] = TaskResult(
                    dep_id, return_code=1, error=f"dependency {task_id} failed"
                )
                skip_dependents(dep_id)

        ready = [
            node
            for node in workflow.tasks()
            if remaining_deps[node.task_id] == 0 and node.task_id not in already_done
        ]
        outstanding = 0
        if ready:
            outstanding += len(ready)
            yield from submit(ready)

        while outstanding > 0:
            node, result = yield mailbox.get()
            outstanding -= 1
            results[node.task_id] = result
            stage_finish[node.spec.stage] = self.env.now
            if checkpoint is not None:
                checkpoint.record(result)
            if not result.ok:
                skip_dependents(node.task_id)
            newly_ready: list[TaskNode] = []
            for dep_id in workflow.dependents(node.task_id):
                remaining_deps[dep_id] -= 1
                if remaining_deps[dep_id] == 0 and dep_id not in failed_skipped:
                    newly_ready.append(workflow.node(dep_id))
            if newly_ready:
                outstanding += len(newly_ready)
                yield from submit(newly_ready)

        return WorkflowRunResult(
            workflow=workflow,
            results=results,
            started_at=started_at,
            finished_at=self.env.now,
            stage_finish=stage_finish,
        )

    def run_to_completion(self, workflow: Workflow, checkpoint=None) -> WorkflowRunResult:
        """Run the simulation until *workflow* finishes; return results."""
        proc = self.env.process(
            self.run(workflow, checkpoint=checkpoint), name=f"engine-{workflow.name}"
        )
        return self.env.run(until=proc)
