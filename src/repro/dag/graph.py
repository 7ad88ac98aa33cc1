"""Task DAGs for the workflow engine.

A :class:`Workflow` is a set of tasks with dependency edges.  Tasks
become *ready* when every dependency has completed — the data-driven
model of §1 ("individual tasks wait for input to be available, perform
computation, and produce output").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import WorkflowError
from repro.types import TaskSpec

__all__ = ["TaskNode", "Workflow"]


@dataclass
class TaskNode:
    """One workflow vertex: a task spec plus its dependency ids."""

    spec: TaskSpec
    deps: tuple[str, ...] = ()

    @property
    def task_id(self) -> str:
        return self.spec.task_id


class Workflow:
    """A directed acyclic graph of tasks."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._nodes: dict[str, TaskNode] = {}
        self._dependents: dict[str, list[str]] = {}

    # -- construction --------------------------------------------------------
    def add_task(self, spec: TaskSpec, after: Iterable[str] = ()) -> TaskNode:
        """Add *spec*, depending on the task ids in *after*.

        Dependencies may be added before their targets exist; call
        :meth:`validate` once the graph is complete.
        """
        if spec.task_id in self._nodes:
            raise WorkflowError(f"duplicate task id {spec.task_id!r}")
        node = TaskNode(spec=spec, deps=tuple(after))
        self._nodes[spec.task_id] = node
        for dep in node.deps:
            self._dependents.setdefault(dep, []).append(spec.task_id)
        return node

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._nodes

    def node(self, task_id: str) -> TaskNode:
        return self._nodes[task_id]

    def tasks(self) -> list[TaskNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def dependents(self, task_id: str) -> list[str]:
        """Tasks that list *task_id* as a dependency."""
        return list(self._dependents.get(task_id, ()))

    def roots(self) -> list[TaskNode]:
        """Tasks with no dependencies (initially ready)."""
        return [node for node in self._nodes.values() if not node.deps]

    def stages(self) -> dict[str, list[TaskNode]]:
        """Nodes grouped by their spec's ``stage`` label, in insertion
        order of first appearance."""
        grouped: dict[str, list[TaskNode]] = {}
        for node in self._nodes.values():
            grouped.setdefault(node.spec.stage, []).append(node)
        return grouped

    def total_cpu_seconds(self) -> float:
        """Sum of simulated task durations."""
        return sum(node.spec.duration for node in self._nodes.values())

    # -- validation ----------------------------------------------------------
    def validate(self) -> "Workflow":
        """Check for unknown dependencies and cycles; return self."""
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise WorkflowError(
                        f"task {node.task_id!r} depends on unknown task {dep!r}"
                    )
        self.topological_order()
        return self

    def topological_order(self) -> list[TaskNode]:
        """Kahn's algorithm; raises :class:`WorkflowError` on a cycle."""
        indegree = {tid: len(node.deps) for tid, node in self._nodes.items()}
        frontier = [tid for tid, deg in indegree.items() if deg == 0]
        order: list[TaskNode] = []
        while frontier:
            tid = frontier.pop()
            order.append(self._nodes[tid])
            for dependent in self._dependents.get(tid, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    frontier.append(dependent)
        if len(order) != len(self._nodes):
            cyclic = sorted(tid for tid, deg in indegree.items() if deg > 0)
            raise WorkflowError(f"workflow contains a cycle among {cyclic[:5]}...")
        return order

    def ideal_makespan(self, processors: int) -> float:
        """Lower bound on makespan with *processors* machines.

        A list schedule over the topological order: each task starts at
        the later of (its latest dependency's finish, the earliest free
        processor).  Communication and dispatch are free — the "ideal"
        column of Tables 3–4.
        """
        if processors <= 0:
            raise ValueError("processors must be positive")
        import heapq

        # More processors than tasks is equivalent to one per task
        # (callers pass huge counts to mean "unbounded parallelism").
        processors = min(processors, max(1, len(self._nodes)))
        finish: dict[str, float] = {}
        free: list[float] = [0.0] * processors
        heapq.heapify(free)
        for node in self.topological_order():
            deps_done = max((finish[d] for d in node.deps), default=0.0)
            proc_free = heapq.heappop(free)
            start = max(deps_done, proc_free)
            end = start + node.spec.duration
            finish[node.task_id] = end
            heapq.heappush(free, end)
        return max(finish.values(), default=0.0)

    def __repr__(self) -> str:
        return f"<Workflow {self.name!r} tasks={len(self._nodes)}>"
