"""Shared task model.

The same :class:`TaskSpec` / :class:`TaskResult` pair flows through both
execution planes:

* in the **simulation plane** a task's ``duration`` and data descriptors
  drive timeout/filesystem models;
* in the **live plane** a task's ``command`` is executed by a real
  executor (subprocess or registered Python callable).

The paper's client "submit" request takes *an array of tasks, each with
working directory, command to execute, arguments, and environment
variables* and returns *an array of outputs, each with the task that
was run, its return code, and optional output strings* (§3.2); the two
dataclasses mirror that contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

__all__ = [
    "TaskState",
    "DataLocation",
    "DataRef",
    "TaskSpec",
    "TaskResult",
    "TaskTimeline",
    "Bundle",
    "new_task_id",
    "reset_task_ids",
]

_task_counter = itertools.count(1)


def new_task_id(prefix: str = "task") -> str:
    """Return a fresh process-unique task id like ``task-000042``."""
    return f"{prefix}-{next(_task_counter):06d}"


def reset_task_ids() -> None:
    """Reset the id counter (test isolation only)."""
    global _task_counter
    _task_counter = itertools.count(1)


class TaskState(Enum):
    """Lifecycle of a task as observed by the dispatcher."""

    PENDING = "pending"        # created, not yet submitted
    QUEUED = "queued"          # accepted by the dispatcher, in the wait queue
    DISPATCHED = "dispatched"  # sent to an executor
    RUNNING = "running"        # executor reported start (live plane)
    COMPLETED = "completed"    # result delivered, return code 0
    FAILED = "failed"          # result delivered, non-zero / error
    CANCELED = "canceled"      # withdrawn before completion

    @property
    def terminal(self) -> bool:
        """True for states no task ever leaves."""
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELED)


class DataLocation(Enum):
    """Where a task's data lives (Figure 4's experimental axis)."""

    SHARED = "shared"  # GPFS-like shared filesystem
    LOCAL = "local"    # compute-node local disk


@dataclass(frozen=True)
class DataRef:
    """A named piece of data a task reads or writes.

    ``size_bytes`` drives the filesystem contention model in the
    simulation plane; the live plane treats refs as opaque annotations.
    """

    name: str
    size_bytes: int
    location: DataLocation = DataLocation.SHARED

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """An executable task.

    Parameters
    ----------
    task_id:
        Unique, non-empty string id; autogenerate with :func:`new_task_id`.
    command:
        Executable (live plane) or a label (simulation plane).
    args:
        Command arguments.
    working_dir, env:
        Execution context, per the paper's submit contract.
    duration:
        Simulated execution time in seconds (simulation plane only).
    reads, writes:
        Data the task stages in/out (Figure 4 experiments, data-aware
        dispatch extension).
    runtime_estimate:
        Client-provided estimate enabling dispatcher→executor bundling
        (§3.4 notes bundling "cannot always be used" without estimates).
    stage:
        Workflow stage label (used by the DAG engine and reports).
    """

    task_id: str
    command: str = "sleep"
    args: tuple[str, ...] = ()
    working_dir: str = "."
    env: tuple[tuple[str, str], ...] = ()
    duration: float = 0.0
    reads: tuple[DataRef, ...] = ()
    writes: tuple[DataRef, ...] = ()
    runtime_estimate: Optional[float] = None
    stage: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.task_id, str):
            raise TypeError(f"task_id must be a string, got {type(self.task_id).__name__}")
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.duration < 0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")

    @classmethod
    def sleep(cls, seconds: float, task_id: Optional[str] = None, stage: str = "") -> "TaskSpec":
        """The paper's canonical micro-benchmark task: ``sleep N``."""
        return cls(
            task_id=task_id or new_task_id(),
            command="sleep",
            args=(str(seconds),),
            duration=float(seconds),
            stage=stage,
        )

    def with_id(self, task_id: str) -> "TaskSpec":
        """Copy of this spec under a different id."""
        return replace(self, task_id=task_id)

    @property
    def total_read_bytes(self) -> int:
        return sum(ref.size_bytes for ref in self.reads)

    @property
    def total_write_bytes(self) -> int:
        return sum(ref.size_bytes for ref in self.writes)


@dataclass(slots=True)
class TaskTimeline:
    """Timestamps collected along a task's life (all in seconds).

    In the simulation plane these are simulated times; in the live
    plane they are ``time.monotonic()`` readings.  Derived quantities
    match the paper's definitions: *queue time* is submission→dispatch
    (it includes provisioning waits, §4.6), *execution time* is
    dispatch→completion.
    """

    submitted: float = math.nan
    dispatched: float = math.nan
    started: float = math.nan
    completed: float = math.nan

    @property
    def queue_time(self) -> float:
        return self.dispatched - self.submitted

    @property
    def execution_time(self) -> float:
        return self.completed - self.dispatched

    @property
    def total_time(self) -> float:
        return self.completed - self.submitted


@dataclass(slots=True)
class TaskResult:
    """Outcome of one task execution."""

    task_id: str
    return_code: int = 0
    stdout: str = ""
    stderr: str = ""
    executor_id: str = ""
    error: str = ""
    attempts: int = 1
    timeline: TaskTimeline = field(default_factory=TaskTimeline)

    @property
    def ok(self) -> bool:
        """True when the task completed with return code 0 and no error."""
        return self.return_code == 0 and not self.error


@dataclass(frozen=True)
class Bundle:
    """A batch of tasks submitted in one client→dispatcher message.

    §3.4: client–dispatcher bundling amortises the per-message cost;
    performance degrades past ~300 tasks per bundle because of the
    serializer's grow-able array (modelled in `repro.net.costs`).
    """

    tasks: tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a bundle must contain at least one task")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("bundle contains duplicate task ids")

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @staticmethod
    def split(tasks: list[TaskSpec], bundle_size: int) -> list["Bundle"]:
        """Partition *tasks* into bundles of at most *bundle_size*."""
        if bundle_size <= 0:
            raise ValueError("bundle_size must be positive")
        return [
            Bundle(tuple(tasks[i : i + bundle_size]))
            for i in range(0, len(tasks), bundle_size)
        ]
