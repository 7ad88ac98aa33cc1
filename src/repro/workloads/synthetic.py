"""Synthetic sleep-task workloads (§4.1–§4.5 microbenchmarks)."""

from __future__ import annotations

from repro.types import DataLocation, DataRef, TaskSpec

__all__ = ["sleep_workload", "uniform_workload", "data_workload"]


def sleep_workload(n: int, seconds: float = 0.0, prefix: str = "sleep") -> list[TaskSpec]:
    """*n* ``sleep seconds`` tasks — the paper's canonical benchmark."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [TaskSpec.sleep(seconds, task_id=f"{prefix}-{i:07d}") for i in range(n)]


def uniform_workload(
    n: int, seconds: float, stage: str = "", prefix: str = "task"
) -> list[TaskSpec]:
    """*n* equal-length tasks tagged with a stage label."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [
        TaskSpec.sleep(seconds, task_id=f"{prefix}-{i:07d}", stage=stage) for i in range(n)
    ]


def data_workload(
    n: int,
    data_bytes: int,
    location: DataLocation,
    write: bool,
    compute_seconds: float = 0.0,
    prefix: str = "io",
) -> list[TaskSpec]:
    """The §4.2 data-access tasks: read *data_bytes* (and optionally
    write the same amount) from the given location around a compute
    phase."""
    if n <= 0:
        raise ValueError("n must be positive")
    if data_bytes < 0:
        raise ValueError("data_bytes must be >= 0")
    tasks = []
    for i in range(n):
        reads = (DataRef(f"{prefix}-{i}-in", data_bytes, location),)
        writes = (
            (DataRef(f"{prefix}-{i}-out", data_bytes, location),) if write else ()
        )
        tasks.append(
            TaskSpec(
                task_id=f"{prefix}-{i:06d}",
                command="stage-and-compute",
                duration=compute_seconds,
                reads=reads,
                writes=writes,
            )
        )
    return tasks
