"""One-line local Falkon deployments.

:class:`LocalFalkon` stands up a dispatcher, an executor pool (fixed or
provisioned) and a client on this machine — the quickest way to run
real commands through the Falkon protocol::

    with LocalFalkon(executors=4) as falkon:
        results = falkon.map_shell(["echo hello", "uname -s"])
"""

from __future__ import annotations

import shlex
from typing import Optional, TYPE_CHECKING

from repro.config import SecurityMode
from repro.live.client import LiveClient
from repro.live.dispatcher import LiveDispatcher
from repro.live.executor import LiveExecutor, PythonRegistry
from repro.live.provisioner import LocalProvisioner
from repro.types import TaskResult, TaskSpec, new_task_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.faults import FaultPlan

__all__ = ["LocalFalkon"]


class LocalFalkon:
    """A complete in-process Falkon deployment.

    Parameters
    ----------
    executors:
        Size of the fixed executor pool (ignored when ``provision``).
    provision:
        Use a :class:`LocalProvisioner` (adaptive pool) instead of a
        fixed pool.
    security:
        ``GSI_SECURE_CONVERSATION`` signs every frame with a shared key.
    python_registry:
        Named Python callables executable as ``python:<name>`` tasks.
    heartbeat_interval:
        Enable the liveness protocol: executors heartbeat on this
        period and the dispatcher evicts agents silent for
        ``heartbeat_interval * heartbeat_miss_budget`` seconds.
    replay_timeout:
        Re-dispatch tasks whose response never arrives (lost frames).
    fault_plan:
        A :class:`repro.live.faults.FaultPlan` installed on the
        dispatcher's executor-facing connections for chaos runs.
    pipeline_depth:
        Tasks an executor may hold locally beyond the running one
        (§3.4 piggy-backing extended to bounded pipelining); 1 is
        one task per exchange.
    http_port:
        Start the dispatcher's HTTP status surface on this port
        (``0`` picks a free one; ``None`` — the default — keeps HTTP
        off).  Endpoints: ``/metrics``, ``/status``, ``/tasks/<id>``.
    events_out:
        Follow the dispatcher's flight ring to this JSONL path, one
        line per event (``repro events replay`` reads it back).
    journal_dir:
        Directory for the dispatcher's crash-safe journal; a directory
        holding state from a previous run is recovered on boot
        (``docs/RELIABILITY.md``).  ``None`` keeps durability off.
    queue_limit:
        Bound the dispatcher's ready queue; overflowing SUBMIT bundles
        get SUBMIT_REJECT backpressure (the client resubmits with
        capped backoff).
    journal_compact_every:
        Journal tail records between snapshot compactions (low values
        make endurance runs cycle compaction continuously).
    retain_settled:
        Keep at most this many acked, settled, non-DLQ task records in
        memory and in journal snapshots; ``None`` (default) retains
        everything.  Endurance runs set a cap so RSS and compaction
        cost stay flat at millions of tasks.
    flight_dump_dir:
        Where crash/SIGTERM/manual dumps of the components' flight
        recorders (bounded event rings, :mod:`repro.obs.flight`) land;
        ``None`` falls back to a per-PID directory under the system
        tempdir.
    """

    def __init__(
        self,
        executors: int = 2,
        provision: bool = False,
        max_executors: int = 8,
        idle_timeout: float = 60.0,
        security: SecurityMode = SecurityMode.NONE,
        python_registry: Optional[PythonRegistry] = None,
        bundle_size: int = 300,
        max_retries: int = 3,
        heartbeat_interval: Optional[float] = None,
        heartbeat_miss_budget: int = 3,
        replay_timeout: Optional[float] = None,
        fault_plan: Optional["FaultPlan"] = None,
        pipeline_depth: int = 1,
        http_port: Optional[int] = None,
        events_out: Optional[str] = None,
        journal_dir: Optional[str] = None,
        queue_limit: Optional[int] = None,
        journal_compact_every: int = 50_000,
        retain_settled: Optional[int] = None,
        flight_dump_dir: Optional[str] = None,
    ) -> None:
        if executors <= 0:
            raise ValueError("executors must be positive")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        key =b"local-falkon-shared-key" if security is SecurityMode.GSI_SECURE_CONVERSATION else None
        self.dispatcher = LiveDispatcher(
            key=key,
            max_retries=max_retries,
            heartbeat_interval=heartbeat_interval,
            heartbeat_miss_budget=heartbeat_miss_budget,
            replay_timeout=replay_timeout,
            fault_plan=fault_plan,
            journal_dir=journal_dir,
            queue_limit=queue_limit,
            journal_compact_every=journal_compact_every,
            retain_settled=retain_settled,
            flight_dump_dir=flight_dump_dir,
        )
        if events_out is not None:
            # Before any peer connects; the ring already holds a
            # journal recovery's event, and the follow writes it first.
            self.dispatcher.flight.follow(events_out)
        self.http = None
        self.python_registry = python_registry or {}
        self.executors: list[LiveExecutor] = []
        self.provisioner: Optional[LocalProvisioner] = None
        if provision:
            self.provisioner = LocalProvisioner(
                self.dispatcher.endpoint,
                key=key,
                max_executors=max_executors,
                idle_timeout=idle_timeout,
                executor_factory=lambda **kw: LiveExecutor(
                    self.dispatcher.endpoint,
                    key=key,
                    python_registry=self.python_registry,
                    heartbeat_interval=heartbeat_interval,
                    pipeline=pipeline_depth,
                    **kw,
                ),
            ).start()
        else:
            for _ in range(executors):
                executor = LiveExecutor(
                    self.dispatcher.endpoint,
                    key=key,
                    python_registry=self.python_registry,
                    heartbeat_interval=heartbeat_interval,
                    pipeline=pipeline_depth,
                ).start()
                self.executors.append(executor)
            for executor in self.executors:
                executor.wait_registered()
        self.client = LiveClient(self.dispatcher.endpoint, key=key,
                                 bundle_size=bundle_size)
        if http_port is not None:
            # Started last: the registries closure re-reads the pool on
            # every scrape, so provisioned executors appear without
            # re-registering.
            self.http = self.dispatcher.serve_http(
                port=http_port, registries_fn=self.metrics_registries
            )

    # -- convenience API ------------------------------------------------------
    def run(self, tasks: list[TaskSpec], timeout: Optional[float] = None) -> list[TaskResult]:
        """Submit specs and wait for all results."""
        return self.client.run(tasks, timeout=timeout)

    # FalkonClient protocol surface (docs/API.md): LocalFalkon, LiveClient
    # and ShardRouter are interchangeable behind repro.connect().
    def submit(self, tasks):
        """Submit specs without waiting; returns one future per spec."""
        return self.client.submit(tasks)

    def map(self, tasks: list[TaskSpec], timeout: Optional[float] = None) -> list[TaskResult]:
        """Alias of :meth:`run` (FalkonClient protocol name)."""
        return self.run(tasks, timeout=timeout)

    def as_completed(self, futures, timeout: Optional[float] = None):
        """Yield futures as they settle (see :func:`repro.api.as_completed`)."""
        from repro.api import as_completed

        return as_completed(futures, timeout=timeout)

    def shutdown(self) -> None:
        """Alias of :meth:`close` (FalkonClient protocol name)."""
        self.close()

    def map_shell(self, commands: list[str], timeout: Optional[float] = None) -> list[TaskResult]:
        """Run shell command lines (tokenised with shlex, no shell)."""
        tasks = []
        for command in commands:
            parts = shlex.split(command)
            if not parts:
                raise ValueError("empty command line")
            tasks.append(
                TaskSpec(task_id=new_task_id("shell"), command=parts[0], args=tuple(parts[1:]))
            )
        return self.run(tasks, timeout=timeout)

    def map_python(
        self, name: str, arg_tuples: list[tuple], timeout: Optional[float] = None
    ) -> list[TaskResult]:
        """Run the registered python task *name* over argument tuples."""
        if name not in self.python_registry:
            raise KeyError(f"python task {name!r} not registered")
        tasks = [
            TaskSpec(
                task_id=new_task_id(f"py-{name}"),
                command=f"python:{name}",
                args=tuple(str(a) for a in args),
            )
            for args in arg_tuples
        ]
        return self.run(tasks, timeout=timeout)

    # -- observability --------------------------------------------------------
    def trace(self, task_id: str):
        """The dispatcher's span chain for *task_id* (see :mod:`repro.obs`)."""
        return self.dispatcher.trace(task_id)

    def metrics_registries(self):
        """Every metrics registry in this deployment, dispatcher first."""
        registries = [self.dispatcher.metrics]
        registries.extend(e.metrics for e in self.executors)
        if self.provisioner is not None:
            registries.append(self.provisioner.metrics)
        return registries

    def dump_observability(self, out_dir) -> list:
        """Export metrics + spans under *out_dir*; returns written paths."""
        from repro.obs import dump_observability

        return dump_observability(
            out_dir, self.metrics_registries(), self.dispatcher.spans
        )

    def dump_flight(self, directory=None, reason: str = "manual") -> list[str]:
        """Flush every component's flight recorder to *directory*.

        One dump file per component (dispatcher, each executor, the
        client); returns the written paths.  ``None`` uses the
        dispatcher's configured (or default per-PID tempdir) dump
        directory so every component's dump lands in one place.
        """
        if directory is None:
            directory = self.dispatcher.flight_dump_directory()
        paths = [self.dispatcher.dump_flight(reason=reason, directory=directory)]
        paths += [executor.flight.dump_to_dir(directory, reason=reason)
                  for executor in self.executors]
        paths.append(self.client.flight.dump_to_dir(directory, reason=reason))
        return paths

    def close(self) -> None:
        if self.provisioner is not None:
            self.provisioner.stop()
        for executor in self.executors:
            executor.stop()
        self.client.close()
        for executor in self.executors:
            executor.join(timeout=5.0)
        self.dispatcher.close()

    def __enter__(self) -> "LocalFalkon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<LocalFalkon {self.dispatcher!r}>"
