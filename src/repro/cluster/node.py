"""Compute nodes and clusters (simulation plane).

A :class:`Cluster` is the unit an LRM schedules over: a pool of
:class:`Machine` instances, each with a number of processor slots.
The paper assumes "a one-to-one mapping between executors and
processors in all experiments" (§4), so an executor occupies one
processor slot for its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.sim import Environment

__all__ = ["NodeSpec", "ClusterSpec", "Machine", "Cluster"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node model (a Table 1 row)."""

    processors: int = 2
    cpu_ghz: float = 2.4
    memory_gb: float = 4.0
    network_mbps: float = 1000.0

    def __post_init__(self) -> None:
        if self.processors <= 0:
            raise ValueError("processors must be positive")
        if self.cpu_ghz <= 0 or self.memory_gb <= 0 or self.network_mbps <= 0:
            raise ValueError("node characteristics must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a whole platform (a Table 1 row)."""

    name: str
    nodes: int
    node: NodeSpec

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError("a cluster needs at least one node")

    @property
    def total_processors(self) -> int:
        return self.nodes * self.node.processors


class Machine:
    """One compute node at run time: processor slots plus bookkeeping."""

    def __init__(self, name: str, spec: NodeSpec) -> None:
        self.name = name
        self.spec = spec
        self._busy_processors = 0
        #: Set when an LRM has allocated this machine to a job.
        self.allocated_to: Optional[str] = None

    @property
    def free_processors(self) -> int:
        return self.spec.processors - self._busy_processors

    def occupy(self, count: int = 1) -> None:
        """Mark *count* processors busy (an executor or LRM job start)."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_processors:
            raise RuntimeError(
                f"{self.name}: requested {count} processors, only {self.free_processors} free"
            )
        self._busy_processors += count

    def vacate(self, count: int = 1) -> None:
        """Release *count* previously occupied processors."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self._busy_processors:
            raise RuntimeError(f"{self.name}: vacating {count} but only {self._busy_processors} busy")
        self._busy_processors -= count

    def __repr__(self) -> str:
        return f"<Machine {self.name} {self._busy_processors}/{self.spec.processors} busy>"


class Cluster:
    """A runtime pool of machines, the substrate an LRM manages.

    ``free_limit`` caps how many nodes are actually obtainable: the
    paper notes that of the 162 TG_ANL nodes only 128 were free for
    the experiments.
    """

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        free_limit: Optional[int] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        if free_limit is not None and not 0 <= free_limit <= spec.nodes:
            raise ValueError("free_limit must lie in [0, nodes]")
        self.free_limit = spec.nodes if free_limit is None else free_limit
        self.machines = [Machine(f"{spec.name}-n{i:04d}", spec.node) for i in range(spec.nodes)]

    @property
    def name(self) -> str:
        return self.spec.name

    def allocatable_machines(self) -> Iterator[Machine]:
        """Machines currently unallocated, respecting ``free_limit``."""
        budget = self.free_limit - self.allocated_count()
        for machine in self.machines:
            if budget <= 0:
                return
            if machine.allocated_to is None:
                budget -= 1
                yield machine

    def allocated_count(self) -> int:
        """Number of machines currently allocated to some job."""
        return sum(1 for m in self.machines if m.allocated_to is not None)

    def free_count(self) -> int:
        """Number of machines an LRM could still hand out."""
        return max(0, self.free_limit - self.allocated_count())

    def allocate(self, count: int, owner: str) -> list[Machine]:
        """Atomically claim *count* machines for *owner*.

        Raises ``RuntimeError`` when fewer than *count* are free; the
        LRM layer is responsible for queueing instead of over-claiming.
        """
        chosen = []
        for machine in self.allocatable_machines():
            chosen.append(machine)
            if len(chosen) == count:
                break
        if len(chosen) < count:
            raise RuntimeError(
                f"{self.name}: wanted {count} machines, only {self.free_count()} free"
            )
        for machine in chosen:
            machine.allocated_to = owner
        return chosen

    def release(self, machines: list[Machine]) -> None:
        """Return machines claimed by :meth:`allocate`."""
        for machine in machines:
            if machine.allocated_to is None:
                raise RuntimeError(f"{machine.name} is not allocated")
            machine.allocated_to = None

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.name} nodes={self.spec.nodes} "
            f"allocated={self.allocated_count()} free={self.free_count()}>"
        )
