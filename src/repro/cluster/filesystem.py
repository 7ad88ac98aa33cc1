"""Filesystem contention models (Figure 4 substrate).

Two models:

* :class:`SharedFileSystem` — a GPFS-like shared filesystem with a
  fixed number of I/O servers (the paper's testbed had eight), an
  aggregate read bandwidth, an aggregate write bandwidth, and a global
  write-operation ceiling.  The write-op ceiling reproduces the paper's
  observation that *GPFS read+write could not exceed 150 tasks/s even
  at 1-byte data sizes* — the shared filesystem "is unable to support
  many write operations from 128 concurrent processors".
* :class:`LocalDisk` — per-node disk with per-node bandwidth and no
  cross-node contention (the LOCAL curves in Figure 4).

Both expose generator methods designed for ``yield from`` inside a
simulation process::

    def task_body(env, fs):
        yield from fs.read(env, nbytes)     # blocks for contention + transfer
        yield from fs.write(env, nbytes)

Calibration (Figure 4 plateaus, megabits/s): GPFS read 3 067;
GPFS read+write 326 combined ⇒ write path ≈ 366; LOCAL read
52 015 over 64 nodes ⇒ 813 per node; LOCAL read+write 32 667
⇒ combined 510 per node ⇒ write path ≈ 1 368 per node.
"""

from __future__ import annotations

from repro.sim import Environment, Resource

__all__ = ["SharedFileSystem", "LocalDisk", "gpfs_model", "local_disk_model"]

_MBIT = 1e6  # bits


class SharedFileSystem:
    """GPFS-like shared filesystem.

    Parameters
    ----------
    env:
        Simulation environment.
    read_bandwidth_mbps, write_bandwidth_mbps:
        Aggregate bandwidths in megabits/second across all I/O servers.
    io_servers:
        Number of I/O server nodes; at most this many transfers stream
        concurrently, each at ``aggregate/io_servers``.
    write_op_rate:
        Global ceiling on write *operations* per second (metadata and
        token contention, independent of size).
    read_op_latency:
        Fixed per-read-operation latency in seconds.
    """

    def __init__(
        self,
        env: Environment,
        read_bandwidth_mbps: float = 3067.0,
        write_bandwidth_mbps: float = 366.0,
        io_servers: int = 8,
        write_op_rate: float = 150.0,
        read_op_latency: float = 0.005,
    ) -> None:
        if read_bandwidth_mbps <= 0 or write_bandwidth_mbps <= 0:
            raise ValueError("bandwidths must be positive")
        if io_servers <= 0:
            raise ValueError("io_servers must be positive")
        if write_op_rate <= 0:
            raise ValueError("write_op_rate must be positive")
        self.env = env
        self.read_bandwidth_mbps = read_bandwidth_mbps
        self.write_bandwidth_mbps = write_bandwidth_mbps
        self.io_servers = io_servers
        self.write_op_rate = write_op_rate
        self.read_op_latency = read_op_latency
        self._read_servers = Resource(env, capacity=io_servers)
        self._write_servers = Resource(env, capacity=io_servers)
        # Write-op token service: strictly serialised at write_op_rate.
        self._write_op_gate = Resource(env, capacity=1)
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0

    # -- per-stream rates --------------------------------------------------
    @property
    def read_stream_mbps(self) -> float:
        """Bandwidth one streaming reader gets (aggregate / servers)."""
        return self.read_bandwidth_mbps / self.io_servers

    @property
    def write_stream_mbps(self) -> float:
        return self.write_bandwidth_mbps / self.io_servers

    # -- access generators ---------------------------------------------------
    def read(self, env: Environment, nbytes: int):
        """Generator: block for read contention + transfer of *nbytes*."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._read_servers.request() as slot:
            yield slot
            transfer = (8.0 * nbytes) / (self.read_stream_mbps * _MBIT)
            yield env.timeout(self.read_op_latency + transfer)
        self.bytes_read += nbytes
        self.read_ops += 1

    def write(self, env: Environment, nbytes: int):
        """Generator: block for the write-op gate, then the transfer."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        # Global write-op ceiling: one token service per operation.
        with self._write_op_gate.request() as token:
            yield token
            yield env.timeout(1.0 / self.write_op_rate)
        with self._write_servers.request() as slot:
            yield slot
            transfer = (8.0 * nbytes) / (self.write_stream_mbps * _MBIT)
            yield env.timeout(transfer)
        self.bytes_written += nbytes
        self.write_ops += 1

    def __repr__(self) -> str:
        return (
            f"<SharedFileSystem read={self.read_bandwidth_mbps}Mb/s "
            f"write={self.write_bandwidth_mbps}Mb/s servers={self.io_servers}>"
        )


class LocalDisk:
    """Per-node local disks: no cross-node contention.

    One instance models the whole cluster's local disks; accesses name
    the node so that two executors on the *same* node share that node's
    disk while different nodes proceed independently.
    """

    def __init__(
        self,
        env: Environment,
        read_bandwidth_mbps: float = 813.0,
        write_bandwidth_mbps: float = 1368.0,
        op_latency: float = 0.0005,
    ) -> None:
        if read_bandwidth_mbps <= 0 or write_bandwidth_mbps <= 0:
            raise ValueError("bandwidths must be positive")
        self.env = env
        self.read_bandwidth_mbps = read_bandwidth_mbps
        self.write_bandwidth_mbps = write_bandwidth_mbps
        self.op_latency = op_latency
        self._node_disks: dict[str, Resource] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def _disk(self, node: str) -> Resource:
        disk = self._node_disks.get(node)
        if disk is None:
            disk = Resource(self.env, capacity=1)
            self._node_disks[node] = disk
        return disk

    def read(self, env: Environment, nbytes: int, node: str = "node0"):
        """Generator: read *nbytes* from *node*'s local disk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._disk(node).request() as slot:
            yield slot
            transfer = (8.0 * nbytes) / (self.read_bandwidth_mbps * _MBIT)
            yield env.timeout(self.op_latency + transfer)
        self.bytes_read += nbytes

    def write(self, env: Environment, nbytes: int, node: str = "node0"):
        """Generator: write *nbytes* to *node*'s local disk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._disk(node).request() as slot:
            yield slot
            transfer = (8.0 * nbytes) / (self.write_bandwidth_mbps * _MBIT)
            yield env.timeout(self.op_latency + transfer)
        self.bytes_written += nbytes

    def __repr__(self) -> str:
        return (
            f"<LocalDisk read={self.read_bandwidth_mbps}Mb/s/node "
            f"write={self.write_bandwidth_mbps}Mb/s/node>"
        )


def gpfs_model(env: Environment) -> SharedFileSystem:
    """The paper testbed's GPFS: eight I/O nodes, Figure 4 calibration."""
    return SharedFileSystem(env)


def local_disk_model(env: Environment) -> LocalDisk:
    """The paper testbed's compute-node local disks (Figure 4 calibration)."""
    return LocalDisk(env)
