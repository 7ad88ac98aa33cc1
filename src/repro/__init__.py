"""falkon-repro: reproduction of *Falkon: a Fast and Light-weight tasK
executiON framework* (Raicu, Zhao, Dumitrescu, Foster, Wilde — SC 2007).

Layering (bottom up):

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.cluster` — simulated hardware: nodes, testbed, GPFS/local
  disks, the dispatcher JVM.
* :mod:`repro.lrm` — batch schedulers (PBS, Condor), GRAM4, MyCluster.
* :mod:`repro.net` — WS cost models and the wire codec.
* :mod:`repro.core` — Falkon itself: dispatcher, executor, provisioner,
  policies, client (simulation plane).
* :mod:`repro.live` — real threaded/TCP Falkon for this machine.
* :mod:`repro.dag` — mini-Swift workflow engine with execution providers.
* :mod:`repro.workloads` — the paper's workloads (18-stage synthetic,
  fMRI, Montage, Table 5 catalog, synthetic grid traces).
* :mod:`repro.metrics` — efficiency/speedup/utilization accounting,
  text tables, terminal plots.
* :mod:`repro.extensions` — paper roads-not-taken and future work,
  built: pre-fetching, data caching and data-aware dispatch, the
  3-tier architecture, coordinated deallocation, pure-pull polling.
* :mod:`repro.experiments` — one module per paper table/figure, plus
  CSV export (`python -m repro export`).

Quickstart (simulation plane)::

    from repro import FalkonConfig, FalkonSystem
    from repro.types import TaskSpec

    system = FalkonSystem(FalkonConfig.paper_defaults())
    system.static_pool(64)
    result = system.run_workload([TaskSpec.sleep(0) for _ in range(1000)])
    print(result.throughput, "tasks/s")

Quickstart (live plane — real processes on this machine)::

    from repro.live import LocalFalkon

    with LocalFalkon(executors=4) as falkon:
        results = falkon.map_shell(["echo hello"] * 8)

Quickstart (unified facade — one API over every deployment shape)::

    import repro

    with repro.connect("local", executors=4) as falkon:            # in-process
        results = falkon.map(specs)
    with repro.connect("falkon://a:9000,falkon://b:9000") as fed:  # federation
        results = fed.map(specs)
"""

from repro.api import FalkonClient, as_completed, connect
from repro.live.endpoint import Endpoint
from repro.config import (
    AcquisitionPolicyName,
    FalkonConfig,
    ReleasePolicyName,
    SecurityMode,
)
from repro.types import Bundle, DataLocation, DataRef, TaskResult, TaskSpec, TaskState

__version__ = "1.0.0"

__all__ = [
    "FalkonClient",
    "connect",
    "as_completed",
    "Endpoint",
    "FalkonConfig",
    "SecurityMode",
    "AcquisitionPolicyName",
    "ReleasePolicyName",
    "FalkonSystem",
    "SimDispatcher",
    "SimExecutor",
    "SimClient",
    "Provisioner",
    "TaskSpec",
    "TaskResult",
    "TaskState",
    "Bundle",
    "DataRef",
    "DataLocation",
    "__version__",
]

#: The simulation plane's names resolve on first access (PEP 562): a
#: process that only runs the live plane never imports ``repro.core``
#: and, through it, numpy.
_SIM_PLANE = frozenset(
    {"FalkonSystem", "SimDispatcher", "SimExecutor", "SimClient", "Provisioner"})


def __getattr__(name: str):
    if name in _SIM_PLANE:
        from importlib import import_module

        value = getattr(import_module("repro.core"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
