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

The rule between the planes: a live-plane process (a dispatcher, an
executor) imports neither the sim plane (:mod:`repro.sim`,
:mod:`repro.core`, :mod:`repro.net.costs`, numpy) nor the HTTP surface
(:mod:`repro.obs.httpd`, ``http.server``) until it is asked for them.
Every package ``__init__`` therefore exports its names lazily
(:func:`repro._lazy.lazy_exports`): importing a package runs none of
its modules, and reading a name imports only the module defining it.

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

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api": ("FalkonClient", "as_completed", "connect"),
    "repro.live.endpoint": ("Endpoint",),
    "repro.config": ("AcquisitionPolicyName", "FalkonConfig",
                     "ReleasePolicyName", "SecurityMode"),
    "repro.core": ("FalkonSystem", "SimDispatcher", "SimExecutor",
                   "SimClient", "Provisioner"),
    "repro.types": ("Bundle", "DataLocation", "DataRef", "TaskResult",
                    "TaskSpec", "TaskState"),
})
