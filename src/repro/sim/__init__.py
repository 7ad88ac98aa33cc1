"""Discrete-event simulation kernel.

This subpackage is a self-contained, generator-coroutine discrete-event
simulation (DES) kernel in the style of SimPy.  It is the substrate on
which every simulated Falkon experiment runs: simulated clusters, batch
schedulers, the Falkon dispatcher/executor/provisioner, filesystems and
the JVM garbage-collection model are all `Process`es scheduled by an
`Environment`.

Why implement our own kernel rather than depend on SimPy?  The
reproduction must be fully self-contained (no network installs), and the
paper's experiments need a few non-standard hooks — notably cheap
time-series probes sampled at event granularity (`repro.sim.monitor`)
and deterministic seeded random streams per component
(`repro.sim.rng`).

Public API
----------

==============================  ==============================================
:class:`Environment`            event loop: ``now``, ``run``, ``process``,
                                ``timeout``, ``event``, ``all_of``, ``any_of``
:class:`Event`                  manually-triggered event
:class:`Timeout`                delay event
:class:`Process`                generator coroutine driven by the loop
:class:`Interrupt`              exception thrown into interrupted processes
:class:`Resource`               capacity-limited resource with FIFO queue
:class:`PriorityResource`       resource whose queue orders by priority
:class:`Container`              continuous level (e.g. bandwidth tokens)
:class:`Store`                  FIFO object store (queues, mailboxes)
:class:`FilterStore`            store with predicate-based ``get``
:class:`PriorityStore`          store yielding smallest item first
:class:`TimeSeries`             (time, value) probe for experiment figures
:class:`Gauge`                  instantaneous-value probe with step samples
:class:`RngStreams`             named, independently seeded RNG streams
==============================  ==============================================
"""

from repro._lazy import lazy_exports

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Interrupt",
    "StopSimulation",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Condition",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "PriorityStore",
    "TimeSeries",
    "Gauge",
    "Counter",
    "moving_average",
    "RngStreams",
    "TraceEvent",
    "Tracer",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.core": ("Environment", "Event", "Process", "Interrupt",
                       "StopSimulation"),
    "repro.sim.events": ("Timeout", "AllOf", "AnyOf", "Condition"),
    "repro.sim.resources": ("Resource", "PriorityResource", "Container"),
    "repro.sim.store": ("Store", "FilterStore", "PriorityStore"),
    "repro.sim.monitor": ("TimeSeries", "Gauge", "Counter", "moving_average"),
    "repro.sim.rng": ("RngStreams",),
    "repro.sim.tracing": ("TraceEvent", "Tracer"),
})
