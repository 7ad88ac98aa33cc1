"""Tables 3–4 and Figures 12–13: dynamic resource provisioning (§4.6).

The 18-stage synthetic workload (Figure 11) is run under six
configurations, exactly as the paper lists them:

* **GRAM4+PBS** — every task a separate GRAM4 job, ~100 machines free;
* **Falkon-15/60/120/180** — dynamic provisioning, all-at-once
  acquisition, distributed idle release at 15/60/120/180 s, at most 32
  machines;
* **Falkon-∞** — 32 machines provisioned before the workload starts
  (that time excluded, as in the paper) and retained throughout.

Outputs per configuration: average per-task queue/execution times and
the execution-time fraction (Table 3); time-to-complete, resource
utilization, execution efficiency and allocation count (Table 4); the
allocated/registered/active executor time series (Figures 12–13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.config import FalkonConfig
from repro.core.system import FalkonSystem
from repro.lrm.gram import Gram4Gateway
from repro.lrm.pbs import make_pbs
from repro.cluster.node import Cluster, ClusterSpec, NodeSpec
from repro.metrics.accounting import execution_efficiency, resource_utilization
from repro.sim import Environment, TimeSeries
from repro.types import TaskResult
from repro.workloads.stages18 import (
    STAGE_DURATIONS,
    STAGE_TASK_COUNTS,
    ideal_makespan_sequential,
    stage18_stage_lists,
)

__all__ = [
    "ProvisioningOutcome",
    "PROVISIONING_CONFIGS",
    "run_provisioning",
    "ideal_outcome",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
]

PROVISIONING_CONFIGS = (
    "GRAM4+PBS",
    "Falkon-15",
    "Falkon-60",
    "Falkon-120",
    "Falkon-180",
    "Falkon-inf",
)

#: Table 3 as printed (queue time, execution time, execution %).
PAPER_TABLE3 = {
    "GRAM4+PBS": (611.1, 56.5, 0.085),
    "Falkon-15": (87.3, 17.9, 0.170),
    "Falkon-60": (83.9, 17.9, 0.176),
    "Falkon-120": (74.7, 17.9, 0.193),
    "Falkon-180": (44.4, 17.9, 0.287),
    "Falkon-inf": (43.5, 17.9, 0.292),
    "Ideal": (42.2, 17.8, 0.297),
}

#: Table 4 as printed (time to complete, utilization, efficiency, allocations).
PAPER_TABLE4 = {
    "GRAM4+PBS": (4904.0, 0.30, 0.26, 1000),
    "Falkon-15": (1754.0, 0.89, 0.72, 11),
    "Falkon-60": (1680.0, 0.75, 0.75, 9),
    "Falkon-120": (1507.0, 0.65, 0.84, 7),
    "Falkon-180": (1484.0, 0.59, 0.85, 6),
    "Falkon-inf": (1276.0, 0.44, 0.99, 0),
    "Ideal": (1260.0, 1.00, 1.00, 0),
}

USED_CPU_SECONDS = float(sum(c * d for c, d in zip(STAGE_TASK_COUNTS, STAGE_DURATIONS)))


@dataclass
class ProvisioningOutcome:
    """Everything Tables 3–4 and Figures 12–13 need for one config."""

    label: str
    makespan: float
    mean_queue_time: float
    mean_execution_time: float
    execution_fraction: float
    resources_used: float
    resources_wasted: float
    utilization: float
    exec_efficiency: float
    allocations: int
    allocated_series: Optional[TimeSeries] = None
    registered_series: Optional[TimeSeries] = None
    active_series: Optional[TimeSeries] = None


def ideal_outcome(machines: int = 32) -> ProvisioningOutcome:
    """The paper's 'Ideal (32 nodes)' column, computed from the
    workload's wave structure."""
    ideal_time = ideal_makespan_sequential(machines)
    # Per-task ideal queue time: tasks beyond the first wave of a stage
    # wait whole waves of that stage's duration.
    total_wait = 0.0
    for count, duration in zip(STAGE_TASK_COUNTS, STAGE_DURATIONS):
        for index in range(count):
            total_wait += (index // machines) * duration
    mean_queue = total_wait / sum(STAGE_TASK_COUNTS)
    mean_exec = USED_CPU_SECONDS / sum(STAGE_TASK_COUNTS)
    return ProvisioningOutcome(
        label="Ideal",
        makespan=ideal_time,
        mean_queue_time=mean_queue,
        mean_execution_time=mean_exec,
        execution_fraction=mean_exec / (mean_exec + mean_queue),
        resources_used=USED_CPU_SECONDS,
        resources_wasted=0.0,
        utilization=1.0,
        exec_efficiency=1.0,
        allocations=0,
    )


# ---------------------------------------------------------------------------
# GRAM4+PBS baseline
# ---------------------------------------------------------------------------
def _run_gram4_pbs() -> ProvisioningOutcome:
    env = Environment()
    cluster = Cluster(
        env,
        ClusterSpec(name="tg-anl", nodes=162, node=NodeSpec(processors=1)),
        free_limit=100,  # "about 100 machines available" (§4.6)
    )
    gateway = Gram4Gateway(env, make_pbs(env, cluster))
    results: list[TaskResult] = []

    def run_one(spec) -> Generator:
        result = yield from gateway.run_task(spec)
        results.append(result)
        return result

    def driver() -> Generator:
        for stage in stage18_stage_lists():
            procs = [
                env.process(run_one(spec), name=f"g-{spec.task_id}") for spec in stage
            ]
            yield env.all_of(procs)
        return None

    proc = env.process(driver(), name="gram4-driver")
    env.run(until=proc)
    makespan = env.now
    queue_times = np.array([r.timeline.queue_time for r in results])
    exec_times = np.array([r.timeline.execution_time for r in results])
    durations_by_id = {
        spec.task_id: spec.duration
        for stage in stage18_stage_lists()
        for spec in stage
    }
    wasted = float(
        sum(r.timeline.execution_time - durations_by_id[r.task_id] for r in results)
    )
    mean_queue, mean_exec = float(queue_times.mean()), float(exec_times.mean())
    return ProvisioningOutcome(
        label="GRAM4+PBS",
        makespan=makespan,
        mean_queue_time=mean_queue,
        mean_execution_time=mean_exec,
        execution_fraction=mean_exec / (mean_exec + mean_queue),
        resources_used=USED_CPU_SECONDS,
        resources_wasted=wasted,
        utilization=resource_utilization(USED_CPU_SECONDS, wasted),
        exec_efficiency=execution_efficiency(ideal_makespan_sequential(32), makespan),
        allocations=gateway.requests_handled,
    )


# ---------------------------------------------------------------------------
# Falkon configurations
# ---------------------------------------------------------------------------
def _run_falkon(label: str, idle_seconds: float) -> ProvisioningOutcome:
    config = FalkonConfig.falkon_idle(idle_seconds, max_executors=32)
    config.executors_per_node = 1
    system = FalkonSystem(
        config.validate(),
        cluster_nodes=162,
        processors_per_node=1,
        free_limit=100,
    )
    env = system.env
    records_all = []

    def driver() -> Generator:
        if math.isinf(idle_seconds):
            # Falkon-∞: "machines were provisioned prior to the
            # experiment starting, and that time is not included".
            yield from system.provisioner.prewarm()
        start = env.now
        for stage in stage18_stage_lists():
            records = yield from system.client.submit(stage)
            records_all.extend(records)
            yield env.all_of([r.completion for r in records])
        return start

    proc = env.process(driver(), name=f"{label}-driver")
    start = env.run(until=proc)
    end = env.now

    queue_times = np.array([r.timeline.queue_time for r in records_all])
    exec_times = np.array([r.timeline.execution_time for r in records_all])
    used = system.dispatcher.busy_gauge.integrate(start, end)
    registered_time = system.dispatcher.registered_gauge.integrate(start, end)
    wasted = max(0.0, registered_time - used)
    mean_queue, mean_exec = float(queue_times.mean()), float(exec_times.mean())

    # Let the release tail play out so Figures 12–13 show the drain.
    if not math.isinf(idle_seconds):
        env.run(until=end + idle_seconds + 200.0)

    return ProvisioningOutcome(
        label=label,
        makespan=end - start,
        mean_queue_time=mean_queue,
        mean_execution_time=mean_exec,
        execution_fraction=mean_exec / (mean_exec + mean_queue),
        resources_used=used,
        resources_wasted=wasted,
        utilization=resource_utilization(used, wasted),
        exec_efficiency=execution_efficiency(ideal_makespan_sequential(32), end - start),
        allocations=system.provisioner.stats.allocations_requested
        if not math.isinf(idle_seconds)
        else 0,
        allocated_series=system.provisioner.stats.allocated_gauge,
        registered_series=system.dispatcher.registered_gauge,
        active_series=system.dispatcher.busy_gauge,
    )


def run_provisioning(
    configs: tuple[str, ...] = PROVISIONING_CONFIGS,
) -> dict[str, ProvisioningOutcome]:
    """Run the requested configurations plus the ideal column."""
    outcomes: dict[str, ProvisioningOutcome] = {}
    for label in configs:
        if label == "GRAM4+PBS":
            outcomes[label] = _run_gram4_pbs()
        elif label == "Falkon-inf":
            outcomes[label] = _run_falkon(label, math.inf)
        elif label.startswith("Falkon-"):
            outcomes[label] = _run_falkon(label, float(label.split("-")[1]))
        else:
            raise ValueError(f"unknown configuration {label!r}")
    outcomes["Ideal"] = ideal_outcome()
    return outcomes
