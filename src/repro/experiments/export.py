"""CSV export of every figure's series and every table's rows.

``export_all(directory)`` regenerates the paper artifacts and writes
one CSV per artifact, so the figures can be re-plotted with any tool:

    python -m repro export --out results/ [--quick]

Each writer is also usable on its own with a pre-computed result, so
benches or notebooks can dump exactly one artifact.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Sequence

from repro.sim import TimeSeries

__all__ = [
    "write_csv",
    "write_series",
    "export_fig3",
    "export_fig4",
    "export_fig5",
    "export_fig6",
    "export_fig7",
    "export_fig8",
    "export_fig9",
    "export_tables34",
    "export_fmri",
    "export_montage",
    "export_all",
]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write rows to *path*, creating parent directories."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_series(path: str, series: TimeSeries, value_name: str = "value") -> str:
    """Write one (time, value) series."""
    return write_csv(path, ["time_s", value_name], zip(series.times, series.values))


# -- per-artifact writers ----------------------------------------------------
def export_fig3(directory: str, result=None) -> str:
    from repro.experiments import run_fig3

    result = result or run_fig3()
    return write_csv(
        os.path.join(directory, "fig3_throughput.csv"),
        ["executors", "falkon_tasks_per_sec", "falkon_gsi_tasks_per_sec", "gt4_bound"],
        [(r.executors, r.throughput_none, r.throughput_gsi, r.gt4_bound)
         for r in result.rows],
    )


def export_fig4(directory: str, result=None) -> str:
    from repro.experiments import run_fig4

    result = result or run_fig4()
    return write_csv(
        os.path.join(directory, "fig4_data_throughput.csv"),
        ["config", "data_bytes", "tasks_per_sec", "megabits_per_sec"],
        [(p.config, p.data_bytes, p.tasks_per_sec, p.megabits_per_sec)
         for p in result.points],
    )


def export_fig5(directory: str, result=None) -> str:
    from repro.experiments import run_fig5

    result = result or run_fig5()
    return write_csv(
        os.path.join(directory, "fig5_bundling.csv"),
        ["bundle_size", "model_tasks_per_sec", "model_cost_per_task_ms",
         "simulated_tasks_per_sec"],
        [(r.bundle_size, r.model_tasks_per_sec, r.model_cost_per_task_ms,
          r.simulated_tasks_per_sec) for r in result.rows],
    )


def export_fig6(directory: str, result=None) -> str:
    from repro.experiments import run_fig6

    result = result or run_fig6()
    return write_csv(
        os.path.join(directory, "fig6_efficiency.csv"),
        ["task_seconds", "executors", "efficiency", "speedup"],
        [(p.task_seconds, p.executors, p.efficiency, p.speedup)
         for p in result.points],
    )


def export_fig7(directory: str, result=None) -> str:
    from repro.experiments import run_fig7

    result = result or run_fig7()
    return write_csv(
        os.path.join(directory, "fig7_efficiency_systems.csv"),
        ["task_seconds", "falkon", "pbs", "condor_672", "condor_693_derived"],
        [(r.task_seconds, r.falkon, r.pbs, r.condor_672, r.condor_693_derived)
         for r in result.rows],
    )


def export_fig8(directory: str, result=None, n_tasks: int = 2_000_000) -> list[str]:
    from repro.experiments import run_fig8

    result = result or run_fig8(n_tasks=n_tasks)
    return [
        write_series(os.path.join(directory, "fig8_raw_throughput.csv"),
                     result.raw_samples, "tasks_per_sec"),
        write_series(os.path.join(directory, "fig8_moving_average.csv"),
                     result.moving_avg, "tasks_per_sec_ma60"),
        write_series(os.path.join(directory, "fig8_queue_length.csv"),
                     result.queue_series, "queued_tasks"),
    ]


def export_fig9(directory: str, result=None, executors: int = 54_000) -> list[str]:
    from repro.experiments import run_fig9

    result = result or run_fig9(executors=executors)
    paths = [
        write_series(os.path.join(directory, "fig9_busy_executors.csv"),
                     result.busy_series, "busy_executors"),
        write_csv(os.path.join(directory, "fig10_task_overheads.csv"),
                  ["overhead_ms"], [(v,) for v in result.overheads_ms]),
    ]
    return paths


def export_tables34(directory: str, outcomes=None) -> list[str]:
    from repro.experiments import run_provisioning

    outcomes = outcomes or run_provisioning()
    paths = [
        write_csv(
            os.path.join(directory, "table3_queue_exec_times.csv"),
            ["config", "mean_queue_s", "mean_exec_s", "exec_fraction"],
            [(o.label, o.mean_queue_time, o.mean_execution_time, o.execution_fraction)
             for o in outcomes.values()],
        ),
        write_csv(
            os.path.join(directory, "table4_utilization.csv"),
            ["config", "time_to_complete_s", "utilization", "exec_efficiency",
             "allocations"],
            [(o.label, o.makespan, o.utilization, o.exec_efficiency, o.allocations)
             for o in outcomes.values()],
        ),
    ]
    for label, filename in (("Falkon-15", "fig12_falkon15"), ("Falkon-180", "fig13_falkon180")):
        outcome = outcomes.get(label)
        if outcome is None or outcome.registered_series is None:
            continue
        paths.append(
            write_csv(
                os.path.join(directory, f"{filename}_timeline.csv"),
                ["time_s", "allocated", "registered", "active"],
                _timeline_rows(outcome),
            )
        )
    return paths


def _timeline_rows(outcome, points: int = 400):
    end = outcome.registered_series.times[-1] if len(outcome.registered_series) else 0.0
    for i in range(points + 1):
        t = end * i / points
        yield (
            t,
            outcome.allocated_series.value_at(t),
            outcome.registered_series.value_at(t),
            outcome.active_series.value_at(t),
        )


def export_fmri(directory: str, rows=None) -> str:
    from repro.experiments import run_fmri

    rows = rows or run_fmri()
    return write_csv(
        os.path.join(directory, "fig14_fmri.csv"),
        ["volumes", "tasks", "gram4_s", "clustered_s", "falkon_s"],
        [(r.volumes, r.tasks, r.gram4_seconds, r.clustered_seconds, r.falkon_seconds)
         for r in rows],
    )


def export_montage(directory: str, result=None) -> str:
    from repro.experiments import run_montage
    from repro.workloads.montage import MONTAGE_STAGE_ORDER

    result = result or run_montage()
    versions = list(result.stage_times)
    return write_csv(
        os.path.join(directory, "fig15_montage.csv"),
        ["stage", *versions],
        [(stage, *(result.stage_times[v].get(stage, 0.0) for v in versions))
         for stage in MONTAGE_STAGE_ORDER],
    )


def export_all(directory: str, quick: bool = False) -> list[str]:
    """Regenerate every exportable artifact into *directory*."""
    paths: list[str] = []
    paths.append(export_fig3(directory))
    paths.append(export_fig4(directory))
    paths.append(export_fig5(directory))
    paths.append(export_fig6(directory))
    paths.append(export_fig7(directory))
    paths.extend(export_fig8(directory, n_tasks=100_000 if quick else 2_000_000))
    paths.extend(export_fig9(directory, executors=5_400 if quick else 54_000))
    paths.extend(export_tables34(directory))
    paths.append(export_fmri(directory))
    paths.append(export_montage(directory))
    return paths
