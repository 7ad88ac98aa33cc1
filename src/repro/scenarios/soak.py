"""Million-task endurance run over a journaled live dispatcher.

``run_soak`` pushes waves of micro-tasks (sleep-0 takes the executor's
in-process fast path, so a laptop sustains thousands of tasks per
second) through a :class:`~repro.live.local.LocalFalkon` configured the
way an endurance deployment would be: durability on, compaction cycling
continuously (low ``journal_compact_every``), bounded record retention
(``retain_settled``), transport chaos from a seeded
:class:`~repro.live.faults.FaultPlan`, poison tasks dripping into the
DLQ, and periodic executor link kills.

Memory must stay flat: the dispatcher evicts settled records, the
journal prunes settled tasks at each fold, and the harness releases
settled client futures after every wave.  The run records sustained
throughput and peak RSS into ``BENCH_soak.json`` and finishes with the
shared invariant oracles (conservation, no stuck futures, journal/DLQ
consistency across a recovery parse of the final journal).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.scenarios.generate import _derive_seed
from repro.scenarios.oracles import (
    OracleReport,
    check_conservation,
    check_journal_consistency,
    check_no_stuck,
)
from repro.sim.rng import RngStreams
from repro.types import TaskSpec

__all__ = ["SoakResult", "run_soak"]


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (Linux ru_maxrss)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _poison_task(task_id: str = "?") -> None:
    raise RuntimeError(f"poison task {task_id} fails by design")


@dataclass
class SoakResult:
    """Everything ``BENCH_soak.json`` records about one endurance run."""

    seed: int
    total_tasks: int
    wave_size: int
    executors: int
    duration_s: float
    throughput: float            # completed tasks / wall second
    completed: int
    failed: int
    dlq: int
    retries: int
    reconnects: int
    submit_rejects: int
    journal_records: int
    journal_compactions: int
    peak_rss_kb: int
    wave_throughputs: list[float] = field(default_factory=list)
    oracles: OracleReport = field(default_factory=OracleReport)

    @property
    def ok(self) -> bool:
        return self.oracles.ok

    def to_dict(self) -> dict:
        waves = self.wave_throughputs
        return {
            "seed": self.seed,
            "total_tasks": self.total_tasks,
            "wave_size": self.wave_size,
            "executors": self.executors,
            "duration_s": round(self.duration_s, 2),
            "throughput_tasks_per_s": round(self.throughput, 1),
            "completed": self.completed,
            "failed": self.failed,
            "dlq": self.dlq,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "submit_rejects": self.submit_rejects,
            "journal_records": self.journal_records,
            "journal_compactions": self.journal_compactions,
            "peak_rss_mb": round(self.peak_rss_kb / 1024.0, 1),
            "wave_throughput_first": round(waves[0], 1) if waves else 0.0,
            "wave_throughput_last": round(waves[-1], 1) if waves else 0.0,
            "wave_throughput_min": round(min(waves), 1) if waves else 0.0,
            "wave_throughput_max": round(max(waves), 1) if waves else 0.0,
            "oracles": self.oracles.to_dict(),
        }


def run_soak(
    total_tasks: int = 1_000_000,
    wave_size: int = 20_000,
    executors: int = 6,
    seed: int = 0,
    pipeline_depth: int = 32,
    bundle_size: int = 1000,
    poison_per_wave: int = 2,
    churn_every_waves: int = 10,
    drop_rate: float = 0.002,
    duplicate_rate: float = 0.002,
    retain_settled: int = 50_000,
    journal_compact_every: int = 20_000,
    journal_dir: Optional[str] = None,
    out: Optional[str] = "BENCH_soak.json",
    wave_timeout: float = 300.0,
    progress=None,
) -> SoakResult:
    """Run the endurance workload; returns the recorded result.

    The workload is deterministic in *seed*: poison positions and churn
    victims come from named RNG splits, so a failing soak can be
    re-run exactly.  *progress* is an optional ``callable(str)`` for
    per-wave status lines (the CLI passes ``print``).
    """
    from repro.live.faults import FaultPlan
    from repro.live.journal import recover as recover_journal
    from repro.live.local import LocalFalkon

    if total_tasks < 1 or wave_size < 1:
        raise ValueError("total_tasks and wave_size must be >= 1")
    rngs = RngStreams(seed)
    poison_stream = rngs.stream("soak-poison")
    churn_stream = rngs.stream("soak-churn")

    chaos = drop_rate or duplicate_rate
    plan = FaultPlan(
        seed=_derive_seed(seed, "soak-faults"),
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        roles=("executor",),
    ) if chaos else None

    own_journal = journal_dir is None
    jdir = journal_dir or tempfile.mkdtemp(prefix="soak-journal-")
    falkon = LocalFalkon(
        executors=executors,
        python_registry={"scenario-poison": _poison_task},
        bundle_size=bundle_size,
        max_retries=20,
        heartbeat_interval=0.5,
        heartbeat_miss_budget=4,
        replay_timeout=2.0 if chaos else None,
        fault_plan=plan,
        pipeline_depth=pipeline_depth,
        journal_dir=jdir,
        journal_compact_every=journal_compact_every,
        retain_settled=retain_settled,
    )

    report = OracleReport()
    wave_throughputs: list[float] = []
    stuck: list[str] = []
    expected_poison = 0
    submitted = 0
    started = time.monotonic()
    try:
        wave_index = 0
        while submitted < total_tasks:
            n = min(wave_size, total_tasks - submitted)
            # Poison positions drawn per wave from the seeded stream so
            # the DLQ keeps filling (and riding through compaction
            # after compaction) for the whole run.
            n_poison = min(poison_per_wave, n)
            poison_at = set(
                int(i) for i in poison_stream.choice(n, size=n_poison,
                                                     replace=False)
            ) if n_poison else set()
            specs = []
            for i in range(n):
                tid = f"soak-{seed}-{submitted + i:07d}"
                if i in poison_at:
                    specs.append(TaskSpec(task_id=tid,
                                          command="python:scenario-poison",
                                          args=(tid,), stage="poison"))
                else:
                    specs.append(TaskSpec(task_id=tid, command="sleep",
                                          args=("0",)))
            expected_poison += len(poison_at)
            submitted += n

            wave_started = time.monotonic()
            futures = falkon.client.submit(specs)
            deadline = wave_started + wave_timeout
            for future in futures:
                remaining = deadline - time.monotonic()
                try:
                    future.result(timeout=max(remaining, 0.0))
                except Exception:
                    stuck.append(future.task_id)
            wave_elapsed = time.monotonic() - wave_started
            wave_throughputs.append(n / wave_elapsed if wave_elapsed > 0 else 0.0)
            falkon.client.release_settled()
            # Waves never outrun compaction (the journal's flusher runs
            # it when due): however fast a wave settles, the run cycles
            # the journal it sets out to exercise.
            journal = falkon.dispatcher.journal
            while (journal is not None and journal.should_compact()
                   and time.monotonic() < deadline):
                time.sleep(0.01)

            wave_index += 1
            if churn_every_waves and wave_index % churn_every_waves == 0:
                victim = int(churn_stream.integers(0, executors))
                falkon.executors[victim].kill_connection()
            if progress is not None:
                progress(
                    f"wave {wave_index}: {submitted}/{total_tasks} tasks, "
                    f"{wave_throughputs[-1]:.0f} tasks/s, "
                    f"rss {_peak_rss_kb() // 1024} MB"
                )
            if stuck:
                break  # a stuck wave means every later wave would hang too

        duration = time.monotonic() - started
        stats = falkon.dispatcher.stats()
        dlq_ids = [e["task_id"] for e in falkon.dispatcher.dlq_list()]
        journal_stats = (falkon.dispatcher.journal.stats()
                         if falkon.dispatcher.journal else {})
    finally:
        falkon.close()

    check_conservation(report, submitted=submitted, stats=stats,
                       expected_poison=expected_poison)
    check_no_stuck(report, stuck)
    recovered = recover_journal(jdir)
    check_journal_consistency(report, recovered, dlq_ids=dlq_ids,
                              accepted=stats.accepted, pruned=True,
                              clean_close=True)
    if own_journal:
        shutil.rmtree(jdir, ignore_errors=True)

    result = SoakResult(
        seed=seed,
        total_tasks=total_tasks,
        wave_size=wave_size,
        executors=executors,
        duration_s=duration,
        throughput=(stats.completed / duration if duration > 0 else 0.0),
        completed=stats.completed,
        failed=stats.failed,
        dlq=len(dlq_ids),
        retries=stats.retries,
        reconnects=stats.reconnects,
        submit_rejects=stats.submit_rejects,
        journal_records=stats.journal_records,
        journal_compactions=int(journal_stats.get("compactions", 0)),
        peak_rss_kb=_peak_rss_kb(),
        wave_throughputs=wave_throughputs,
        oracles=report,
    )
    if out:
        payload = result.to_dict()
        tmp = f"{out}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out)
    return result
