"""Replay a generated scenario through both execution planes.

``replay_sim`` drives the discrete-event plane: plain tasks through
:meth:`FalkonSystem.run_workload`, the DAG subset through the
:class:`~repro.dag.WorkflowEngine`, and executor churn as seeded crash
+ replace events in simulated time.

``replay_live`` drives the real thing: a journaled
:class:`~repro.live.local.LocalFalkon` with pipelining, telemetry,
transport chaos from the scenario's :class:`FaultPlan`, a paced
submitter that honours the generated arrival schedule and DAG
dependencies, and a churn thread that kills executor links or whole
executors on the generated schedule.

Both replays feed the same invariant oracles (:mod:`.oracles`); a
scenario "passes" only when every oracle holds on both planes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.scenarios.generate import Scenario, generate
from repro.scenarios.oracles import (
    OracleReport,
    check_conservation,
    check_exactly_once,
    check_federation_conservation,
    check_journal_consistency,
    check_no_stuck,
    check_sim_workload,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ReplayReport",
    "replay_sim",
    "replay_live",
    "replay_live_federated",
    "run_scenario",
]


@dataclass
class ReplayReport:
    """Outcome of one scenario replay on one plane."""

    plane: str
    scenario: str
    fingerprint: str
    submitted: int
    completed: int
    failed: int
    dlq: int
    duration_s: float
    throughput: float
    oracles: OracleReport
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.oracles.ok

    def to_dict(self) -> dict:
        return {
            "plane": self.plane,
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "dlq": self.dlq,
            "duration_s": round(self.duration_s, 3),
            "throughput": round(self.throughput, 1),
            "oracles": self.oracles.to_dict(),
            "extras": self.extras,
        }


def _poison_task(task_id: str = "?") -> None:
    """The registered live-plane poison callable: always raises."""
    raise RuntimeError(f"poison task {task_id} fails by design")


# ---------------------------------------------------------------------------
# simulation plane
# ---------------------------------------------------------------------------
def replay_sim(scenario: Scenario) -> ReplayReport:
    """Run *scenario* through the discrete-event plane with oracles.

    Poison tasks execute like any other task here — the sim plane has
    no subprocess to fail — so the sim oracles check scheduling and
    conservation; DLQ semantics are the live replay's job.
    """
    from repro.config import FalkonConfig
    from repro.core.system import FalkonSystem
    from repro.dag import FalkonProvider, WorkflowEngine

    spec = scenario.spec
    system = FalkonSystem(
        config=FalkonConfig(),
        cluster_nodes=max(64, spec.executors),
        seed=spec.seed,
    )
    system.static_pool(spec.executors, startup_delay=0.0)

    # Churn: both flavours map to crash + replace in simulated time (a
    # transient link drop has no separate meaning without sockets).
    def churn_driver(event) -> Generator:
        yield system.env.timeout(max(event.at, 1e-6))
        pool = system._static_executors
        victim = pool[event.executor_index % len(pool)]
        if victim.is_alive:
            victim.crash()
            system.static_pool(1, startup_delay=0.0)

    for event in scenario.churn:
        system.env.process(churn_driver(event), name=f"churn-{event.at:.3f}")

    plain = [t.spec for t in scenario.tasks if not t.deps and t.spec.stage != "dag"]
    started = time.monotonic()
    completed = failed = 0
    if plain:
        result = system.run_workload(plain, bundle_size=spec.bundle_size)
        completed += result.completed
        failed += result.failed

    workflow = scenario.workflow()
    if len(workflow):
        engine = WorkflowEngine(
            system.env, FalkonProvider(system.env, system.dispatcher)
        )
        wf_result = engine.run_to_completion(workflow)
        completed += sum(1 for r in wf_result.results.values() if r.ok)
        failed += sum(1 for r in wf_result.results.values() if not r.ok)

    duration = time.monotonic() - started
    report = OracleReport()
    check_sim_workload(report, len(scenario.tasks), completed, failed)
    if failed:
        report.fail("conservation",
                    f"sim replay failed {failed} tasks (expected 0: the sim "
                    "plane replays crashed executors' work)")
    return ReplayReport(
        plane="sim",
        scenario=spec.name,
        fingerprint=scenario.fingerprint(),
        submitted=len(scenario.tasks),
        completed=completed,
        failed=failed,
        dlq=0,
        duration_s=duration,
        throughput=(completed / duration if duration > 0 else 0.0),
        oracles=report,
        extras={
            "sim_makespan": round(system.env.now, 4),
            "churn_events": len(scenario.churn),
        },
    )


# ---------------------------------------------------------------------------
# live plane
# ---------------------------------------------------------------------------
def _submit_paced(
    scenario: Scenario,
    submit: Callable[[list], list],
    on_done: Callable,
    started: float,
    time_scale: float,
    timeout: float,
) -> dict:
    """Submit *scenario*'s tasks through *submit* on their arrival
    schedule, then wait up to *timeout* for every future; returns the
    futures by task id.

    Dependency-free tasks already due go in one batch; a DAG node is
    held back until its parents settled (the live plane has no workflow
    engine — the harness is the Swift-like driver).
    """
    futures: dict = {}
    batch: list = []

    def flush_batch() -> None:
        if not batch:
            return
        for fut in submit([t.spec for t in batch]):
            futures[fut.task_id] = fut
            fut.add_done_callback(on_done)
        batch.clear()

    for task in sorted(scenario.tasks, key=lambda t: (t.arrival, t.spec.task_id)):
        due = started + task.arrival * time_scale
        now = time.monotonic()
        if task.deps or now < due:
            flush_batch()
        if now < due:
            time.sleep(due - now)
        deadline = time.monotonic() + timeout
        for dep in task.deps:
            dep_future = futures.get(dep)
            while dep_future is not None and not dep_future.done():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.002)
        batch.append(task)
    flush_batch()

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(f.done() for f in futures.values()):
            break
        time.sleep(0.02)
    return futures


def replay_live(
    scenario: Scenario,
    journal_dir: Optional[str] = None,
    time_scale: float = 1.0,
    timeout: float = 180.0,
    flight_dir: Optional[str] = None,
) -> ReplayReport:
    """Run *scenario* through a journaled live deployment with oracles.

    With *flight_dir* set, every component's flight recorder dumps
    there at scenario end (reason ``end``) and again — from the rings
    as they stood at teardown — when any oracle fails (reason
    ``oracle``), so a red run always leaves ``repro doctor`` evidence.
    """
    import threading

    from repro.live.executor import LiveExecutor
    from repro.live.journal import recover as recover_journal
    from repro.live.local import LocalFalkon

    spec = scenario.spec
    own_journal = journal_dir is None
    jdir = journal_dir or tempfile.mkdtemp(prefix="scenario-journal-")
    registry = {"scenario-poison": _poison_task}
    chaotic = scenario.spec.chaotic
    heartbeat = 0.2 if chaotic else None
    replay_timeout = 0.75 if chaotic else None

    settle_counts: Counter = Counter()
    settle_lock = threading.Lock()

    def on_done(fut) -> None:
        with settle_lock:
            settle_counts[fut.task_id] += 1

    falkon = LocalFalkon(
        executors=spec.executors,
        python_registry=registry,
        bundle_size=spec.bundle_size,
        max_retries=spec.max_retries,
        heartbeat_interval=heartbeat,
        heartbeat_miss_budget=3,
        replay_timeout=replay_timeout,
        fault_plan=scenario.fault_plan(),
        pipeline_depth=spec.pipeline_depth,
        journal_dir=jdir,
        queue_limit=spec.queue_limit or None,
        journal_compact_every=spec.journal_compact_every,
        flight_dump_dir=flight_dir,
    )
    started = time.monotonic()
    stop_churn = threading.Event()

    def churn_loop() -> None:
        for event in scenario.churn:
            delay = started + event.at * time_scale - time.monotonic()
            if delay > 0 and stop_churn.wait(delay):
                return
            victim = falkon.executors[event.executor_index % len(falkon.executors)]
            if event.kind == "drop":
                victim.kill_connection()
            else:
                victim.stop()
                replacement = LiveExecutor(
                    falkon.dispatcher.endpoint,
                    python_registry=registry,
                    heartbeat_interval=heartbeat,
                    pipeline=spec.pipeline_depth,
                ).start()
                falkon.executors[
                    event.executor_index % len(falkon.executors)
                ] = replacement
                victim.join(timeout=5.0)

    churn_thread = None
    if scenario.churn:
        churn_thread = threading.Thread(
            target=churn_loop, name="scenario-churn", daemon=True
        )
        churn_thread.start()

    try:
        futures = _submit_paced(scenario, falkon.client.submit, on_done,
                                started, time_scale, timeout)
        duration = time.monotonic() - started

        stats = falkon.dispatcher.stats()
        dlq_ids = [e["task_id"] for e in falkon.dispatcher.dlq_list()]
        stuck = [tid for tid, f in futures.items() if not f.done()]
        fault_counters = (
            scenario.fault_plan() and falkon.dispatcher.fault_plan.snapshot()
        ) or {}
        reconnects = stats.reconnects
        flight_paths: list[str] = []
        oracle_dumper = None
        if flight_dir is not None:
            flight_paths = falkon.dump_flight(flight_dir, reason="end")
            # Rings survive close(); hold one for a post-oracle dump.
            oracle_dumper = (falkon.dispatcher.flight,
                             falkon.dispatcher._flight_extra())
    finally:
        stop_churn.set()
        if churn_thread is not None:
            churn_thread.join(timeout=10.0)
        falkon.close()

    report = OracleReport()
    check_conservation(
        report,
        submitted=len(scenario.tasks),
        stats=stats,
        expected_poison=len(scenario.poison_ids),
    )
    check_exactly_once(
        report,
        expected_ids=[t.spec.task_id for t in scenario.tasks],
        settle_counts=dict(settle_counts),
    )
    check_no_stuck(report, stuck)
    if set(dlq_ids) != scenario.poison_ids:
        report.fail(
            "conservation",
            f"DLQ {sorted(set(dlq_ids) ^ scenario.poison_ids)[:5]} does not "
            "match the generated poison set",
        )
    recovered = recover_journal(jdir)
    check_journal_consistency(
        report,
        recovered,
        dlq_ids=dlq_ids,
        accepted=stats.accepted,
        pruned=False,
        clean_close=True,
    )
    if own_journal:
        shutil.rmtree(jdir, ignore_errors=True)
    if oracle_dumper is not None and not report.ok:
        recorder, extra = oracle_dumper
        try:
            flight_paths.append(
                recorder.dump_to_dir(flight_dir, reason="oracle", extra=extra))
        except OSError:
            pass

    completed = stats.completed
    return ReplayReport(
        plane="live",
        scenario=spec.name,
        fingerprint=scenario.fingerprint(),
        submitted=len(scenario.tasks),
        completed=completed,
        failed=stats.failed,
        dlq=len(dlq_ids),
        duration_s=duration,
        throughput=(completed / duration if duration > 0 else 0.0),
        oracles=report,
        extras={
            "retries": stats.retries,
            "reconnects": reconnects,
            "submit_rejects": stats.submit_rejects,
            "journal_records": stats.journal_records,
            "fault_counters": fault_counters,
            "churn_events": len(scenario.churn),
            **({"flight_dumps": flight_paths} if flight_dir else {}),
        },
    )


def replay_live_federated(
    scenario: Scenario,
    shards: int = 2,
    journal_root: Optional[str] = None,
    time_scale: float = 1.0,
    timeout: float = 180.0,
    shard_crash: Optional[bool] = None,
    flight_dir: Optional[str] = None,
) -> ReplayReport:
    """Run *scenario* through an N-shard :class:`LocalFederation`.

    With *flight_dir* set, a killed shard dumps its flight ring at
    death (reason ``crash``) and every surviving component dumps at
    scenario end (reason ``end``) — plus an ``oracle`` dump per shard
    when any oracle fails — all into one directory that
    ``repro doctor`` cross-correlates by task id.

    Chaos here is *topological*: executor churn spread across shards
    plus — for chaotic scenarios (or ``shard_crash=True``) — one shard
    killed ``kill -9``-style mid-run and restarted on its journal,
    while the router retargets and resubmits around the hole.  The
    single-dispatcher transport chaos (drop/duplicate fault plans)
    stays with :func:`replay_live`; installing it on a mesh would also
    corrupt shard-to-shard gossip, which is a different experiment.

    Oracles: when a shard crashed, per-shard counters are not
    trustworthy (the journal window died with the process), so
    conservation is checked from the client's vantage
    (:func:`check_federation_conservation`); crash-free runs
    additionally balance the aggregated per-shard counters.
    """
    import threading

    from repro.live.executor import LiveExecutor
    from repro.live.federation import LocalFederation
    from repro.live.journal import recover as recover_journal

    spec = scenario.spec
    if shards < 2:
        raise ValueError("federated replay needs shards >= 2")
    own_journal = journal_root is None
    jroot = journal_root or tempfile.mkdtemp(prefix="scenario-fed-journal-")
    registry = {"scenario-poison": _poison_task}
    chaotic = spec.chaotic
    crash = chaotic if shard_crash is None else shard_crash
    heartbeat = 0.2 if chaotic else None
    replay_timeout = 0.75 if chaotic else None

    settle_counts: Counter = Counter()
    settle_lock = threading.Lock()
    settled = threading.Event()

    def on_done(fut) -> None:
        with settle_lock:
            settle_counts[fut.task_id] += 1
        settled.set()

    fed = LocalFederation(
        shards=shards,
        executors_per_shard=max(1, -(-spec.executors // shards)),
        python_registry=registry,
        bundle_size=spec.bundle_size,
        max_retries=spec.max_retries,
        heartbeat_interval=heartbeat,
        heartbeat_miss_budget=3,
        replay_timeout=replay_timeout,
        pipeline_depth=spec.pipeline_depth,
        journal_root=jroot,
        queue_limit=spec.queue_limit or None,
        monitor_interval=0.05 if chaotic else None,
        flight_dir=flight_dir,
    )
    # Endpoints survive a kill/restart cycle (same port), so capture
    # them up front for churn replacements during a shard's dead window.
    endpoints = {sid: fed.dispatchers[sid].endpoint for sid in fed.shard_ids}
    victims = [(sid, i) for sid in fed.shard_ids
               for i in range(len(fed.executors[sid]))]
    started = time.monotonic()
    stop_chaos = threading.Event()
    crashed_shards: list[str] = []

    def churn_loop() -> None:
        for event in scenario.churn:
            delay = started + event.at * time_scale - time.monotonic()
            if delay > 0 and stop_chaos.wait(delay):
                return
            shard_id, index = victims[event.executor_index % len(victims)]
            victim = fed.executors[shard_id][index]
            if event.kind == "drop":
                victim.kill_connection()
            else:
                victim.stop()
                replacement = LiveExecutor(
                    endpoints[shard_id],
                    python_registry=registry,
                    heartbeat_interval=heartbeat,
                    pipeline=spec.pipeline_depth,
                ).start()
                fed.executors[shard_id][index] = replacement
                victim.join(timeout=5.0)

    def crash_loop() -> None:
        # Kill the last shard once a quarter of the work has settled —
        # guaranteed mid-run whatever the scenario's pacing — then
        # restart it on its own journal after a visible dead window.
        victim_shard = fed.shard_ids[-1]
        target = max(1, len(scenario.tasks) // 4)
        deadline = time.monotonic() + timeout * 0.5
        while time.monotonic() < deadline and not stop_chaos.is_set():
            with settle_lock:
                done = sum(settle_counts.values())
            if done >= target:
                break
            settled.wait(0.02)
            settled.clear()
        if stop_chaos.is_set():
            return
        crashed_shards.append(victim_shard)
        fed.kill_shard(victim_shard)
        if stop_chaos.wait(0.6 * time_scale):
            return
        fed.restart_shard(victim_shard)

    chaos_threads: list[threading.Thread] = []
    if scenario.churn:
        chaos_threads.append(threading.Thread(
            target=churn_loop, name="scenario-churn", daemon=True))
    if crash:
        chaos_threads.append(threading.Thread(
            target=crash_loop, name="scenario-shard-crash", daemon=True))
    for thread in chaos_threads:
        thread.start()

    try:
        futures = _submit_paced(scenario, fed.submit, on_done,
                                started, time_scale, timeout)
        for thread in chaos_threads:
            thread.join(timeout=max(5.0, timeout * 0.5))

        # A restarted shard replays journalled work the router already
        # resettled elsewhere; drain it so the final journal state and
        # DLQ union are quiescent before the oracles read them.
        drain_deadline = time.monotonic() + min(30.0, timeout)
        while time.monotonic() < drain_deadline:
            per_shard = [d.stats() for d in fed.dispatchers.values()
                         if d is not None]
            if all(s.queued == 0 and s.busy == 0
                   and s.completed + s.failed >= s.accepted
                   for s in per_shard):
                break
            time.sleep(0.05)
        duration = time.monotonic() - started

        agg = fed.stats()
        shard_stats = {sid: s for sid, s in fed.shard_stats().items()
                       if s is not None}
        shard_dlqs = {
            sid: [e["task_id"] for e in d.dlq_list()]
            for sid, d in fed.dispatchers.items() if d is not None
        }
        dlq_ids = sorted(fed.dlq_union())
        stuck = [tid for tid, f in futures.items() if not f.done()]
        retargets, resubmits = fed.router.retargets, fed.router.resubmits
        with settle_lock:
            counts = dict(settle_counts)
        results_ok = sum(
            1 for f in futures.values()
            if f.done() and not f.cancelled() and f.result(0).ok)
        results_failed = len(futures) - len(stuck) - results_ok
        flight_paths: list[str] = []
        oracle_dumpers: list[tuple] = []
        if flight_dir is not None:
            flight_paths = fed.dump_flight(flight_dir, reason="end")
            # Rings survive close(); hold them for post-oracle dumps.
            oracle_dumpers = [
                (d.flight, d._flight_extra())
                for d in fed.dispatchers.values()
                if d is not None
            ]
    finally:
        stop_chaos.set()
        settled.set()
        for thread in chaos_threads:
            thread.join(timeout=10.0)
        fed.close()

    report = OracleReport()
    check_federation_conservation(
        report,
        submitted=len(scenario.tasks),
        settled_ok=results_ok,
        settled_failed=results_failed,
        dlq_ids=dlq_ids,
        poison_ids=scenario.poison_ids,
    )
    if not crashed_shards:
        # Counters survived everywhere: the aggregated per-shard stats
        # must balance too (steal attribution folds to home shards).
        check_conservation(
            report,
            submitted=len(scenario.tasks),
            stats=agg,
            expected_poison=len(scenario.poison_ids),
        )
    check_exactly_once(
        report,
        expected_ids=[t.spec.task_id for t in scenario.tasks],
        settle_counts=counts,
    )
    check_no_stuck(report, stuck)
    for shard_id in fed.shard_ids:
        recovered = recover_journal(os.path.join(jroot, shard_id))
        stats = shard_stats.get(shard_id)
        check_journal_consistency(
            report,
            recovered,
            dlq_ids=shard_dlqs.get(shard_id, []),
            accepted=stats.accepted if stats is not None else 0,
            pruned=shard_id in crashed_shards or agg.stolen_tasks > 0,
            clean_close=shard_id not in crashed_shards,
        )
    if own_journal:
        shutil.rmtree(jroot, ignore_errors=True)
    if not report.ok:
        for recorder, extra in oracle_dumpers:
            try:
                flight_paths.append(recorder.dump_to_dir(
                    flight_dir, reason="oracle", extra=extra))
            except OSError:
                pass

    return ReplayReport(
        plane=f"live-fed{shards}",
        scenario=spec.name,
        fingerprint=scenario.fingerprint(),
        submitted=len(scenario.tasks),
        completed=results_ok,
        failed=results_failed,
        dlq=len(dlq_ids),
        duration_s=duration,
        throughput=(results_ok / duration if duration > 0 else 0.0),
        oracles=report,
        extras={
            "shards": shards,
            "shard_crashes": list(crashed_shards),
            "retargets": retargets,
            "resubmits": resubmits,
            "stolen_tasks": agg.stolen_tasks,
            "churn_events": len(scenario.churn),
            **({"flight_dumps": flight_paths} if flight_dir else {}),
        },
    )


def run_scenario(
    spec: ScenarioSpec,
    planes: tuple[str, ...] = ("sim", "live"),
    time_scale: float = 1.0,
    timeout: float = 180.0,
    shards: int = 1,
    flight_dir: Optional[str] = None,
) -> list[ReplayReport]:
    """Generate *spec* once and replay it on the requested planes.

    ``shards > 1`` routes the live plane through
    :func:`replay_live_federated` (the sim plane is unsharded);
    ``flight_dir`` collects flight-recorder dumps from the live plane
    (``repro scenarios run --flight-out``).
    """
    scenario = generate(spec)
    reports = []
    for plane in planes:
        if plane == "sim":
            reports.append(replay_sim(scenario))
        elif plane == "live":
            if shards > 1:
                reports.append(replay_live_federated(
                    scenario, shards=shards, time_scale=time_scale,
                    timeout=timeout, flight_dir=flight_dir,
                ))
            else:
                reports.append(replay_live(
                    scenario, time_scale=time_scale, timeout=timeout,
                    flight_dir=flight_dir,
                ))
        else:
            raise ValueError(f"unknown plane {plane!r}")
    return reports
