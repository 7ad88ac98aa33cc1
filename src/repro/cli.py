"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro info                          # what is in here
    python -m repro throughput --executors 256    # Fig. 3 microbenchmark
    python -m repro provision --idle 60           # §4.6 dynamic provisioning
    python -m repro workload 18stage|fmri|montage|trace
    python -m repro live --executors 4 --tasks 2000 [--pipeline 32]
    python -m repro live --http-port 8090 --events-out run.jsonl
    python -m repro top --http http://127.0.0.1:8090   # live cluster table
    python -m repro top --shards http://h:8090    # fleet view via /fleet
    python -m repro doctor /tmp/flight-dumps/     # post-mortem dump analysis
    python -m repro events replay run.jsonl       # timeline from an event log
    python -m repro live --shards 2               # federated: 2 dispatcher shards
    python -m repro export --out results/ [--quick]

Every command is a thin wrapper over the public library API; the
functions return process exit codes and print human-readable tables,
so they double as executable documentation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Falkon (SC'07) reproduction: simulation + live task execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the reproduction")

    p = sub.add_parser("throughput", help="sleep-0 dispatch throughput (Figure 3 point)")
    p.add_argument("--executors", type=int, default=256)
    p.add_argument("--tasks", type=int, default=5000)
    p.add_argument("--security", action="store_true",
                   help="enable GSISecureConversation-equivalent security")

    p = sub.add_parser("provision", help="18-stage workload with dynamic provisioning")
    p.add_argument("--idle", default="60",
                   help="idle release seconds, or 'inf' for Falkon-∞")
    p.add_argument("--max-executors", type=int, default=32)

    p = sub.add_parser("workload", help="describe a built-in workload")
    p.add_argument("name", choices=["18stage", "fmri", "montage", "trace"])
    p.add_argument("--volumes", type=int, default=120, help="fMRI problem size")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("live", help="real tasks through live TCP Falkon on this host")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="run N federated dispatcher shards (subprocesses) "
                        "behind one ShardRouter instead of one in-process "
                        "dispatcher (docs/API.md)")
    p.add_argument("--executors", type=int, default=4,
                   help="executor pool size (per shard with --shards)")
    p.add_argument("--tasks", type=int, default=2000)
    p.add_argument("--bundle", type=int, default=300)
    p.add_argument("--pipeline", type=int, default=1, metavar="DEPTH",
                   help="tasks an executor may hold locally per exchange "
                        "(§3.4 piggy-backing extended; 1 = classic protocol)")
    p.add_argument("--metrics-out", metavar="DIR", default=None,
                   help="export metrics (Prometheus + JSONL) and span traces here")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /status and /tasks/<id> over HTTP "
                        "while the run is live (0 picks a free port)")
    p.add_argument("--events-out", metavar="PATH", default=None,
                   help="follow the dispatcher's flight ring to this JSONL "
                        "file (replay with `repro events replay PATH`)")
    p.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                   help="keep the deployment (and its HTTP surface) up this "
                        "long after the tasks finish")
    p.add_argument("--journal", metavar="DIR", default=None,
                   help="crash-safe write-ahead journal directory; an existing "
                        "journal is recovered on boot (docs/RELIABILITY.md)")
    p.add_argument("--queue-limit", type=int, default=None, metavar="N",
                   help="bound the dispatcher queue; overflowing SUBMITs get "
                        "SUBMIT_REJECT backpressure instead of unbounded memory")

    p = sub.add_parser("dlq", help="inspect and retry dead-lettered (poison) tasks")
    dlq_sub = p.add_subparsers(dest="dlq_command", required=True)
    for name, help_text in (
        ("list", "show every quarantined task"),
        ("show", "one quarantined task's full entry"),
        ("retry", "re-queue a quarantined task with a fresh retry budget"),
    ):
        q = dlq_sub.add_parser(name, help=help_text)
        if name != "list":
            q.add_argument("task_id")
        q.add_argument("--http", metavar="URL", default=None,
                       help="base URL of a live dispatcher started with "
                            "--http-port (required for retry)")
        if name != "retry":
            q.add_argument("--journal", metavar="DIR", default=None,
                           help="read a journal directory offline instead of "
                                "a live dispatcher")

    p = sub.add_parser("top", help="live cluster table polled from a dispatcher's /status")
    p.add_argument("--http", metavar="URL", default="http://127.0.0.1:8090",
                   help="base URL of a dispatcher started with --http-port")
    p.add_argument("--shards", metavar="URLS", default=None,
                   help="fleet view: one URL fetches the merged /fleet "
                        "snapshot (federated runs, one round trip); a comma "
                        "list polls each shard's /status instead")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N refreshes (0 = until interrupted)")

    p = sub.add_parser(
        "doctor",
        help="analyze flight-recorder dumps: last-seconds timelines, gap "
             "flagging, cross-shard task correlation",
    )
    p.add_argument("path",
                   help="one flight dump JSON, or a directory of "
                        "flight-*.json dumps from a federated run")
    p.add_argument("--window", type=float, default=30.0, metavar="SECONDS",
                   help="seconds of history before each dump to reconstruct")
    p.add_argument("--json", action="store_true",
                   help="emit the raw analysis report as JSON")

    p = sub.add_parser("events", help="work with structured event logs")
    events_sub = p.add_subparsers(dest="events_command", required=True)
    p = events_sub.add_parser("replay", help="reconstruct a timeline summary from a JSONL event log")
    p.add_argument("path", help="event log written by `repro live --events-out`")

    p = sub.add_parser(
        "shard",
        help="run one federation shard (dispatcher + executors + peer links); "
             "normally spawned by `repro live --shards N`",
    )
    p.add_argument("--shard-id", required=True, metavar="ID")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--peers", default="", metavar="ID=HOST:PORT,...",
                   help="sibling shards (full mesh map, this shard excluded)")
    p.add_argument("--executors", type=int, default=2)
    p.add_argument("--pipeline", type=int, default=1, metavar="DEPTH")
    p.add_argument("--journal", metavar="DIR", default=None,
                   help="crash-safe journal directory for this shard")
    p.add_argument("--queue-limit", type=int, default=None, metavar="N")

    p = sub.add_parser(
        "scenarios",
        help="seeded workload scenarios: generate, replay with invariant "
             "oracles, million-task soak",
    )
    scen_sub = p.add_subparsers(dest="scenarios_command", required=True)

    def scenario_selector(q) -> None:
        q.add_argument("--preset", default="mixed", metavar="NAME",
                       help="named workload mix (see `repro scenarios list`)")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--tasks", type=int, default=None, metavar="N",
                       help="override the preset's task count")
        q.add_argument("--executors", type=int, default=None, metavar="N",
                       help="override the preset's executor pool size")

    scen_sub.add_parser("list", help="show the available presets")

    q = scen_sub.add_parser(
        "generate", help="materialise a scenario; print its fingerprint")
    scenario_selector(q)
    q.add_argument("--out", metavar="PATH", default=None,
                   help="write the full scenario JSON here")

    q = scen_sub.add_parser(
        "run", help="replay a scenario through sim + live planes, "
                    "checking the invariant oracles (non-zero exit on "
                    "violation)")
    scenario_selector(q)
    q.add_argument("--smoke", action="store_true",
                   help="CI tier: the ~30 s 'smoke' preset on both planes")
    q.add_argument("--plane", choices=["sim", "live", "both"], default="both")
    q.add_argument("--shards", type=int, default=1, metavar="N",
                   help="replay the live plane through an N-shard federation "
                        "(oracles fold per-shard stats; sim plane unchanged)")
    q.add_argument("--timeout", type=float, default=180.0,
                   help="live-plane completion deadline in seconds")
    q.add_argument("--flight-out", metavar="DIR", default=None,
                   help="flush every component's flight-recorder ring into "
                        "this directory at the end of the live replay (and "
                        "on oracle violation); analyze with `repro doctor`")
    q.add_argument("--json", action="store_true",
                   help="print the replay reports as JSON")

    q = scen_sub.add_parser(
        "soak", help="endurance run: waves of tasks through a journaled "
                     "dispatcher with compaction cycling and chaos")
    q.add_argument("--tasks", type=int, default=1_000_000)
    q.add_argument("--wave", type=int, default=20_000, metavar="N",
                   help="tasks submitted and drained per wave")
    q.add_argument("--executors", type=int, default=6)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--pipeline", type=int, default=32, metavar="DEPTH")
    q.add_argument("--out", metavar="PATH", default="BENCH_soak.json",
                   help="where the throughput / RSS / oracle record lands")

    p = sub.add_parser("trace", help="print one task's span chain from a live run export")
    p.add_argument("task_id", help="task id, e.g. cli-000042")
    p.add_argument("--metrics", metavar="PATH", default="metrics",
                   help="spans.jsonl file, or the --metrics-out directory holding it")
    p.add_argument("--http", metavar="URL", default=None,
                   help="fetch the chain from a live dispatcher's /tasks/<id> "
                        "instead of a file export; a comma list of shard URLs "
                        "asks each in turn (federated runs)")

    p = sub.add_parser("export", help="regenerate all figures/tables as CSV")
    p.add_argument("--out", default="results")
    p.add_argument("--quick", action="store_true",
                   help="reduced scale for Figures 8 and 9")

    p = sub.add_parser("figure", help="draw a paper figure in the terminal")
    p.add_argument("name", choices=["fig3", "fig5", "fig7", "fig8", "fig11"])
    p.add_argument("--quick", action="store_true",
                   help="reduced scale (Figure 8)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "throughput": _cmd_throughput,
        "provision": _cmd_provision,
        "workload": _cmd_workload,
        "live": _cmd_live,
        "dlq": _cmd_dlq,
        "top": _cmd_top,
        "doctor": _cmd_doctor,
        "events": _cmd_events,
        "shard": _cmd_shard,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
        "export": _cmd_export,
        "figure": _cmd_figure,
    }[args.command]
    return handler(args)


# ---------------------------------------------------------------------------
def _cmd_info(args) -> int:
    import repro
    from repro.metrics import Table

    table = Table(f"falkon-repro {repro.__version__}", ["Component", "What it is"])
    table.add_row("repro.sim", "discrete-event simulation kernel")
    table.add_row("repro.core", "Falkon: dispatcher, executor, provisioner (sim plane)")
    table.add_row("repro.live", "real TCP Falkon for this machine")
    table.add_row("repro.lrm", "PBS/Condor/GRAM4/MyCluster substrates")
    table.add_row("repro.dag", "mini-Swift workflow engine")
    table.add_row("repro.workloads", "18-stage, fMRI, Montage, Table 5, grid traces")
    table.add_row("repro.extensions", "prefetch, data cache, 3-tier, coordinated release")
    table.add_row("repro.experiments", "one harness per paper table/figure")
    table.add_row("benchmarks/", "pytest-benchmark: regenerate every artifact")
    table.print()
    print("Paper: Raicu et al., 'Falkon: a Fast and Light-weight tasK "
          "executiON framework', SC 2007.")
    return 0


def _cmd_throughput(args) -> int:
    from repro import FalkonConfig, FalkonSystem, SecurityMode
    from repro.workloads import sleep_workload

    security = (
        SecurityMode.GSI_SECURE_CONVERSATION if args.security else SecurityMode.NONE
    )
    system = FalkonSystem(FalkonConfig.paper_defaults(security=security))
    system.static_pool(args.executors)
    started = time.perf_counter()
    result = system.run_workload(sleep_workload(args.tasks))
    wall = time.perf_counter() - started
    print(f"{args.tasks} sleep-0 tasks on {args.executors} simulated executors"
          f"{' (secure)' if args.security else ''}:")
    print(f"  simulated throughput: {result.throughput:,.1f} tasks/s "
          f"(paper: 487 plain / 204 secure)")
    print(f"  simulated makespan:   {result.makespan:,.2f} s "
          f"(computed in {wall:.2f} s of wall time)")
    return 0


def _cmd_provision(args) -> int:
    from repro.config import FalkonConfig
    from repro.core.system import FalkonSystem
    from repro.metrics import Table, execution_efficiency, resource_utilization
    from repro.workloads.stages18 import ideal_makespan_sequential, stage18_stage_lists

    idle = math.inf if args.idle in ("inf", "∞") else float(args.idle)
    config = FalkonConfig.falkon_idle(idle, max_executors=args.max_executors)
    config.executors_per_node = 1
    system = FalkonSystem(config.validate(), cluster_nodes=162,
                          processors_per_node=1, free_limit=100)
    env = system.env

    def driver():
        if math.isinf(idle):
            yield from system.provisioner.prewarm()
        start = env.now
        for stage in stage18_stage_lists():
            records = yield from system.client.submit(stage)
            yield env.all_of([r.completion for r in records])
        return start

    proc = env.process(driver(), name="cli-provision")
    start = env.run(until=proc)
    end = env.now
    used = system.dispatcher.busy_gauge.integrate(start, end)
    registered = system.dispatcher.registered_gauge.integrate(start, end)

    table = Table(f"18-stage workload, idle={args.idle}s", ["Metric", "Value"])
    table.add_row("time to complete (s)", end - start)
    table.add_row("ideal on 32 machines (s)", ideal_makespan_sequential(32))
    table.add_row("resource utilization",
                  resource_utilization(used, max(0.0, registered - used)))
    table.add_row("execution efficiency",
                  execution_efficiency(ideal_makespan_sequential(32), end - start))
    table.add_row("resource allocations",
                  0 if math.isinf(idle) else system.provisioner.stats.allocations_requested)
    table.print()
    return 0


def _cmd_workload(args) -> int:
    from repro.metrics import Table

    if args.name == "18stage":
        from repro.workloads import stage18_machines_needed, stage18_summary
        from repro.workloads.stages18 import STAGE_DURATIONS, STAGE_TASK_COUNTS

        table = Table("18-stage synthetic workload (Figure 11)",
                      ["Stage", "Tasks", "Seconds/task", "Machines"])
        machines = stage18_machines_needed()
        for i, (c, d) in enumerate(zip(STAGE_TASK_COUNTS, STAGE_DURATIONS), 1):
            table.add_row(i, c, d, machines[i - 1])
        table.print()
        summary = stage18_summary()
        print(f"total: {summary['tasks']:.0f} tasks, {summary['cpu_seconds']:.0f} "
              f"CPU-s, ideal {summary['ideal_makespan_32']:.0f} s on 32 machines")
    elif args.name == "fmri":
        from repro.workloads import fmri_workflow

        workflow = fmri_workflow(args.volumes)
        table = Table(f"fMRI AIRSN workflow ({args.volumes} volumes)",
                      ["Stage", "Tasks"])
        for stage, nodes in workflow.stages().items():
            table.add_row(stage, len(nodes))
        table.print()
        print(f"total: {len(workflow)} tasks, "
              f"{workflow.total_cpu_seconds():.0f} CPU-s, "
              f"critical path {workflow.ideal_makespan(10**9):.0f} s")
    elif args.name == "montage":
        from repro.workloads import montage_workflow

        workflow = montage_workflow(seed=args.seed)
        table = Table("Montage M16 mosaic workflow", ["Stage", "Tasks"])
        for stage, nodes in workflow.stages().items():
            table.add_row(stage, len(nodes))
        table.print()
        print(f"total: {len(workflow)} tasks, "
              f"{workflow.total_cpu_seconds():.0f} CPU-s")
    else:  # trace
        from repro.workloads import generate_trace

        trace = generate_trace(seed=args.seed)
        table = Table("Synthetic grid trace", ["Quantity", "Value"])
        table.add_row("tasks", len(trace))
        table.add_row("batches", len(trace.batches()))
        table.add_row("mean batch size", trace.mean_batch_size())
        table.add_row("CPU seconds", trace.total_cpu_seconds())
        table.add_row("runtime p50 (s)", trace.runtime_percentile(50))
        table.add_row("runtime p99 (s)", trace.runtime_percentile(99))
        table.print()
    return 0


def _cmd_live(args) -> int:
    from repro.live import LocalFalkon
    from repro.metrics import timeline_summary
    from repro.types import TaskSpec

    if args.shards > 1:
        return _cmd_live_federated(args)

    # The HTTP status surface is only interesting when stats stream:
    # default a heartbeat in when --http-port is given without one.
    heartbeat = 0.5 if args.http_port is not None else None
    with LocalFalkon(executors=args.executors, bundle_size=args.bundle,
                     pipeline_depth=args.pipeline,
                     heartbeat_interval=heartbeat,
                     http_port=args.http_port,
                     events_out=args.events_out,
                     journal_dir=args.journal,
                     queue_limit=args.queue_limit) as falkon:
        if falkon.http is not None:
            print(f"status surface at {falkon.http.url('/status')} "
                  f"(also /metrics, /tasks/<id>, /dlq)")
        if args.journal and falkon.dispatcher.recovered_tasks:
            print(f"recovered {falkon.dispatcher.recovered_tasks} tasks "
                  f"from journal {args.journal}")
        tasks = [TaskSpec.sleep(0, task_id=f"cli-{i:06d}") for i in range(args.tasks)]
        started = time.monotonic()
        results = falkon.run(tasks, timeout=300)
        elapsed = time.monotonic() - started
        if args.metrics_out:
            for path in falkon.dump_observability(args.metrics_out):
                print(f"wrote {path}")
        if args.linger > 0:
            print(f"lingering {args.linger:g} s (scrape away; Ctrl-C to stop)")
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    ok = sum(1 for r in results if r.ok)
    print(f"{ok}/{len(results)} tasks ok over real TCP with "
          f"{args.executors} executors: {len(results) / elapsed:,.0f} tasks/s "
          f"({elapsed:.2f} s)")
    if args.events_out:
        print(f"event log -> {args.events_out} "
              f"(replay with `repro events replay {args.events_out}`)")
    if args.metrics_out:
        timeline_summary(results, title="Live run latencies").print()
    return 0 if ok == len(results) else 1


def _cmd_shard(args) -> int:
    """One federation shard as a process (see ``shard_main``)."""
    from repro.live.federation import shard_main

    peers: dict[str, str] = {}
    if args.peers:
        for item in args.peers.split(","):
            if not item:
                continue
            peer_id, _, hostport = item.partition("=")
            if not peer_id or ":" not in hostport:
                print(f"bad --peers entry {item!r} (want ID=HOST:PORT)",
                      file=sys.stderr)
                return 2
            peers[peer_id] = hostport
    shard_main(
        args.shard_id,
        args.port,
        peers,
        executors=args.executors,
        pipeline=args.pipeline,
        journal_dir=args.journal,
        queue_limit=args.queue_limit,
    )
    return 0


class _ShardFleet:
    """N ``repro shard`` subprocesses wired into a full peer mesh.

    Subprocesses, not threads: in-process shards share the GIL, so
    scaling measurements need real OS-level parallelism.  Each child
    couples its lifetime to ours through stdin (EOF stops the shard)
    and reports ``READY <id> <url>`` on stdout before we route to it.
    """

    def __init__(
        self,
        shards: int,
        executors: int,
        pipeline: int,
        journal_root: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ) -> None:
        import os
        import socket
        import subprocess

        sockets = []
        ports = []
        for _ in range(shards):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            ports.append(sock.getsockname()[1])
            sockets.append(sock)
        for sock in sockets:
            sock.close()
        self.shard_ids = [f"s{i}" for i in range(shards)]
        self.urls = [f"falkon://127.0.0.1:{port}" for port in ports]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.procs = []
        for shard_id, port in zip(self.shard_ids, ports):
            peers = ",".join(
                f"{pid}=127.0.0.1:{pport}"
                for pid, pport in zip(self.shard_ids, ports)
                if pid != shard_id
            )
            cmd = [
                sys.executable, "-m", "repro", "shard",
                "--shard-id", shard_id, "--port", str(port),
                "--peers", peers,
                "--executors", str(executors),
                "--pipeline", str(pipeline),
            ]
            if journal_root is not None:
                cmd += ["--journal", os.path.join(journal_root, shard_id)]
            if queue_limit is not None:
                cmd += ["--queue-limit", str(queue_limit)]
            self.procs.append(
                subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True, env=env)
            )

    def wait_ready(self, timeout: float = 30.0) -> "_ShardFleet":
        import select

        deadline = time.monotonic() + timeout
        for proc in self.procs:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.close()
                    raise RuntimeError("shard did not report READY in time")
                readable, _, _ = select.select([proc.stdout], [], [], remaining)
                if not readable:
                    continue
                line = proc.stdout.readline()
                if not line:
                    rc = proc.poll()
                    self.close()
                    raise RuntimeError(f"shard exited before READY (rc={rc})")
                if line.startswith("READY"):
                    break
        return self

    def close(self) -> None:
        for proc in self.procs:
            try:
                proc.stdin.close()  # EOF: the shard_main loop exits
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except Exception:
                proc.kill()

    def __enter__(self) -> "_ShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cmd_live_federated(args) -> int:
    """``repro live --shards N``: subprocess shards behind a router."""
    from repro.live.federation import ShardRouter
    from repro.types import TaskSpec

    for flag in ("metrics_out", "http_port", "events_out"):
        if getattr(args, flag, None) is not None:
            print(f"--{flag.replace('_', '-')} is not supported with "
                  f"--shards; ignoring", file=sys.stderr)
    with _ShardFleet(args.shards, executors=args.executors,
                     pipeline=args.pipeline, journal_root=args.journal,
                     queue_limit=args.queue_limit).wait_ready() as fleet:
        print(f"{args.shards} shards up: {', '.join(fleet.urls)}")
        router = ShardRouter(fleet.urls, bundle_size=args.bundle)
        try:
            tasks = [TaskSpec.sleep(0, task_id=f"cli-{i:06d}")
                     for i in range(args.tasks)]
            started = time.monotonic()
            results = router.run(tasks, timeout=300)
            elapsed = time.monotonic() - started
            retargets, resubmits = router.retargets, router.resubmits
        finally:
            router.shutdown()
        if args.linger > 0:
            print(f"lingering {args.linger:g} s (Ctrl-C to stop)")
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    ok = sum(1 for r in results if r.ok)
    print(f"{ok}/{len(results)} tasks ok across {args.shards} shards "
          f"({args.executors} executors each): "
          f"{len(results) / elapsed:,.0f} tasks/s ({elapsed:.2f} s); "
          f"retargets={retargets} resubmits={resubmits}")
    return 0 if ok == len(results) else 1


def _fetch_json(url: str, timeout: float = 5.0) -> dict:
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def _post_json(url: str, timeout: float = 5.0) -> dict:
    import json
    import urllib.request

    request = urllib.request.Request(url, data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _cmd_dlq(args) -> int:
    """Inspect/retry the dead-letter queue, live (HTTP) or offline."""
    import urllib.error

    from repro.metrics import Table

    http = getattr(args, "http", None)
    journal = getattr(args, "journal", None)
    if http is None and journal is None:
        print("need --http URL (live dispatcher) or --journal DIR (offline)",
              file=sys.stderr)
        return 2
    try:
        if http is not None:
            base = http.rstrip("/")
            if args.dlq_command == "list":
                entries = _fetch_json(base + "/dlq").get("dlq", [])
            elif args.dlq_command == "show":
                entry = _fetch_json(f"{base}/dlq/{args.task_id}")
                for key in sorted(entry):
                    print(f"{key}: {entry[key]}")
                return 0
            else:  # retry
                reply = _post_json(f"{base}/dlq/{args.task_id}/retry")
                print(f"task {args.task_id} re-queued "
                      f"(requeued={reply.get('requeued')})")
                return 0
        else:
            # Offline: replay the journal directory.  Retry needs a
            # live dispatcher — the journal alone cannot re-dispatch.
            import dataclasses

            from repro.live.journal import recover
            from repro.live.protocol import task_from_dict

            state = recover(journal)
            quarantined = [t for t in state.tasks.values() if t.in_dlq]
            if args.dlq_command == "show":
                match = next(
                    (t for t in quarantined if t.task_id == args.task_id), None)
                if match is None:
                    print(f"task {args.task_id!r} is not in the DLQ",
                          file=sys.stderr)
                    return 1
                for key, value in sorted(dataclasses.asdict(match).items()):
                    print(f"{key}: {value}")
                return 0
            entries = [
                {"task_id": t.task_id, "client_id": t.client_id,
                 # The journalled spec is sparse (defaults omitted):
                 # parse it for the command the task actually runs.
                 "command": task_from_dict(t.spec).command,
                 "attempts": t.attempts, "error": t.dlq_error}
                for t in sorted(quarantined, key=lambda t: t.task_id)
            ]
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            print(f"task {getattr(args, 'task_id', '?')!r} is not in the DLQ",
                  file=sys.stderr)
            return 1
        print(f"dispatcher answered {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"cannot reach {http or journal}: {exc}", file=sys.stderr)
        return 2
    table = Table("dead-letter queue", ["Task", "Client", "Command", "Attempts", "Error"])
    for entry in entries:
        table.add_row(entry.get("task_id", "?"), entry.get("client_id", ""),
                      entry.get("command", ""), entry.get("attempts", 0),
                      (entry.get("error", "") or "")[:60])
    table.print()
    print(f"{len(entries)} task(s) quarantined")
    return 0


def _render_top(snapshot: dict) -> str:
    """One refresh of the ``repro top`` display, as plain text."""
    lines: list[str] = []
    disp = snapshot.get("dispatcher", {})
    cluster = snapshot.get("cluster", {})
    latency = snapshot.get("latency", {})

    def fmt(value, spec=".2f", scale=1.0, suffix=""):
        if not isinstance(value, (int, float)):
            return "-"
        return f"{value * scale:{spec}}{suffix}"

    rate = cluster.get("dispatch_rate_tasks_per_s")
    util = cluster.get("utilization")
    lines.append(
        f"executors {disp.get('registered', 0)} ({disp.get('busy', 0)} busy)  "
        f"queued {disp.get('queued', 0)}  "
        f"done {disp.get('completed', 0)}/{disp.get('accepted', 0)}  "
        f"retries {disp.get('retries', 0)}"
    )
    lines.append(
        f"throughput {fmt(rate, '.0f', suffix=' tasks/s')}  "
        f"utilization {fmt(util, '.0%')}  "
        f"overhead/task {fmt(cluster.get('overhead_per_task_s'), '.2f', 1e3, ' ms')}"
    )
    lines.append(
        f"dispatch latency p50 {fmt(latency.get('dispatch_p50_s'), '.1f', 1e3, ' ms')}  "
        f"p90 {fmt(latency.get('dispatch_p90_s'), '.1f', 1e3, ' ms')}  "
        f"p99 {fmt(latency.get('dispatch_p99_s'), '.1f', 1e3, ' ms')}"
    )
    executors = snapshot.get("executors", {})
    if executors:
        header = f"{'EXECUTOR':<20} {'BUSY':>4} {'PIPE':>4} {'BACKLOG':>7} {'DONE':>8} {'AGE':>6}"
        lines.append(header)
        for executor_id in sorted(executors):
            row = executors[executor_id]
            lines.append(
                f"{executor_id:<20} {row.get('busy_tasks', 0):>4} "
                f"{row.get('pipeline', 1):>4} "
                f"{fmt(row.get('backlog'), '.0f'):>7} "
                f"{fmt(row.get('executed'), '.0f'):>8} "
                f"{fmt(row.get('age_s'), '.1f', suffix='s'):>6}"
            )
    efficiency = cluster.get("efficiency_vs_task_length") or {}
    if any(isinstance(v, (int, float)) for v in efficiency.values()):
        def _length_key(item):
            try:
                return float(str(item[0]).rstrip("s"))
            except ValueError:
                return float("inf")

        pairs = "  ".join(
            f"{length}={fmt(value, '.0%')}"
            for length, value in sorted(efficiency.items(), key=_length_key)
        )
        lines.append(f"efficiency vs task length: {pairs}")
    lines.append(f"uptime {fmt(snapshot.get('uptime_s'), '.0f', suffix=' s')}")
    return "\n".join(lines)


def _render_fleet(fleet: dict) -> str:
    """One refresh of the ``repro top --shards`` fleet view."""
    lines: list[str] = []
    shards = fleet.get("shards", {})
    alive = fleet.get("alive", sum(1 for s in shards.values() if s.get("alive", True)))
    total = fleet.get("total", len(shards))
    degraded = fleet.get("degraded_shards") or []
    head = f"fleet: {alive}/{total} shards alive"
    if degraded:
        head += f"  DEGRADED: {', '.join(degraded)}"
    lines.append(head)
    agg = fleet.get("aggregate") or {}
    if agg:
        lines.append(
            f"aggregate: executors {agg.get('registered', 0)}  "
            f"queued {agg.get('queued', 0)}  "
            f"done {agg.get('completed', 0)}/{agg.get('accepted', 0)}  "
            f"retries {agg.get('retries', 0)}"
        )
    header = (f"{'SHARD':<12} {'WIRE':>4} {'EXEC':>4} {'BUSY':>4} "
              f"{'QUEUED':>6} {'DONE':>8} {'ACC':>8} {'HEALTH':<24}")
    lines.append(header)
    for shard_id in sorted(shards):
        status = shards[shard_id]
        if not status.get("alive", True):
            lines.append(f"{shard_id:<12} {'-':>4} {'-':>4} {'-':>4} "
                         f"{'-':>6} {'-':>8} {'-':>8} DOWN")
            continue
        disp = status.get("dispatcher", {})
        health = status.get("health") or {}
        reasons = health.get("degraded") or []
        health_cell = ("degraded: " + ",".join(reasons)) if reasons else \
            health.get("status", "ok")
        lines.append(
            f"{shard_id:<12} {status.get('wire', '?'):>4} "
            f"{disp.get('registered', 0):>4} {disp.get('busy', 0):>4} "
            f"{disp.get('queued', 0):>6} {disp.get('completed', 0):>8} "
            f"{disp.get('accepted', 0):>8} {health_cell:<24}"
        )
    steals = fleet.get("steals") or {}
    flows = []
    for shard_id in sorted(steals):
        for peer in sorted(steals[shard_id]):
            link = steals[shard_id][peer]
            if link.get("requested") or link.get("received"):
                flows.append(f"{shard_id}->{peer} "
                             f"req={link.get('requested', 0)} "
                             f"got={link.get('received', 0)}")
    if flows:
        lines.append("steals: " + "  ".join(flows))
    return "\n".join(lines)


def _fetch_fleet(shards_arg: str) -> dict:
    """The fleet snapshot behind ``repro top --shards``.

    One URL asks the federation's merged ``/fleet`` endpoint (a single
    round trip); a comma list polls each shard's ``/status`` and folds
    the answers into the same shape, marking unreachable shards DOWN
    rather than failing the whole refresh.
    """
    import urllib.error

    bases = [u.strip().rstrip("/") for u in shards_arg.split(",") if u.strip()]
    if len(bases) == 1:
        return _fetch_json(bases[0] + "/fleet")
    shards: dict[str, dict] = {}
    for base in bases:
        try:
            status = _fetch_json(base + "/status")
        except (urllib.error.URLError, OSError, ValueError):
            shards[base] = {"alive": False}
            continue
        status["alive"] = True
        shards[status.get("shard_id") or base] = status
    degraded = sorted(
        shard_id for shard_id, s in shards.items()
        if s.get("alive") and (s.get("health") or {}).get("degraded"))
    return {"shards": shards,
            "alive": sum(1 for s in shards.values() if s.get("alive")),
            "total": len(bases), "degraded_shards": degraded}


def _cmd_top(args) -> int:
    import urllib.error

    fleet_mode = args.shards is not None
    url = args.shards if fleet_mode else args.http.rstrip("/") + "/status"
    refreshed = 0
    while True:
        try:
            if fleet_mode:
                rendered = _render_fleet(_fetch_fleet(args.shards))
            else:
                rendered = _render_top(_fetch_json(url))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"cannot poll {url}: {exc} "
                  f"(is a dispatcher running with --http-port?)", file=sys.stderr)
            return 2
        refreshed += 1
        if args.iterations != 1:
            # Cursor home + clear: a refreshing display.  One-shot
            # invocations (--iterations 1) stay scriptable plain text.
            print("\x1b[H\x1b[J", end="")
        print(f"repro top — {url} (refresh {refreshed})")
        print(rendered)
        if args.iterations and refreshed >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_doctor(args) -> int:
    """Analyze flight-recorder dumps (see docs/OBSERVABILITY.md)."""
    import os

    from repro.obs.doctor import doctor_main

    if not os.path.exists(args.path):
        print(f"no flight dump at {args.path} (produce dumps with "
              f"`repro scenarios run --flight-out DIR`, POST /debug/dump, "
              f"or a crash/SIGTERM of a live shard)", file=sys.stderr)
        return 2
    try:
        print(doctor_main(args.path, window_s=args.window, as_json=args.json))
    except ValueError as exc:
        print(f"cannot analyze {args.path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_events(args) -> int:
    import os

    from repro.metrics import Table
    from repro.obs import read_events_jsonl, replay_summary

    if not os.path.exists(args.path):
        print(f"no event log at {args.path} "
              f"(run `repro live --events-out {args.path}` first)", file=sys.stderr)
        return 2
    events = read_events_jsonl(args.path)
    if not events:
        print(f"event log {args.path} holds no parseable events", file=sys.stderr)
        return 1
    summary = replay_summary(events)
    table = Table(f"event replay: {args.path}", ["Quantity", "Value"])
    table.add_row("events", summary["events"])
    table.add_row("duration (s)", round(summary["duration_s"], 3))
    table.add_row("tasks submitted", summary["submitted"])
    table.add_row("tasks settled", summary["settled"])
    for outcome, count in summary["outcomes"].items():
        table.add_row(f"  outcome: {outcome}", count)
    table.add_row("retries", summary["retries"])
    throughput = summary["throughput_tasks_per_s"]
    table.add_row("throughput (tasks/s)",
                  "-" if throughput is None else round(throughput, 1))
    table.add_row("executors registered", summary["executors_registered"])
    table.add_row("executors dropped", summary["executors_dropped"])
    table.print()
    print("kinds: " + ", ".join(f"{k}={v}" for k, v in summary["kinds"].items()))
    return 0


def _cmd_scenarios(args) -> int:
    """Seeded scenario tooling: list / generate / run / soak.

    ``run`` replays the selected scenario through the requested planes
    and exits 1 if any invariant oracle is violated — the verify gate
    uses ``repro scenarios run --smoke``.  A failing scenario is fully
    reproducible from the preset name and seed it prints.
    """
    import json

    from repro.scenarios import (
        PRESETS,
        generate,
        preset,
        replay_live,
        replay_live_federated,
        replay_sim,
        run_soak,
    )

    if args.scenarios_command == "list":
        from repro.metrics import Table

        table = Table("scenario presets",
                      ["Preset", "Tasks", "Runtime", "Arrival", "DAG",
                       "Poison", "Chaos"])
        for name in sorted(PRESETS):
            s = PRESETS[name]
            chaos = ("drop/dup/delay "
                     f"{s.drop_rate:g}/{s.duplicate_rate:g}/{s.delay_rate:g}"
                     f" churn {s.churn_events}" if s.chaotic else "-")
            table.add_row(name, str(s.tasks), s.runtime_dist, s.arrival,
                          f"{s.dag_fraction:g}", f"{s.poison_fraction:g}",
                          chaos)
        print(table.render())
        return 0

    if args.scenarios_command == "soak":
        result = run_soak(
            total_tasks=args.tasks,
            wave_size=args.wave,
            executors=args.executors,
            seed=args.seed,
            pipeline_depth=args.pipeline,
            out=args.out,
            progress=print,
        )
        d = result.to_dict()
        print(f"soak: {d['completed']:,} completed / {d['total_tasks']:,} "
              f"submitted in {d['duration_s']:.0f} s "
              f"({d['throughput_tasks_per_s']:,.0f} tasks/s), "
              f"peak RSS {d['peak_rss_mb']:.0f} MB, "
              f"{d['journal_compactions']} journal compactions, "
              f"DLQ {d['dlq']}")
        print(f"  oracles: {result.oracles.summary()}")
        print(f"  recorded -> {args.out}")
        return 0 if result.ok else 1

    # generate / run share the spec selection flags.
    name = "smoke" if getattr(args, "smoke", False) else args.preset
    overrides = {"seed": args.seed}
    if args.tasks is not None:
        overrides["tasks"] = args.tasks
    if args.executors is not None:
        overrides["executors"] = args.executors
    spec = preset(name, **overrides)

    if args.scenarios_command == "generate":
        scenario = generate(spec)
        print(f"scenario {spec.name} seed={spec.seed}: "
              f"{len(scenario.tasks)} tasks "
              f"({len(scenario.dag_tasks)} DAG, "
              f"{len(scenario.poison_ids)} poison, "
              f"{len(scenario.churn)} churn events)")
        print(f"  fingerprint {scenario.fingerprint()}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"  scenario JSON -> {args.out}")
        return 0

    # run
    scenario = generate(spec)
    planes = ("sim", "live") if args.plane == "both" else (args.plane,)
    shards = getattr(args, "shards", 1)
    plane_note = (f" (live plane federated across {shards} shards)"
                  if shards > 1 else "")
    print(f"scenario {spec.name} seed={spec.seed} "
          f"fingerprint {scenario.fingerprint()[:16]}… "
          f"on {', '.join(planes)}{plane_note}")
    reports = []
    for plane in planes:
        flight_dir = getattr(args, "flight_out", None)
        if plane == "sim":
            report = replay_sim(scenario)
        elif shards > 1:
            report = replay_live_federated(
                scenario, shards=shards, timeout=args.timeout,
                flight_dir=flight_dir)
        else:
            report = replay_live(scenario, timeout=args.timeout,
                                 flight_dir=flight_dir)
        reports.append(report)
        if plane != "sim" and flight_dir is not None:
            n_dumps = len(report.extras.get("flight_dumps", []))
            print(f"  {plane}: {n_dumps} flight dump(s) -> {flight_dir} "
                  f"(analyze with `repro doctor {flight_dir}`)")
        status = "PASS" if report.ok else "FAIL"
        print(f"  {plane}: {status} — {report.completed} completed, "
              f"{report.failed} failed, {report.dlq} DLQ in "
              f"{report.duration_s:.1f} s ({report.throughput:,.0f} tasks/s)")
        if not report.ok:
            for violation in report.oracles.violations:
                print(f"    {violation}", file=sys.stderr)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    if all(r.ok for r in reports):
        print(f"  all oracles passed; reproduce with: repro scenarios run "
              f"--preset {name} --seed {spec.seed}")
        return 0
    print(f"  ORACLE VIOLATION — reproduce with: repro scenarios run "
          f"--preset {name} --seed {spec.seed}", file=sys.stderr)
    return 1


def _cmd_trace(args) -> int:
    import os

    from repro.obs import SPAN_ORDER, read_spans_jsonl

    if args.http is not None:
        return _trace_http(args)
    path = args.metrics
    if os.path.isdir(path):
        path = os.path.join(path, "spans.jsonl")
        if not os.path.exists(path):
            print(f"metrics directory {args.metrics} holds no spans.jsonl "
                  f"(was the live run exported with --metrics-out?)",
                  file=sys.stderr)
            return 2
    elif not os.path.exists(path):
        print(f"no span export at {path} (run `repro live --metrics-out DIR` first)",
              file=sys.stderr)
        return 2
    spans = [s for s in read_spans_jsonl(path) if s.task_id == args.task_id]
    if not spans:
        print(f"no trace recorded for task {args.task_id!r} in {path}", file=sys.stderr)
        return 1
    print(f"trace {spans[0].trace_id} ({len(spans)} spans)")
    for span in spans:
        print(f"  {span}")
    names = [s.name for s in spans]
    missing = [n for n in SPAN_ORDER if n not in names]
    if missing:
        print(f"incomplete chain: missing {', '.join(missing)}")
        return 1
    return 0


def _trace_http(args) -> int:
    """Fetch a span chain from live dispatcher(s)' /tasks/<id>.

    A comma list of shard URLs (a federated run) is asked in turn:
    the shard holding the task — home *or* thief — answers; siblings
    404 and the resolver moves on, so a stolen task still traces.
    """
    import urllib.error

    bases = [u.strip().rstrip("/") for u in args.http.split(",") if u.strip()]
    unreachable = 0
    for base in bases:
        url = base + f"/tasks/{args.task_id}"
        try:
            payload = _fetch_json(url)
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                continue
            print(f"cannot fetch {url}: HTTP {exc.code}", file=sys.stderr)
            return 2
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"cannot fetch {url}: {exc} "
                  f"(is a dispatcher running with --http-port?)", file=sys.stderr)
            unreachable += 1
            continue
        spans = payload.get("spans", [])
        where = f"live, {base}" if len(bases) > 1 else "live"
        print(f"trace for {args.task_id} ({len(spans)} spans, {where})")
        for span in spans:
            name = span.get("name", "?")
            start = span.get("start", 0.0)
            end = span.get("end", start)
            attrs = span.get("attrs", {})
            extras = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            print(f"  {name:<8} t={start:.6f}s dur={(end - start) * 1e3:.3f}ms {extras}")
        return 0
    if unreachable == len(bases):
        return 2
    shard_note = f" on any of {len(bases)} shards" if len(bases) > 1 else ""
    print(f"no trace recorded for task {args.task_id!r}{shard_note} "
          f"at {args.http}{_eviction_note(bases)}", file=sys.stderr)
    return 1


def _eviction_note(bases: list[str]) -> str:
    """Why a chain may be missing though the task ran: the span store
    is bounded.  Empty unless some shard's ``/status`` reports
    evictions (or when none answers — the note is best-effort)."""
    import urllib.error

    notes = []
    for base in bases:
        try:
            store = _fetch_json(base + "/status").get("trace") or {}
        except (urllib.error.URLError, OSError, ValueError):
            continue
        if store.get("evicted_total"):
            where = f"{base}: " if len(bases) > 1 else ""
            notes.append(f"; {where}the collector keeps the newest "
                         f"{store.get('capacity')} traces and has evicted "
                         f"{store['evicted_total']}")
    return "".join(notes)


def _cmd_export(args) -> int:
    from repro.experiments.export import export_all

    paths = export_all(args.out, quick=args.quick)
    for path in paths:
        print(f"wrote {path}")
    print(f"{len(paths)} artifacts in {args.out}/")
    return 0


def _cmd_figure(args) -> int:
    from repro.metrics import AsciiPlot

    if args.name == "fig3":
        from repro.experiments import run_fig3

        result = run_fig3()
        plot = AsciiPlot("Figure 3: throughput vs executor count",
                         x_label="executors", y_label="tasks/s", log_x=True)
        plot.add_series("Falkon (no security)",
                        [r.executors for r in result.rows],
                        [r.throughput_none for r in result.rows])
        plot.add_series("Falkon (GSI)",
                        [r.executors for r in result.rows],
                        [r.throughput_gsi for r in result.rows])
        plot.print()
    elif args.name == "fig5":
        from repro.net.costs import BundlingCostModel

        model = BundlingCostModel()
        sizes = [1, 2, 5, 10, 20, 50, 100, 200, 300, 450, 600, 800, 1000]
        plot = AsciiPlot("Figure 5: bundling throughput",
                         x_label="tasks/bundle", y_label="tasks/s",
                         log_x=True)
        plot.add_series("submission throughput", sizes,
                        [model.throughput(b) for b in sizes])
        plot.print()
    elif args.name == "fig7":
        from repro.experiments import run_fig7

        result = run_fig7()
        lengths = [row.task_seconds for row in result.rows]
        plot = AsciiPlot("Figure 7: efficiency on 64 processors",
                         x_label="task length (s)", y_label="efficiency",
                         log_x=True)
        plot.add_series("Falkon", lengths, [r.falkon for r in result.rows])
        plot.add_series("Condor 6.9.3 (derived)", lengths,
                        [r.condor_693_derived for r in result.rows])
        plot.add_series("PBS 2.1.8", lengths, [r.pbs for r in result.rows])
        plot.print()
    elif args.name == "fig8":
        from repro.experiments import run_fig8

        result = run_fig8(n_tasks=100_000 if args.quick else 2_000_000)
        queue = AsciiPlot("Figure 8: queue length over time",
                          x_label="time (s)", y_label="queued tasks")
        queue.add_series("queue", result.queue_series.times,
                         result.queue_series.values)
        queue.print()
        tput = AsciiPlot("Figure 8: throughput (60-sample moving average)",
                         x_label="time (s)", y_label="tasks/s")
        step = max(1, len(result.moving_avg) // 400)
        tput.add_series("moving average",
                        result.moving_avg.times[::step],
                        result.moving_avg.values[::step])
        tput.print()
        print(f"average {result.average_throughput:.0f} tasks/s over "
              f"{result.duration_minutes:.0f} minutes (paper: 298 over ~112)")
    else:  # fig11
        from repro.workloads.stages18 import STAGE_TASK_COUNTS

        plot = AsciiPlot("Figure 11: tasks per stage (log y)",
                         x_label="stage", y_label="tasks", log_y=True)
        plot.add_series("tasks", list(range(1, 19)), list(STAGE_TASK_COUNTS))
        plot.print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
