"""L16 — the live twin of Figure 16: capacity scaling across dispatcher shards.

Not a paper artifact.  Two subprocess shards behind a ``ShardRouter``
must deliver at least 1.5x one shard's aggregate capacity.  Both
configurations run in the same test — same machine state, router in
this process, shards as children — so the ratio isolates what
federation adds.  Per-shard resources are held constant and the tasks
carry a fixed 5 ms runtime (the paper's task-length framing, Figure 7):
one shard's ceiling is ``executors / task_seconds``, federation
multiplies the deployment, and the ratio shows aggregate capacity
rather than dispatch CPU, which cannot scale on a one-core host
(docs/API.md, "Shard-scaling methodology").
"""

import time

from repro.cli import _ShardFleet
from repro.live.federation import ShardRouter
from repro.metrics import Table
from repro.types import TaskSpec

TASK_SECONDS = 0.005
N_TASKS = 2000
EXECUTORS_PER_SHARD = 4
PIPELINE = 32
MIN_SPEEDUP_AT_2_SHARDS = 1.5


def _best_rate(shards: int) -> float:
    """Best of two rounds of ``N_TASKS`` through *shards* shards."""
    best = 0.0
    with _ShardFleet(shards, executors=EXECUTORS_PER_SHARD,
                     pipeline=PIPELINE).wait_ready() as fleet:
        router = ShardRouter(fleet.urls, bundle_size=500)
        try:
            for round_index in range(2):
                tasks = [
                    TaskSpec.sleep(TASK_SECONDS,
                                   task_id=f"scale{shards}-{round_index}-{i:06d}")
                    for i in range(N_TASKS)
                ]
                started = time.perf_counter()
                results = router.run(tasks, timeout=300)
                elapsed = time.perf_counter() - started
                assert all(r.ok for r in results)
                best = max(best, N_TASKS / elapsed)
        finally:
            router.shutdown()
    return best


def test_two_shards_scale_aggregate_capacity(benchmark, show):
    rates = benchmark.pedantic(
        lambda: {shards: _best_rate(shards) for shards in (1, 2)},
        rounds=1, iterations=1)

    table = Table(
        f"Shard scaling: {N_TASKS} sleep-{TASK_SECONDS * 1e3:g}ms tasks, "
        f"{EXECUTORS_PER_SHARD} executors/shard, best of 2 rounds",
        ["Shards", "tasks/s", "vs 1 shard"],
    )
    for shards, rate in rates.items():
        table.add_row(shards, rate, f"{rate / rates[1]:.2f}x")
    show(table)

    assert rates[2] / rates[1] >= MIN_SPEEDUP_AT_2_SHARDS
