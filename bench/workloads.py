"""The four named workloads and the one seeded generator of their inputs.

Everything a run feeds the system under test comes from
:class:`Inputs`: the task ids and, for the open-loop workload, the
Poisson arrival schedule.  The SUT never sees the seed — only the
generated specs.  Shapes, sizes, rates and task lengths are fixed here
and are *not* seeded: a seed varies which ids and which arrival instants
a run uses, never how much work it does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.types import TaskSpec

#: Client → dispatcher bundle size and executor pipeline depth used by
#: every workload (the configuration BENCH_dispatch.json calls
#: "pipelined (depth 32)").
BUNDLE_SIZE = 500
PIPELINE_DEPTH = 32

#: Closed-loop wave size; never scaled (cut wave *count* to save time).
WAVE_SIZE = 5_000
#: Untimed sleep-0 tasks sent before every timed window so lazy set-up
#: (first-frame negotiation, allocator growth) is not billed to it.
WARMUP_TASKS = 1_000

#: Open-loop offered load and generator tick for ``paced_durable``.
PACED_RATE_PER_S = 500.0
TICK_S = 0.010
#: How long the open-loop run waits for stragglers after its last tick;
#: whatever has not settled by then counts as failed.
DRAIN_DEADLINE_S = 60.0

#: SUT knobs of the two durable workloads (journal + telemetry on).
DURABLE_CONFIG = {
    "heartbeat_interval": 0.25,
    "retain_settled": 20_000,
    "journal_compact_every": 20_000,
}
#: HTTP scrape period (``/status`` + ``/metrics``) on durable workloads.
SCRAPE_PERIOD_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what the workload stresses and what it must not reward.
    why: str
    #: ``waves``: closed loop, WAVE_SIZE tasks per wave until the window
    #: is spent.  ``single``: closed loop, one submit sized to fill the
    #: window.  ``paced``: open loop, Poisson arrivals on a 10 ms tick.
    shape: str
    executors: int
    #: Journal, heartbeats with stats, HTTP scraped at 1 Hz, retention.
    durable: bool
    task_seconds: float = 0.0

    @property
    def loop(self) -> str:
        return "open" if self.shape == "paced" else "closed"


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "burst_sleep0",
        "Fig. 3 peak: closed loop, 1 client, 5000-task sleep-0 waves, bare "
        "dispatcher; codec, ioloop, claim/settle and span/flight recording "
        "do all the work, the journal none.",
        shape="waves", executors=4, durable=False),
    Workload(
        "sustained_durable",
        "Fig. 8 sustained rate: same waves through a journaled, heartbeating, "
        "HTTP-scraped dispatcher with bounded retention; journal, compaction "
        "and eviction dominate, and wave decay shows in sustain_ratio.",
        shape="waves", executors=4, durable=True),
    Workload(
        "paced_durable",
        "Open loop: seeded Poisson arrivals at 500 tasks/s on 10 ms ticks into "
        "the durable SUT (~30% busy); latency-bound, so bigger batching or "
        "flush windows that help throughput show here as worse latency.",
        shape="paced", executors=4, durable=True),
    Workload(
        "exec_5ms",
        "Fig. 6 efficiency: closed loop, 8 executors, one submit of 5 ms "
        "sleeps, bare dispatcher (~50% busy, ~1 task per exchange); the bypass "
        "workload on which batching-oriented work predicts no change.",
        shape="single", executors=8, durable=False, task_seconds=0.005),
)}


class Inputs:
    """Seeded source of every input one run feeds the SUT."""

    def __init__(self, seed: int, workload: str) -> None:
        self._rng = random.Random(seed)
        #: The seed's footprint in task ids: two seeds never share an id.
        self._prefix = f"{workload}-{self._rng.getrandbits(48):012x}"
        self._next = 0

    def task_id(self, index: int) -> str:
        """Id of the *index*-th task this run generates."""
        return f"{self._prefix}-{index:07d}"

    def specs(self, n: int, seconds: float = 0) -> list[TaskSpec]:
        """The next *n* ``sleep <seconds>`` specs, ids in sequence."""
        start = self._next
        self._next += n
        task_id = self.task_id
        return [TaskSpec.sleep(seconds, task_id=task_id(i))
                for i in range(start, start + n)]

    def poisson_ticks(self, rate_per_s: float, seconds: float,
                      tick_s: float = TICK_S) -> list[int]:
        """Arrivals per tick for a Poisson process of *rate_per_s*.

        Exponential gaps are drawn until *seconds* is covered and each
        arrival is binned into the tick it falls in; a task is due at
        the start of its tick.  Equal seeds give equal lists.
        """
        ticks = [0] * max(1, round(seconds / tick_s))
        t = self._rng.expovariate(rate_per_s)
        while t < seconds:
            ticks[min(int(t / tick_s), len(ticks) - 1)] += 1
            t += self._rng.expovariate(rate_per_s)
        return ticks
