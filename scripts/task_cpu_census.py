#!/usr/bin/env python3
"""Where a task's CPU goes in the dispatcher process, by thread, handler,
collector generation and frame kind.

Usage::

    PYTHONPATH=src python scripts/task_cpu_census.py [--waves 20] [--durable] [--profile]
    PYTHONPATH=src python scripts/task_cpu_census.py --paced [--seconds 20]

A bare ``LiveDispatcher`` and four pipelined executors run in this
process; a client in a child process pushes sleep-0 tasks through them
in closed-loop waves of 5 000 (the ``burst_sleep0`` shape of the
standing benchmark), so this process's CPU bill is the SUT's alone.
``--durable`` runs the same waves through the SUT of the benchmark's
two durable workloads instead (``bench/workloads.DURABLE_CONFIG``: a
journal in a temporary directory, heartbeating executors, bounded
retention), which adds the ``journal-flusher`` row and puts compaction
on it.  ``--paced`` drives that durable SUT
with the ``paced_durable`` shape instead of waves: seeded Poisson
arrivals at ``PACED_RATE_PER_S`` whose child client submits each
``TICK_S`` tick's due tasks, open loop, for ``--seconds`` — the
latency-bound regime where per-exchange cost, not per-task work,
dominates.
Four tables, all in µs (or bytes) per task:

* **threads** — each thread's CPU clock over the run;
* **handlers** — the dispatcher's own ``stats().handler_cpu_s``: thread
  CPU inside each message handler and the sweep timer (the loop
  thread's remainder is frame decode, socket I/O and ``select``);
* **collector** — time inside the cyclic GC by generation, from
  ``gc.callbacks`` installed by this script (nothing under ``src/``
  touches ``gc``); it is *included* in whichever thread and handler
  tripped the collection, not additional to them;
* **frames** — bytes and frames sent per message type, both directions,
  counted at ``Connection._transmit`` (patched here, in both
  processes; the child reports its own sends): the per-exchange
  ledger, one row per frame kind that was sent at all.

``--profile`` runs the same waves under an all-thread cProfile
(:mod:`repro.obs.profiling`) and prints the top-20 cumulative frames in
place of the tables, whose clocks the instrumentation would skew: the
tables say which thread and handler, the profile says which function.

See ``docs/PERFORMANCE.md``, "CPU per task" and "The durable path".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

WAVE = 5_000
BUNDLE = 500
EXECUTORS = 4
PIPELINE = 32
#: Seed of the ``--paced`` arrival schedule (both processes draw it).
PACED_SEED = 0
BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench")


def _count_frames() -> tuple[Counter, Counter]:
    """Patch ``Connection._transmit`` to tally (bytes, frames) per type."""
    from repro.live.protocol import Connection
    from repro.net.message import CODE_TO_TYPE

    sent_bytes: Counter = Counter()
    sent_frames: Counter = Counter()
    transmit = Connection._transmit

    def counting_transmit(self, frame: bytes) -> None:
        kind = CODE_TO_TYPE[frame[2]].name
        sent_bytes[kind] += len(frame)
        sent_frames[kind] += 1
        transmit(self, frame)

    Connection._transmit = counting_transmit
    return sent_bytes, sent_frames


def _paced_schedule(seconds: float):
    """The ``paced_durable`` generator: ``(inputs, tasks due per tick,
    tick seconds)`` for *seconds* of schedule."""
    sys.path.insert(0, BENCH_DIR)
    from workloads import PACED_RATE_PER_S, TICK_S, Inputs

    inputs = Inputs(PACED_SEED, "paced_durable")
    return inputs, inputs.poisson_ticks(PACED_RATE_PER_S, seconds), TICK_S


def _submit_waves(client, waves: int) -> bool:
    from repro.types import TaskSpec

    for wave in range(waves):
        futures = client.submit([
            TaskSpec.sleep(0, task_id=f"burst_sleep0-0123456789ab-{i:07d}")
            for i in range(wave * WAVE, (wave + 1) * WAVE)
        ])
        if not all(future.result(timeout=300).ok for future in futures):
            return False
        client.release_settled()
    return True


def _submit_paced(client, seconds: float) -> bool:
    """Open loop: every tick submits what is due, settled or not."""
    inputs, ticks, tick_s = _paced_schedule(seconds)
    futures = []
    started = time.monotonic() + tick_s
    for index, due in enumerate(ticks):
        delay = started + index * tick_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if due:
            futures.extend(client.submit(inputs.specs(due)))
    return all(future.result(timeout=300).ok for future in futures)


def _client(host: str, port: int, waves: int, paced_seconds: float) -> int:
    from repro.live.client import LiveClient

    sent_bytes, sent_frames = _count_frames()
    started = time.process_time()
    client = LiveClient.connect(host, port, bundle_size=BUNDLE)
    try:
        ok = (_submit_paced(client, paced_seconds) if paced_seconds
              else _submit_waves(client, waves))
    finally:
        client.close()
    if not ok:
        return 1
    print(json.dumps({"bytes": sent_bytes, "frames": sent_frames,
                      "cpu_s": time.process_time() - started}))
    return 0


def _thread_cpu() -> dict[str, float]:
    out: dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            out[thread.name] = time.clock_gettime(clock)
        except (OSError, TypeError):
            continue  # thread ended between enumerate and read
    return out


class _CollectorClock:
    """Seconds and collections per GC generation, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        # A collection starts and stops on the thread that tripped it.
        if phase == "start":
            self._started = time.thread_time()
        else:
            generation = info["generation"]
            self.seconds[generation] += time.thread_time() - self._started
            self.collections[generation] += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--waves", type=int, default=20,
                        help="closed-loop waves of 5 000 sleep-0 tasks")
    parser.add_argument("--durable", action="store_true",
                        help="journaled, heartbeating SUT with bounded "
                             "retention (bench/workloads.DURABLE_CONFIG)")
    parser.add_argument("--paced", action="store_true",
                        help="the durable SUT under the paced_durable open-loop "
                             "shape instead of closed-loop waves")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the --paced arrival schedule")
    parser.add_argument("--profile", action="store_true",
                        help="print the top-20 cumulative cProfile frames "
                             "over all threads instead of the tables")
    parser.add_argument("--client", nargs=2, metavar=("HOST", "PORT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    paced_seconds = args.seconds if args.paced else 0.0
    if args.client:
        return _client(args.client[0], int(args.client[1]), args.waves,
                       paced_seconds)

    from repro.live import ioloop
    from repro.live.dispatcher import LiveDispatcher
    from repro.live.executor import LiveExecutor
    from repro.obs.profiling import print_top, profile_all_threads

    sent_bytes, sent_frames = _count_frames()
    config: dict = {}
    scratch = contextlib.ExitStack()
    if args.durable or args.paced:
        sys.path.insert(0, BENCH_DIR)
        from workloads import DURABLE_CONFIG

        config = dict(DURABLE_CONFIG, journal_dir=scratch.enter_context(
            tempfile.TemporaryDirectory(prefix="census-journal-")))
    # Threads are profiled from their first event, so the SUT starts
    # inside the block; the shared outbound loop stops with it so its
    # thread's profile is complete before the merge.
    profiling = profile_all_threads() if args.profile else contextlib.nullcontext()
    with scratch, profiling as collect:
        dispatcher = LiveDispatcher(**config)
        heartbeat = config.get("heartbeat_interval")
        executors = [LiveExecutor(dispatcher.endpoint, pipeline=PIPELINE,
                                  heartbeat_interval=heartbeat).start()
                     for _ in range(EXECUTORS)]
        collector = _CollectorClock()
        tasks = (sum(_paced_schedule(paced_seconds)[1]) if args.paced
                 else args.waves * WAVE)
        try:
            for executor in executors:
                if not executor.wait_registered(timeout=10.0):
                    raise RuntimeError(f"{executor.executor_id} did not register")
            gc.collect()
            gc.callbacks.append(collector)
            sent_bytes.clear()
            sent_frames.clear()
            threads_before = _thread_cpu()
            handlers_before = dispatcher.stats().handler_cpu_s
            cpu_before = time.process_time()
            child = subprocess.run(
                [sys.executable, __file__, "--waves", str(args.waves),
                 *(["--paced", "--seconds", str(args.seconds)] if args.paced
                   else []),
                 "--client", dispatcher.host, str(dispatcher.port)],
                stdout=subprocess.PIPE, text=True)
            cpu = time.process_time() - cpu_before
            handlers = dispatcher.stats().handler_cpu_s
            threads = _thread_cpu()
            gc.callbacks.remove(collector)
            journal = dispatcher.journal.stats() if config else {}
            if child.returncode != 0 or dispatcher.tasks_completed != tasks:
                print(f"census run failed: client exit {child.returncode}, "
                      f"{dispatcher.tasks_completed}/{tasks} completed",
                      file=sys.stderr)
                return 1
            client = json.loads(child.stdout.splitlines()[-1])
        finally:
            for executor in executors:
                executor.stop()
            for executor in executors:
                executor.join(timeout=5.0)
            dispatcher.close()
        if args.profile:
            ioloop.default_loop().stop()
    if args.profile:
        print(f"{tasks} sleep-0 tasks under instrumentation")
        print(print_top(collect(), 20), end="")
        return 0

    def per_task(seconds: float) -> float:
        return seconds / tasks * 1e6

    shape = (f"open loop for {args.seconds:g} s" if args.paced
             else f"{args.waves} waves of {WAVE}")
    print(f"{tasks} sleep-0 tasks, {shape}, "
          f"{EXECUTORS} executors at depth {PIPELINE}"
          + (f", durable ({journal['compactions']} compactions)"
             if config else ""))
    print(f"\nprocess CPU {per_task(cpu):7.1f} us/task   "
          f"(client process {per_task(client['cpu_s']):.1f})")

    print(f"\n{'thread':<28} {'us/task':>8}")
    executor_names = {e.executor_id for e in executors}
    folded: Counter = Counter()
    for name, after in threads.items():
        spent = after - threads_before.get(name, 0.0)
        folded["executors (x%d)" % EXECUTORS if name in executor_names
               else name] += spent
    for name, spent in sorted(folded.items(), key=lambda kv: -kv[1]):
        if per_task(spent) >= 0.05:
            print(f"{name:<28} {per_task(spent):8.1f}")

    print(f"\n{'handler':<28} {'us/task':>8}")
    spent_in = {name: handlers[name] - handlers_before.get(name, 0.0)
                for name in handlers}
    for name, spent in sorted(spent_in.items(), key=lambda kv: -kv[1]):
        if per_task(spent) >= 0.05:
            print(f"{name:<28} {per_task(spent):8.1f}")
    print(f"{'all handlers':<28} {per_task(sum(spent_in.values())):8.1f}")

    print(f"\n{'collector':<28} {'us/task':>8} {'collections':>12}")
    for generation in range(3):
        print(f"{'generation %d' % generation:<28} "
              f"{per_task(collector.seconds[generation]):8.1f} "
              f"{collector.collections[generation]:12d}")
    print(f"{'all generations':<28} {per_task(sum(collector.seconds)):8.1f}")

    print(f"\n{'frame kind':<28} {'bytes/task':>10} {'frames/task':>12}")
    sent_bytes.update(client["bytes"])
    sent_frames.update(client["frames"])
    for kind, size in sorted(sent_bytes.items(), key=lambda kv: -kv[1]):
        print(f"{kind:<28} {size / tasks:10.1f} "
              f"{sent_frames[kind] / tasks:12.3f}")
    print(f"{'all frames':<28} {sum(sent_bytes.values()) / tasks:10.1f} "
          f"{sum(sent_frames.values()) / tasks:12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
