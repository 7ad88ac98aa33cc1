#!/usr/bin/env python3
"""Where a task's CPU goes in the dispatcher process, by thread, handler,
collector generation and frame kind.

Usage::

    PYTHONPATH=src python scripts/task_cpu_census.py [--waves 20] [--durable] [--profile]
    PYTHONPATH=src python scripts/task_cpu_census.py --paced [--seconds 20]
    PYTHONPATH=src python scripts/task_cpu_census.py --repeat 5 [--durable]

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

``--repeat N`` runs the census N times, each in a fresh process, and
prints every value as its median and [min, max] over the runs: on a
small, shared host one run is not a measurement (the process CPU of
three consecutive runs can differ by 40 %).

See ``docs/PERFORMANCE.md``, "CPU per task" and "The durable path".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
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


def _parse() -> argparse.Namespace:
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
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the census this many times, each in a fresh "
                             "process, and print every value's median and "
                             "[min, max] over the runs")
    parser.add_argument("--profile", action="store_true",
                        help="print the top-20 cumulative cProfile frames "
                             "over all threads instead of the tables")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--client", nargs=2, metavar=("HOST", "PORT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def _measure(args: argparse.Namespace) -> "dict | None":
    """One census run in this process: its tables as a dict, or
    ``None`` when the run failed (or only printed its profile)."""
    paced_seconds = args.seconds if args.paced else 0.0
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
                return None
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
        return None

    def per_task(seconds: float) -> float:
        return seconds / tasks * 1e6

    shape = (f"open loop for {args.seconds:g} s" if args.paced
             else f"{args.waves} waves of {WAVE}")
    census: dict = {
        "title": (f"{tasks} sleep-0 tasks, {shape}, "
                  f"{EXECUTORS} executors at depth {PIPELINE}"
                  + (", durable" if config else "")),
        "compactions": journal.get("compactions", 0),
        "process": {"process CPU": per_task(cpu),
                    "client process": per_task(client["cpu_s"])},
    }
    executor_names = {e.executor_id for e in executors}
    folded: Counter = Counter()
    for name, after in threads.items():
        spent = after - threads_before.get(name, 0.0)
        if name in executor_names:
            name = "executors (x%d)" % EXECUTORS
        elif name.startswith("ioloop-dispatcher-"):
            name = "ioloop-dispatcher"  # the port differs run to run
        folded[name] += spent
    census["thread"] = {name: per_task(spent) for name, spent in folded.items()}
    spent_in = {name: handlers[name] - handlers_before.get(name, 0.0)
                for name in handlers}
    census["handler"] = {name: per_task(spent) for name, spent in spent_in.items()}
    census["handler"]["all handlers"] = per_task(sum(spent_in.values()))
    census["collector"] = {
        f"generation {generation}": (per_task(collector.seconds[generation]),
                                     collector.collections[generation])
        for generation in range(3)}
    census["collector"]["all generations"] = (per_task(sum(collector.seconds)),
                                              sum(collector.collections))
    sent_bytes.update(client["bytes"])
    sent_frames.update(client["frames"])
    census["frame kind"] = {kind: (size / tasks, sent_frames[kind] / tasks)
                            for kind, size in sent_bytes.items()}
    census["frame kind"]["all frames"] = (sum(sent_bytes.values()) / tasks,
                                          sum(sent_frames.values()) / tasks)
    return census


#: Each table's value columns after the row name (``--repeat`` prints
#: every value as its median and [min, max] over the runs).
COLUMNS = {"thread": ("us/task",), "handler": ("us/task",),
           "collector": ("us/task", "collections"),
           "frame kind": ("bytes/task", "frames/task")}
#: The value formats of a table (the process line uses the first).
FORMATS = {"collector": ("{:.1f}", "{:.0f}"),
           "frame kind": ("{:.1f}", "{:.3f}")}


def _spread(values: list[float], fmt: str) -> str:
    """*values* as their median alone (one run) or ``median [min, max]``."""
    if len(values) == 1:
        return fmt.format(values[0])
    return (fmt.format(statistics.median(values))
            + " [" + fmt.format(min(values)) + ", " + fmt.format(max(values)) + "]")


def _print_census(runs: list[dict]) -> None:
    """One run's tables, or every value's spread over *runs*: the rows
    are those of the first run, in its order; a row some run lacks
    counts as 0 there."""
    first = runs[0]
    repeat = f", median [min, max] over {len(runs)} runs" if len(runs) > 1 else ""
    compactions = _spread([run["compactions"] for run in runs], "{:.0f}")
    print(first["title"] + (f" ({compactions} compactions)" if "durable" in first["title"]
                            else "") + repeat)
    print("\nprocess CPU "
          + _spread([run["process"]["process CPU"] for run in runs], "{:.1f}")
          + " us/task   (client process "
          + _spread([run["process"]["client process"] for run in runs], "{:.1f}") + ")")
    for table, columns in COLUMNS.items():
        formats = FORMATS.get(table, ("{:.1f}",))
        rows = list(first[table].items())
        if table != "collector":
            rows.sort(key=lambda kv: (kv[0].startswith("all "),
                                      -(kv[1][0] if len(columns) > 1 else kv[1])))
        width = 14 if len(runs) == 1 else 26
        print(f"\n{table:<28}" + "".join(f" {column:>{width}}" for column in columns))
        for name, value in rows:
            if table in ("thread", "handler") and value < 0.05 and not name.startswith("all"):
                continue
            cells = []
            for column in range(len(columns)):
                values = []
                for run in runs:
                    got = run[table].get(name, (0.0,) * len(columns)
                                         if len(columns) > 1 else 0.0)
                    values.append(got[column] if len(columns) > 1 else got)
                cells.append(_spread(values, formats[min(column, len(formats) - 1)]))
            print(f"{name:<28}" + "".join(f" {cell:>{width}}" for cell in cells))


def main() -> int:
    args = _parse()
    if args.client:
        return _client(args.client[0], int(args.client[1]), args.waves,
                       args.seconds if args.paced else 0.0)
    if args.json:
        census = _measure(args)
        if census is None:
            return 1
        print(json.dumps(census))
        return 0
    if args.repeat > 1 and not args.profile:
        # Each run is a fresh process: a second SUT in this one would
        # start on a warmed heap, a grown ring and a busier collector.
        runs = []
        for _ in range(args.repeat):
            child = subprocess.run(
                [sys.executable, __file__, "--json", "--waves", str(args.waves),
                 "--seconds", str(args.seconds),
                 *(["--durable"] if args.durable else []),
                 *(["--paced"] if args.paced else [])],
                stdout=subprocess.PIPE, text=True)
            if child.returncode != 0:
                return 1
            runs.append(json.loads(child.stdout.splitlines()[-1]))
        _print_census(runs)
        return 0
    census = _measure(args)
    if census is None:
        return 0 if args.profile else 1
    _print_census([census])
    return 0


if __name__ == "__main__":
    sys.exit(main())
