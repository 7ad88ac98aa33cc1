#!/usr/bin/env python3
"""Where a settled task's bytes sit in the dispatcher, by structure.

Usage::

    PYTHONPATH=src python scripts/task_memory_census.py [--tasks 100000]

A bare ``LiveDispatcher`` and four pipelined executors run in this
process under ``tracemalloc``; a client in a child process pushes
sleep-0 tasks through them in closed-loop waves (the ``burst_sleep0``
shape of the standing benchmark) and exits, so what stays traced is
what the dispatcher retains.  The by-structure table is a deep
``sys.getsizeof`` walk over the dispatcher's records and its event
ring (every task transition, chained per task, plus the other flight
events); an object reachable from two structures is charged to the
first in the order printed (task-id strings and the three stamps land
under "records"; "spec_dict" is the one spec row: a record keeps its
spec only as the wire dict, and only while the task can still be sent;
"result" is the result object a settled record keeps as it arrived).
The walk reads the dispatcher's and the ring's private fields — this
is a diagnostic, not an API consumer, and ``scripts/verify.sh`` runs
it small so that a renamed field fails there.  Collector counts are the process's
``gc.get_stats()`` delta over the run, and tracked containers per task
the ``len(gc.get_objects())`` delta after a full collection: what every
later full collection walks (``docs/PERFORMANCE.md``, "Per-task memory"),
with the types that make up that delta.
"""

from __future__ import annotations

import argparse
import collections
import enum
import gc
import resource
import subprocess
import sys
import tracemalloc
import types

WAVE = 5_000
BUNDLE = 500
EXECUTORS = 4
PIPELINE = 32

_SHARED = (type, types.ModuleType, types.FunctionType, types.MethodType,
           types.BuiltinFunctionType, enum.Enum)


def _client(host: str, port: int, tasks: int) -> int:
    from repro.live.client import LiveClient
    from repro.types import TaskSpec

    client = LiveClient.connect(host, port, bundle_size=BUNDLE)
    try:
        for start in range(0, tasks, WAVE):
            futures = client.submit([
                TaskSpec.sleep(0, task_id=f"burst_sleep0-0123456789ab-{i:07d}")
                for i in range(start, min(start + WAVE, tasks))
            ])
            for future in futures:
                if not future.result(timeout=300).ok:
                    return 1
            client.release_settled()
    finally:
        client.close()
    return 0


class _Walk:
    """Deep sizes with every object charged once, to its first reacher."""

    def __init__(self) -> None:
        self.seen: set[int] = set()

    def shallow(self, obj) -> int:
        """*obj* and its attribute dict, not what they point at."""
        if id(obj) in self.seen or isinstance(obj, _SHARED):
            return 0
        self.seen.add(id(obj))
        size = sys.getsizeof(obj)
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None and id(attrs) not in self.seen:
            self.seen.add(id(attrs))
            size += sys.getsizeof(attrs)
        return size

    def deep(self, root) -> int:
        total = 0
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in self.seen or isinstance(obj, _SHARED):
                continue
            self.seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            else:
                attrs = getattr(obj, "__dict__", None)
                if attrs is not None:
                    stack.append(attrs)
                for cls in type(obj).__mro__:
                    for name in getattr(cls, "__slots__", ()):
                        if hasattr(obj, name):
                            stack.append(getattr(obj, name))
        return total


def _by_structure(dispatcher) -> dict[str, int]:
    walk = _Walk()
    records = dispatcher._records
    out = {"records": sys.getsizeof(records)}
    for name in ("spec_dict", "result"):
        out[name] = 0
    walk.seen.add(id(records))
    for task_id, record in records.items():
        out["records"] += (walk.deep(task_id) + walk.shallow(record)
                           + walk.deep(record.submitted) + walk.deep(record.dispatched)
                           + walk.deep(record.completed))
        out["spec_dict"] += walk.deep(record.spec_dict)
        out["result"] += walk.deep(record.result)
    ring = dispatcher.flight
    out["ring attrs"] = sum(walk.deep(attrs) for attrs in ring._attrs)
    out["event ring"] = walk.deep(ring)
    return out


def _type_counts() -> collections.Counter:
    """Collector-tracked objects by type name."""
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tasks", type=int, default=100_000)
    parser.add_argument("--client", nargs=2, metavar=("HOST", "PORT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.client:
        return _client(args.client[0], int(args.client[1]), args.tasks)

    from repro.live.dispatcher import LiveDispatcher
    from repro.live.executor import LiveExecutor

    tracemalloc.start()
    dispatcher = LiveDispatcher()
    executors = [LiveExecutor(dispatcher.endpoint, pipeline=PIPELINE).start()
                 for _ in range(EXECUTORS)]
    try:
        for executor in executors:
            if not executor.wait_registered(timeout=10.0):
                raise RuntimeError(f"{executor.executor_id} did not register")
        gc.collect()
        traced_before = tracemalloc.get_traced_memory()[0]
        types_before = _type_counts()
        tracked_before = sum(types_before.values())
        gc_before = [gen["collections"] for gen in gc.get_stats()]
        code = subprocess.run(
            [sys.executable, __file__, "--tasks", str(args.tasks),
             "--client", dispatcher.host, str(dispatcher.port)]).returncode
        gc_after = [gen["collections"] for gen in gc.get_stats()]
        if code != 0 or dispatcher.tasks_completed != args.tasks:
            print(f"census run failed: client exit {code}, "
                  f"{dispatcher.tasks_completed}/{args.tasks} completed",
                  file=sys.stderr)
            return 1
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - traced_before
        types_after = _type_counts()
        tracked = sum(types_after.values()) - tracked_before
        types_after.subtract(types_before)
        tracemalloc.stop()
        table = _by_structure(dispatcher)
    finally:
        for executor in executors:
            executor.stop()
        for executor in executors:
            executor.join(timeout=5.0)
        dispatcher.close()

    n = args.tasks
    scale = 100_000 / n
    print(f"{n} sleep-0 tasks settled and retained")
    print(f"{'structure':<12} {'MB':>8} {'bytes/task':>11}")
    for name, size in table.items():
        print(f"{name:<12} {size / 1e6:8.1f} {size / n:11.0f}")
    walked = sum(table.values())
    print(f"{'walked':<12} {walked / 1e6:8.1f} {walked / n:11.0f}")
    print(f"{'traced':<12} {traced / 1e6:8.1f} {traced / n:11.0f}"
          "   (tracemalloc, whole process)")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB"
          " (with tracemalloc's own tables)")
    print(f"tracked containers per task: {tracked / n:.2f}"
          " (gc.get_objects() delta after a full collection)")
    print("  by type: " + "  ".join(
        f"{name} {count / n:.3f}" for name, count in types_after.most_common(5)))
    print(f"gc collections per 100k tasks: gen0 {(gc_after[0] - gc_before[0]) * scale:.0f}"
          f"  gen1 {(gc_after[1] - gc_before[1]) * scale:.0f}"
          f"  full {(gc_after[2] - gc_before[2]) * scale:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
