"""Cold start of a live-plane process, split into import, start and the rest.

Usage: ``python scripts/cold_start.py [-n 8] [--src DIR ...]``

Copies each ``DIR`` (default: this checkout's ``src``) without any
``__pycache__`` into a temporary directory, then spawns N children per
tree with ``PYTHONDONTWRITEBYTECODE=1``, so every child compiles what it
imports, as a freshly checked-out SUT does.  Each child imports the live
plane, starts a ``LiveDispatcher`` and 4 ``LiveExecutor`` s and waits
for them to register.  One line per tree: the median wall time from
spawn to registered, its import and start parts, and the ``repro``
modules and source lines the child loaded.  Given several trees (say a
parent commit's and a change's), children alternate between them, so a
slow spell of the host falls on both alike.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

CHILD = """
import json, sys, time
t0 = time.perf_counter()
from repro.live.dispatcher import LiveDispatcher
from repro.live.executor import LiveExecutor
t1 = time.perf_counter()
dispatcher = LiveDispatcher()
executors = [LiveExecutor(dispatcher.endpoint).start() for _ in range(4)]
assert all(e.wait_registered(timeout=10.0) for e in executors)
t2 = time.perf_counter()
mods = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
lines = sum(open(m.__file__, encoding="utf-8").read().count("\\n") for m in mods)
print(json.dumps({"import_s": t1 - t0, "start_s": t2 - t1,
                  "modules": len(mods), "lines": lines}), flush=True)
for e in executors:
    e.stop()
dispatcher.close()
"""


def spawn(src: str) -> dict:
    """One child on the tree at *src*; its row plus the wall time."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                             stdout=subprocess.PIPE, text=True)
    row = json.loads(child.stdout.readline())
    row["total_s"] = time.perf_counter() - started
    child.communicate(timeout=30)
    if child.returncode != 0:
        raise SystemExit(f"child on {src} exited {child.returncode}")
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=8, help="children per tree")
    parser.add_argument("--src", action="append", help="a source tree (repeatable)")
    args = parser.parse_args()
    trees = args.src or [os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
    rows: dict[str, list[dict]] = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as scratch:
        copies = {}
        for i, tree in enumerate(trees):
            copies[tree] = os.path.join(scratch, str(i), "src")
            shutil.copytree(tree, copies[tree],
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(args.n):
            for tree in (trees if i % 2 == 0 else trees[::-1]):
                rows[tree].append(spawn(copies[tree]))
    for tree, runs in rows.items():
        m = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        rest = m["total_s"] - m["import_s"] - m["start_s"]
        print(f"{tree}: cold start, median of {args.n}: {m['total_s'] * 1e3:.0f} ms "
              f"(import {m['import_s'] * 1e3:.0f}, start {m['start_s'] * 1e3:.0f}, "
              f"interpreter and the rest {rest * 1e3:.0f}); "
              f"{m['modules']:.0f} repro modules, {m['lines']:.0f} source lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
