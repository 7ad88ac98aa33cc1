#!/usr/bin/env python3
"""Quickstart: run real tasks through a local Falkon deployment.

Falkon's pieces — dispatcher, executors, provisioner, client — all run
on this machine over real TCP sockets, speaking the paper's protocol
(register / work pushed to idle executors / result / piggy-backed ack).

Run:  python examples/quickstart.py
"""

import time

from repro.live import LocalFalkon
from repro.types import TaskSpec


def main() -> None:
    # -- 1. A fixed pool of four executors, real shell commands ----------
    print("== shell tasks through Falkon ==")
    with LocalFalkon(executors=4) as falkon:
        results = falkon.map_shell(
            [
                "echo hello from falkon",
                "uname -s",
                "python3 -c print(6*7)",
            ]
        )
        for result in results:
            print(f"  {result.task_id}: rc={result.return_code} "
                  f"stdout={result.stdout.strip()!r} on {result.executor_id}")

    # -- 2. Registered Python callables (no fork per task) ----------------
    print("\n== python tasks through Falkon ==")
    registry = {"fib": lambda n: _fib(int(n))}
    with LocalFalkon(executors=4, python_registry=registry) as falkon:
        results = falkon.map_python("fib", [(n,) for n in range(10, 20)])
        print("  fib(10..19) =", [r.stdout for r in results])

    # -- 3. Throughput: the paper's sleep-0 microbenchmark, locally -------
    print("\n== dispatch throughput (sleep-0 microbenchmark) ==")
    with LocalFalkon(executors=4, bundle_size=300) as falkon:
        n = 2000
        tasks = [TaskSpec.sleep(0, task_id=f"qs-{i:04d}") for i in range(n)]
        start = time.monotonic()
        results = falkon.run(tasks, timeout=60)
        elapsed = time.monotonic() - start
        assert all(r.ok for r in results)
        print(f"  {n} tasks in {elapsed:.2f}s -> {n / elapsed:,.0f} tasks/s "
              f"(the paper's UC_x64 testbed measured 487 tasks/s)")

    # -- 4. Adaptive provisioning: executors appear with demand -----------
    print("\n== dynamic provisioning ==")
    with LocalFalkon(provision=True, max_executors=4, idle_timeout=1.0) as falkon:
        tasks = [TaskSpec.sleep(0.2, task_id=f"dp-{i:03d}") for i in range(12)]
        results = falkon.run(tasks, timeout=60)
        print(f"  {len(results)} tasks done; provisioner made "
              f"{falkon.provisioner.allocations} allocations "
              f"(pool bounded at {falkon.provisioner.max_executors})")
        time.sleep(2.0)  # idle release (the paper's distributed policy)
        print(f"  pool after idle release: {falkon.provisioner.pool_size} executors")


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


if __name__ == "__main__":
    main()
