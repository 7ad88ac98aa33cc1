"""The system under test, in its own process.

``python bench/sut.py`` serves one :class:`~repro.live.dispatcher.LiveDispatcher`
plus N :class:`~repro.live.executor.LiveExecutor` s and answers one JSON
request per line on stdin with one JSON reply per line on stdout.  The
benchmark drives it over loopback TCP from another process, so the load
generator never competes for the SUT's interpreter lock and the two
CPU bills separate from outside.

:class:`SutProcess` is the parent-side handle of the same protocol.
Nothing under ``src/`` is instrumented: every number the child reports
comes from a public surface (``stats()``, ``metrics.snapshot()``,
``journal.stats()``, ``spans.chain()``) or from the OS (process and
per-thread CPU clocks, ``ru_maxrss``).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Gaps between consecutive dispatcher spans of the settling attempt
#: (``submit → enqueue → notify → pull → [exec] → result → ack``).
#: submit → enqueue is not among them: the dispatcher stamps both spans
#: with one clock reading, so that gap is 0 by construction.
STAGES = (
    ("queue_wait", "enqueue", "notify"),
    ("notify_pull", "notify", "pull"),
    ("pull_result", "pull", "result"),
    ("result_ack", "result", "ack"),
)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------
class _Sut:
    """Owns the dispatcher and executors for the child's lifetime."""

    def __init__(self) -> None:
        self.dispatcher = None
        self.executors: list = []

    def start(self, executors: int, pipeline_depth: int,
              journal_dir: Optional[str] = None, http: bool = False,
              **dispatcher_kwargs: Any) -> dict:
        from repro.live.dispatcher import LiveDispatcher
        from repro.live.executor import LiveExecutor

        heartbeat = dispatcher_kwargs.get("heartbeat_interval")
        self.dispatcher = LiveDispatcher(journal_dir=journal_dir,
                                         **dispatcher_kwargs)
        self.executors = [
            LiveExecutor(self.dispatcher.endpoint, pipeline=pipeline_depth,
                         heartbeat_interval=heartbeat).start()
            for _ in range(executors)
        ]
        for executor in self.executors:
            if not executor.wait_registered(timeout=10.0):
                raise RuntimeError(f"{executor.executor_id} did not register")
        reply = {"host": self.dispatcher.host, "port": self.dispatcher.port,
                 "http_port": None}
        if http:
            server = self.dispatcher.serve_http(
                port=0,
                registries_fn=lambda: [e.metrics for e in self.executors])
            reply["http_port"] = server.port
        return reply

    def sample(self, threads: bool = False) -> dict:
        """Process CPU, peak RSS and (optionally) per-thread CPU now."""
        reply = {
            "cpu_s": time.process_time(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if threads:
            per_thread: dict[str, float] = {}
            for thread in threading.enumerate():
                try:
                    clock = time.pthread_getcpuclockid(thread.ident)
                    per_thread[thread.name] = time.clock_gettime(clock)
                except (OSError, TypeError):
                    continue  # thread ended between enumerate and read
            reply["threads"] = per_thread
        return reply

    def collect(self, sample_ids: list[str]) -> dict:
        """Read the public surfaces after the timed window."""
        dispatcher = self.dispatcher
        spans = dispatcher.spans
        gaps: dict[str, list[float]] = {name: [] for name, _, _ in STAGES}
        complete = 0
        traced = 0
        for task_id in sample_ids:
            chain = spans.chain(task_id)
            if not chain:
                continue  # evicted from the bounded collector
            traced += 1
            if not spans.chain_errors(task_id, chain):
                complete += 1
            results = [s for s in chain if s.name == "result"]
            if not results:
                continue
            attempt = results[-1].attempt
            start = {s.name: s.start for s in chain
                     if s.attempt == attempt or s.name == "submit"}
            for name, a, b in STAGES:
                if a in start and b in start:
                    gaps[name].append((start[b] - start[a]) * 1e3)
        return {
            "stats": dispatcher.stats().as_dict(),
            "metrics": dispatcher.metrics.snapshot(),
            "journal": (dispatcher.journal.stats()
                        if dispatcher.journal is not None else None),
            "dlq": len(dispatcher.dlq_list()),
            "executed": {e.executor_id: e.tasks_executed for e in self.executors},
            "chains_sampled": traced,
            "chains_complete": complete,
            "stages_ms": {name: {"p50": percentile(values, 50),
                                 "p99": percentile(values, 99)}
                          for name, values in gaps.items()},
        }

    def stop(self) -> dict:
        for executor in self.executors:
            executor.stop()
        for executor in self.executors:
            executor.join(timeout=5.0)
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.dispatcher = None
        self.executors = []
        return self.sample()


def _serve() -> int:
    # The protocol owns the real stdout; anything the library prints
    # goes to stderr instead of corrupting a reply line.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr
    sys.path.insert(0, SRC)
    sut = _Sut()
    try:
        for line in sys.stdin:  # EOF (parent gone) ends the loop
            request = json.loads(line)
            op = request["op"]
            try:
                reply = {"ok": True, **getattr(sut, op)(**request.get("args", {}))}
            except Exception as exc:  # report, let the parent decide
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            out.write(json.dumps(reply) + "\n")
            out.flush()
            if op == "stop":
                return 0
    finally:
        sut.stop()  # no-op after a "stop" request
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class SutError(RuntimeError):
    pass


class SutProcess:
    """Spawn the child, start the SUT in it, and talk to it."""

    def __init__(self, **start_args: Any) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.final: Optional[dict] = None
        try:
            self.info = self.call("start", **start_args)
        except BaseException:
            self.kill()
            raise
        self.address = (self.info["host"], self.info["port"])

    def call(self, op: str, **args: Any) -> dict:
        try:
            self._proc.stdin.write(json.dumps({"op": op, "args": args}) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except OSError as exc:
            raise SutError(f"SUT pipe failed during {op!r}: {exc}") from exc
        if not line:
            raise SutError(f"SUT exited during {op!r} (code {self._proc.poll()})")
        reply = json.loads(line)
        if not reply.pop("ok"):
            raise SutError(f"SUT {op!r} failed: {reply['error']}")
        return reply

    def stop(self) -> dict:
        """Shut the SUT down cleanly; returns its final sample."""
        if self.final is None:
            try:
                self.final = self.call("stop")
            finally:
                self.kill()
        return self.final

    def kill(self) -> None:
        """Make sure the child is gone (idempotent; waits for it)."""
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "SutProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.final is None:
            self.kill()


if __name__ == "__main__":
    sys.exit(_serve())
