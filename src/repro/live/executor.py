"""The live executor: registers, takes pushed work, runs it for real.

Tasks execute as subprocesses (``command`` + ``args``) or as registered
Python callables when the command is ``python:<name>``; ``sleep`` is
interpreted natively so micro-benchmarks don't fork.  The executor
blocks on its socket until work arrives: a WORK frame the dispatcher
pushes while the executor is idle (where the paper's §3.3 sends a
NOTIFY and waits for a GET_WORK), or the next tasks piggy-backed on a
RESULT_ACK (§3.4).  Both carry a ``tasks`` list of up to ``pipeline``
entries and RESULT a ``results`` list; depth 1 (the default) is the
one-entry case of the same shapes.

A finite ``idle_timeout`` implements the distributed release policy:
an executor that waits that long without work de-registers and exits
(§3.1).

Fault tolerance: with a ``heartbeat_interval`` the executor emits
HEARTBEAT frames (a timer on the shared I/O loop) so the dispatcher
can tell a slow task from a dead agent; when the connection drops
unexpectedly it reconnects on the shared :func:`~repro.live.protocol.backoff`
schedule and re-registers (the ``reconnect`` flag supersedes the stale
session).

Telemetry: each HEARTBEAT piggy-backs a compact ``stats`` dict that
the dispatcher keeps as this executor's ``/status`` row — no extra
frames, no extra round trips.

Crash resilience (``docs/RELIABILITY.md``): a result whose RESULT
frame could not be sent (the dispatcher died or the link dropped) is
*stashed*, not discarded.  The next REGISTER echoes the stashed tasks
as ``inflight`` entries (``{task_id, attempt}``) so a
journal-recovered dispatcher can adopt the dispatch instead of
re-executing it elsewhere; right after
REGISTER_ACK the stashed results are resent.  A superseded attempt's
resend loses the attempt-number race and is dropped as stale.
"""

from __future__ import annotations

import itertools
import queue
import subprocess
import threading
import time
from typing import Callable, Optional

from repro.live.endpoint import EndpointLike, as_endpoint
from repro.live.ioloop import default_loop
from repro.live.protocol import (
    RECONNECT_ATTEMPTS,
    Connection,
    backoff,
    result_to_dict,
    task_from_dict,
)
from repro.net.message import Message, MessageType
from repro.net.wire import replace_surrogates
from repro.obs.flight import FRAME_RX, FRAME_TX, FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import ExecutorStats
from repro.types import TaskResult, TaskSpec

__all__ = ["LiveExecutor"]

_executor_seq = itertools.count(1)

#: Registry type: python-task name -> callable(*args) -> str | None.
PythonRegistry = dict[str, Callable[..., object]]

#: Payload marker distinguishing "our socket died" from a user stop().
_CONN_CLOSED = "connection-closed"

#: Executors batch finished results into one RESULT frame, but never
#: sit on a result longer than this (seconds) — the
#: dispatcher's replay timer must not see silence while tasks finish.
_RESULT_BATCH_WINDOW = 0.02

#: Wall-clock limit (seconds) on one subprocess task.
SUBPROCESS_TIMEOUT = 300.0


class LiveExecutor:
    """One executor agent connected to a live dispatcher."""

    def __init__(
        self,
        address: "EndpointLike",
        key: Optional[bytes] = None,
        executor_id: Optional[str] = None,
        idle_timeout: Optional[float] = None,
        python_registry: Optional[PythonRegistry] = None,
        heartbeat_interval: Optional[float] = None,
        pipeline: int = 1,
    ) -> None:
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive when set")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when set")
        if pipeline < 1:
            raise ValueError("pipeline must be >= 1")
        #: The dispatcher's address as an :class:`Endpoint` (accepts a
        #: ``falkon://host:port`` / ``host:port`` string; the legacy
        #: tuple spelling is gone).
        self.endpoint = as_endpoint(address, owner="LiveExecutor")
        self.key = key
        #: Advertised pipelining depth: how many queued tasks the
        #: dispatcher may stack on one WORK/RESULT_ACK frame (§3.4
        #: piggy-backing extended).
        self.pipeline = pipeline
        self.executor_id = executor_id or f"live-exec-{next(_executor_seq):05d}"
        self.idle_timeout = idle_timeout
        self.python_registry = python_registry or {}
        self.heartbeat_interval = heartbeat_interval
        self.metrics = MetricsRegistry(prefix="executor")
        # Agent-side flight recorder: frame rx/tx only (execution
        # detail already rides spans); dumped by the harness on crash
        # scenarios alongside the dispatcher's ring.
        self.flight = FlightRecorder(f"executor:{self.executor_id}")
        self._m_executed = self.metrics.counter(
            "tasks_executed", help="Tasks run to a result on this agent")
        self._m_reconnects = self.metrics.counter(
            "reconnects", help="Dispatcher sessions re-established")
        self._h_exec = self.metrics.histogram(
            "exec_seconds", help="Task execution wall time on this agent")
        self._inbox: "queue.Queue[Message]" = queue.Queue()
        self._stop = threading.Event()
        self._registered = threading.Event()
        self._rejected = threading.Event()
        self._acked_this_conn = False
        # Instantaneous load, read by the heartbeat timer (plain int
        # reads/writes; torn values are impossible under the GIL and a
        # stale sample is harmless telemetry).
        self._busy = 0
        self._backlog = 0
        # Executed-but-unreported result entries (the RESULT send
        # failed); echoed on the next REGISTER and resent after its
        # ack.  Only the executor thread touches it.
        self._unreported: list[dict] = []
        self._thread = threading.Thread(
            target=self._run, name=self.executor_id, daemon=True
        )
        self._conn: Optional[Connection] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "LiveExecutor":
        self._thread.start()
        if self.heartbeat_interval is not None:
            default_loop().call_later(self.heartbeat_interval, self._heartbeat)
        return self

    def wait_registered(self, timeout: float = 10.0) -> bool:
        return self._registered.wait(timeout)

    def wait_rejected(self, timeout: float = 10.0) -> bool:
        """Wait for the dispatcher to refuse this executor's REGISTER."""
        return self._rejected.wait(timeout)

    def stop(self) -> None:
        """Ask the executor to exit after its current task."""
        self._stop.set()
        self._inbox.put(Message(MessageType.SHUTDOWN))

    def kill_connection(self) -> None:
        """Abruptly close the dispatcher link — no deregister, no
        goodbye.  The run loop notices and reconnects; churn harnesses
        use this as a seeded stand-in for transient link death (the
        dispatcher must replay whatever was in flight)."""
        conn = self._conn
        if conn is not None:
            conn.close()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # Back-compat read views over the registry counters.
    @property
    def tasks_executed(self) -> int:
        return self._m_executed.value

    @property
    def reconnects(self) -> int:
        return self._m_reconnects.value

    def stats(self) -> ExecutorStats:
        """Typed snapshot of this agent."""
        return ExecutorStats(
            executor_id=self.executor_id,
            tasks_executed=self._m_executed.value,
            reconnects=self._m_reconnects.value,
            exec_seconds_p50=self._h_exec.p50,
            exec_seconds_p99=self._h_exec.p99,
        )

    # -- main loop -----------------------------------------------------------
    def _drain_inbox(self) -> None:
        """Discard messages left over from a previous connection."""
        while True:
            try:
                self._inbox.get_nowait()
            except queue.Empty:
                return

    def _run(self) -> None:
        registered_once = False
        delays = backoff(RECONNECT_ATTEMPTS)
        reason = "stop"
        try:
            while not self._stop.is_set():
                reason = self._session(reconnect=registered_once)
                if self._acked_this_conn:
                    registered_once = True
                    delays = backoff(RECONNECT_ATTEMPTS)
                if reason in ("stop", "idle"):
                    return
                # The dial, the REGISTER or the session failed: back
                # off and retry until the budget runs out.
                delay = next(delays, None)
                if delay is None or self._stop.wait(delay):
                    return
        finally:
            conn = self._conn
            if conn is not None and not conn.closed:
                if reason in ("stop", "idle"):
                    try:
                        conn.send(Message(MessageType.DEREGISTER, sender=self.executor_id))
                    except Exception:
                        pass
                conn.close()

    def _session(self, reconnect: bool) -> str:
        """Dial, REGISTER and serve one dispatcher connection; returns
        why it ended: ``stop`` / ``idle`` / ``closed`` (also when the
        dial or the REGISTER failed)."""
        self._acked_this_conn = False
        try:
            conn = Connection.dial(
                self.endpoint,
                self._inbox.put,
                on_close=lambda: self._inbox.put(
                    Message(MessageType.SHUTDOWN, payload={"reason": _CONN_CLOSED})),
                key=self.key,
                name=self.executor_id,
                timeout=10.0,
            )
        except OSError:
            return "closed"
        self._drain_inbox()
        self._conn = conn
        register_payload = {
            "executor_id": self.executor_id,
            "reconnect": reconnect,
            "pipeline": self.pipeline,
        }
        if self._unreported:
            # Inflight echo: tasks this agent already executed whose
            # results never left — a recovered dispatcher adopts them
            # by attempt match instead of double-executing.
            register_payload["inflight"] = [
                {"task_id": entry["result"]["task_id"],
                 "attempt": entry.get("attempt")}
                for entry in self._unreported
            ]
        try:
            conn.send(
                Message(
                    MessageType.REGISTER,
                    sender=self.executor_id,
                    payload=register_payload,
                )
            )
        except Exception:
            conn.close()
            return "closed"
        if reconnect:
            self._m_reconnects.inc()
        reason = self._loop()
        if reason == "closed":
            conn.close()
        return reason

    def _loop(self) -> str:
        """Serve one connection; returns why it ended:
        ``stop`` / ``idle`` / ``closed``."""
        while True:
            if self._stop.is_set():
                return "stop"
            try:
                msg = self._inbox.get(timeout=self.idle_timeout)
            except queue.Empty:
                return "idle"  # distributed idle release
            self.flight.record(FRAME_RX, msg.type.name)
            if msg.type is MessageType.SHUTDOWN:
                if self._stop.is_set() or msg.payload.get("reason") != _CONN_CLOSED:
                    return "stop"
                return "closed"
            if msg.type is MessageType.REGISTER_ACK:
                self._acked_this_conn = True
                self._registered.set()
                if self._unreported:
                    # The dispatcher has now adopted (or superseded) the
                    # echoed tasks: deliver the stashed results.  A
                    # failed resend re-stashes for the next session.
                    pending, self._unreported = self._unreported, []
                    self._send_results(pending)
            elif msg.type in (MessageType.WORK, MessageType.RESULT_ACK):
                # A "tasks" list whose entries carry their own attempt,
                # asked for or not.
                entries = [
                    (item["task"], item.get("attempt"))
                    for item in msg.payload.get("tasks", ())
                    if isinstance(item, dict) and item.get("task") is not None
                ]
                self._backlog = len(entries)
                # Drain the whole local batch before the next frame.
                # Results batch into as few RESULT frames as the flush
                # window allows — one frame for a burst of short tasks
                # instead of one frame (and one ack round trip) each.
                self._execute_batch(entries)
                self._backlog = 0
            elif msg.type is MessageType.ERROR:
                if "duplicate executor id" in msg.payload.get("error", ""):
                    self._rejected.set()

    def _heartbeat(self) -> None:
        """One HEARTBEAT, re-armed on the shared loop until stopped."""
        if self._stop.is_set() or not self._thread.is_alive():
            return
        default_loop().call_later(self.heartbeat_interval, self._heartbeat)
        conn = self._conn
        if conn is None or conn.closed:
            return
        # Compact stats delta: the dispatcher keeps the last one
        # as this executor's /status row.
        payload = {"stats": {
            "busy": self._busy,
            "backlog": self._backlog,
            "executed": self._m_executed.value,
            "exec_sum_s": self._h_exec.sum,
            "reconnects": self._m_reconnects.value,
        }}
        try:
            conn.send(Message(MessageType.HEARTBEAT, sender=self.executor_id,
                              payload=payload))
        except Exception:
            pass  # the executor thread handles the dead connection

    def _execute_batch(
        self, entries: list[tuple[dict, Optional[int]]]
    ) -> None:
        """Run one WORK/RESULT_ACK batch, reporting results in bulk.

        Each finished task becomes one entry of a ``results`` list;
        the accumulated batch flushes when ``_RESULT_BATCH_WINDOW``
        elapses (so long tasks still report promptly) and at the end
        of the batch.  For the sleep-0 stress shape this collapses N
        RESULT frames — and N dispatcher wakeups — into one.
        """
        pending: list[dict] = []
        exec_samples: list[float] = []
        window_started = 0.0
        for task_payload, attempt in entries:
            if self._stop.is_set():
                break
            exec_started = time.monotonic()
            if not pending:
                window_started = exec_started
            self._busy = 1
            try:
                result = self.execute(task_from_dict(task_payload))
            finally:
                self._busy = 0
                self._backlog = max(0, self._backlog - 1)
            finished = time.monotonic()
            exec_seconds = finished - exec_started
            exec_samples.append(exec_seconds)
            entry = {
                "result": result_to_dict(result),
                # Locally measured execution window: the dispatcher
                # anchors the task's "exec" span on it (clocks differ;
                # only the duration crosses the wire).
                "exec": {"seconds": exec_seconds},
            }
            if attempt is not None:
                # Echo the dispatcher's attempt number so late results
                # from superseded attempts can be recognised and dropped.
                entry["attempt"] = attempt
            pending.append(entry)
            if finished - window_started >= _RESULT_BATCH_WINDOW:
                if not self._report(pending, exec_samples):
                    return
                pending = []
                exec_samples = []
        if pending:
            self._report(pending, exec_samples)

    def _report(self, batch: list[dict], exec_samples: list[float]) -> bool:
        """Account one RESULT frame's executions — one counter and one
        histogram round trip per frame, so ``/metrics`` lags a task by
        at most the batch window — then send it."""
        self._m_executed.inc(len(exec_samples))
        self._h_exec.observe_many(exec_samples)
        return self._send_results(batch)

    def _send_results(self, batch: list[dict]) -> bool:
        try:
            self._conn.send(
                Message(MessageType.RESULT, sender=self.executor_id,
                        payload={"results": batch})
            )
            self.flight.record(FRAME_TX, "RESULT", tasks=len(batch))
            return True
        except Exception:
            # Stash instead of discard: the next REGISTER echoes these
            # so the dispatcher adopts rather than re-executes them.
            self._unreported.extend(batch)
            return False

    # -- execution -----------------------------------------------------------
    def execute(self, spec: TaskSpec) -> TaskResult:
        """Run one task and build its result (no I/O on the socket)."""
        try:
            if spec.command == "sleep":
                seconds = float(spec.args[0]) if spec.args else spec.duration
                if seconds > 0:
                    # sleep(0) would still cost a syscall and a GIL
                    # round trip — measurable at 10^3 tasks/s.
                    time.sleep(seconds)
                return TaskResult(spec.task_id, executor_id=self.executor_id)
            if spec.command.startswith("python:"):
                result = self._execute_python(spec)
            else:
                result = self._execute_subprocess(spec)
        except Exception as exc:  # never let a task kill the executor
            result = TaskResult(
                spec.task_id,
                return_code=1,
                error=f"{type(exc).__name__}: {exc}",
                executor_id=self.executor_id,
            )
        # Task output is arbitrary text; the wire carries only valid
        # Unicode, so unpaired surrogates become U+FFFD here (the one
        # rule, docs/PROTOCOL.md) — or the RESULT could never be sent.
        if not (result.stdout.isascii() and result.stderr.isascii()
                and result.error.isascii()):
            result.stdout = replace_surrogates(result.stdout)
            result.stderr = replace_surrogates(result.stderr)
            result.error = replace_surrogates(result.error)
        return result

    def _execute_python(self, spec: TaskSpec) -> TaskResult:
        name = spec.command.removeprefix("python:")
        fn = self.python_registry.get(name)
        if fn is None:
            return TaskResult(
                spec.task_id,
                return_code=1,
                error=f"unknown python task {name!r}",
                executor_id=self.executor_id,
            )
        value = fn(*spec.args)
        return TaskResult(
            spec.task_id,
            stdout="" if value is None else str(value),
            executor_id=self.executor_id,
        )

    def _execute_subprocess(self, spec: TaskSpec) -> TaskResult:
        env = dict(spec.env) or None
        completed = subprocess.run(
            [spec.command, *spec.args],
            capture_output=True,
            text=True,
            cwd=spec.working_dir,
            env=env,
            timeout=SUBPROCESS_TIMEOUT,
        )
        return TaskResult(
            spec.task_id,
            return_code=completed.returncode,
            stdout=completed.stdout[-65536:],
            stderr=completed.stderr[-65536:],
            executor_id=self.executor_id,
        )

    def __repr__(self) -> str:
        return f"<LiveExecutor {self.executor_id} ran={self.tasks_executed}>"
