"""Executor task pre-fetching (§6 "Pre-fetching").

"As is commonly done in manager-worker systems, executors can request
new tasks before they complete execution of old tasks, thus
overlapping communication and execution."

:class:`PrefetchingExecutor` issues its next blocking pull while the
current task's payload is still executing.  A task obtained through
pre-fetch skips the pre-execution communication share of the per-task
overhead (it was overlapped), so an executor's zero-work cycle shrinks
from the full calibrated round-trip to its tail — for short tasks the
single-executor rate roughly doubles (measured by ablation bench X2).
"""

from __future__ import annotations

from typing import Generator

from repro.core.dispatcher import TaskRecord
from repro.core.executor import ExecutorState, SimExecutor
from repro.types import TaskResult

__all__ = ["PrefetchingExecutor"]


class PrefetchingExecutor(SimExecutor):
    """A :class:`SimExecutor` that overlaps task pick-up with execution."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._prefetch_get = None

    def _run_task(self, record: TaskRecord, prefetched: bool = False) -> Generator:
        self.state = ExecutorState.BUSY
        self.idle_since = None
        self._current_record = record
        attempt = yield from self.dispatcher.dispatch_leg(record, self.executor_id)
        started = self.env.now
        overhead = self._per_task_overhead()
        if not prefetched:
            # Pre-execution communication (notify receipt, WS pick-up).
            yield self.env.timeout(0.6 * overhead)
        if self.staging is not None:
            yield from self.staging.stage_in(self.env, record.spec, self.node)
        record.timeline.started = self.env.now
        # Ask for the next task while this one runs.
        self._prefetch_get = self.dispatcher.request_task(self._task_filter())
        if record.spec.duration > 0:
            yield self.env.timeout(record.spec.duration)
        if self.staging is not None:
            yield from self.staging.stage_out(self.env, record.spec, self.node)
        yield self.env.timeout(0.4 * overhead)
        failed = (
            self.failure_rate > 0
            and self.rng is not None
            and float(self.rng.random()) < self.failure_rate
        )
        result = TaskResult(
            record.task_id,
            return_code=1 if failed else 0,
            error="injected failure" if failed else "",
            executor_id=self.executor_id,
        )
        self.overhead_series.record(started, self.env.now - started - record.spec.duration)
        self.tasks_executed += 1
        piggyback = yield from self.dispatcher.deliver_result(record, result, attempt)
        self._current_record = None
        self.state = ExecutorState.IDLE
        self.idle_since = self.env.now

        # Reconcile the two sources of a next task: a triggered
        # pre-fetch wins; a simultaneous piggy-back goes back on the
        # queue so no task is lost or double-held.
        prefetch, self._prefetch_get = self._prefetch_get, None
        if prefetch is not None and prefetch.triggered and prefetch.ok:
            if piggyback is not None:
                self.dispatcher.requeue_undispatched(piggyback)
            next_record = prefetch.value
            return _PrefetchedNext(next_record)
        if prefetch is not None:
            prefetch.cancel()
        return piggyback

    def _lifecycle(self) -> Generator:
        # Same skeleton as the base class, but unwrap pre-fetched
        # records so their pre-overhead is skipped.
        from repro.sim import Interrupt

        crashed = False
        try:
            if self.startup_delay > 0:
                yield self.env.timeout(self.startup_delay)
            self.state = ExecutorState.IDLE
            self.idle_since = self.env.now
            self.registered_at = self.env.now
            self.dispatcher.register_executor(self)
            if self.on_register is not None:
                self.on_register(self)

            record = None
            prefetched = False
            while True:
                if record is None:
                    record = yield from self._wait_for_work()
                    if record is None:
                        break
                    prefetched = False
                outcome = yield from self._run_task(record, prefetched=prefetched)
                if isinstance(outcome, _PrefetchedNext):
                    record, prefetched = outcome.record, True
                else:
                    record, prefetched = outcome, False
        except Interrupt as intr:
            crashed = intr.cause == "crash"
        finally:
            self._release_stranded_prefetch()
            self._retire(crashed)

    def _release_stranded_prefetch(self) -> None:
        """Never strand a task claimed by an in-flight pre-fetch."""
        prefetch, self._prefetch_get = self._prefetch_get, None
        if prefetch is None:
            return
        if prefetch.triggered and prefetch.ok:
            self.dispatcher.requeue_undispatched(prefetch.value)
        else:
            prefetch.cancel()


class _PrefetchedNext:
    """Marker wrapper distinguishing pre-fetched from piggy-backed."""

    __slots__ = ("record",)

    def __init__(self, record: TaskRecord) -> None:
        self.record = record
