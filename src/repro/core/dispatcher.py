"""The Falkon dispatcher (simulation plane).

The dispatcher "accepts tasks from clients and implements the dispatch
policy" (§3.2).  It is deliberately streamlined: a FIFO wait queue, an
executor pool, and per-message CPU accounting — no multiple queues,
priorities or accounting, which is exactly the point of the paper.

Cost model
----------
The dispatcher host's CPU is modelled as a capacity-1 resource; every
message leg charges calibrated CPU time from :class:`WSCostModel`:

* one *submit* charge per client bundle;
* a *dispatch leg* + *completion leg* per task, summing to the
  calibrated 2.053 ms (487 tasks/s) — piggy-backing assumed;
* one extra bare WS call per task when piggy-backing is off.

A :class:`repro.cluster.jvm.JVMModel` may be attached; allocation churn
then periodically stops the world while holding the CPU, reproducing
Figure 8's throughput dips.

The executor protocol is the hybrid push/pull of §3.3: an idle executor
parks a ``get`` on the wait queue (the blocking pull whose state the
dispatcher keeps per §3.3's "blocking request" analysis); a task arrival
resolves it, standing in for the notify{3}/get-work{4}/work{5} exchange,
whose cost is charged on the dispatch leg.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.cluster.jvm import JVMModel
from repro.config import FalkonConfig
from repro.net.costs import NetworkModel, WSCostModel
from repro.sim import Counter, Environment, Event, FilterStore, Gauge, Resource
from repro.sim.tracing import Tracer
from repro.types import TaskResult, TaskSpec, TaskState, TaskTimeline

__all__ = ["TaskRecord", "SimDispatcher"]


@dataclass
class TaskRecord:
    """Dispatcher-side state of one task."""

    spec: TaskSpec
    state: TaskState = TaskState.QUEUED
    attempts: int = 0
    timeline: TaskTimeline = field(default_factory=TaskTimeline)
    result: Optional[TaskResult] = None
    executor_id: str = ""
    #: Succeeds with the final TaskResult.
    completion: Event = None  # type: ignore[assignment]

    @property
    def task_id(self) -> str:
        return self.spec.task_id


class SimDispatcher:
    """Streamlined task dispatcher."""

    def __init__(
        self,
        env: Environment,
        config: Optional[FalkonConfig] = None,
        costs: Optional[WSCostModel] = None,
        network: Optional[NetworkModel] = None,
        jvm: Optional[JVMModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.config = (config or FalkonConfig()).validate()
        self.costs = costs or WSCostModel()
        self.network = network or NetworkModel()
        self.jvm = jvm
        self.tracer = tracer
        self.cpu = Resource(env, capacity=1)
        self.queue = FilterStore(env)
        self._gc_churn = 0
        self._executors: dict[str, Any] = {}
        self._milestones: list[tuple[int, int, Event]] = []
        self._milestone_seq = itertools.count()
        self._activity: Optional[Event] = None

        # -- instrumentation ------------------------------------------------
        self.queue_gauge = Gauge("dispatcher/queued")
        self.busy_gauge = Gauge("dispatcher/busy-executors")
        self.registered_gauge = Gauge("dispatcher/registered-executors")
        self.completions = Counter("dispatcher/completions")
        self.dispatches = Counter("dispatcher/dispatches")
        self.submissions = Counter("dispatcher/submissions")
        self.records: list[TaskRecord] = []
        self.tasks_accepted = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # client-facing surface
    # ------------------------------------------------------------------
    def accept_tasks(self, tasks: list[TaskSpec]) -> Generator:
        """Generator: ingest one client bundle; returns the records.

        Charges one submit call of dispatcher CPU for the whole bundle
        (client-side bundling cost is paid by the client, see
        :class:`repro.core.client.SimClient`).
        """
        if not tasks:
            raise ValueError("bundle must contain at least one task")
        yield from self._charge_cpu(
            self.costs.submit_call_cpu * self.costs.security_factor(self.config.security)
        )
        records = [self._enqueue_new(spec) for spec in tasks]
        return records

    def accept_tasks_now(self, tasks: list[TaskSpec]) -> list[TaskRecord]:
        """Non-charging ingest for tests and internal providers."""
        return [self._enqueue_new(spec) for spec in tasks]

    def _enqueue_new(self, spec: TaskSpec) -> TaskRecord:
        record = TaskRecord(spec=spec, completion=self.env.event())
        record.timeline.submitted = self.env.now
        self.records.append(record)
        self.tasks_accepted += 1
        self.submissions.tick(self.env.now)
        if self.tracer is not None:
            self.tracer.emit(self.env.now, "submit", task=record.task_id)
        self._enqueue(record)
        if self._activity is not None and not self._activity.triggered:
            self._activity.succeed(None)
        return record

    def activity(self) -> Event:
        """Event that fires on the next task arrival (provisioner's
        idle-sleep wakeup)."""
        if self._activity is None or self._activity.processed:
            self._activity = self.env.event()
        return self._activity

    def _enqueue(self, record: TaskRecord) -> None:
        record.state = TaskState.QUEUED
        record.executor_id = ""
        self.queue.put(record)
        self.queue_gauge.set(self.env.now, len(self.queue.items))

    # ------------------------------------------------------------------
    # executor-facing surface (the hybrid push/pull protocol)
    # ------------------------------------------------------------------
    def register_executor(self, executor: Any) -> None:
        """REGISTER {from a new executor}."""
        if executor.executor_id in self._executors:
            raise ValueError(f"duplicate executor id {executor.executor_id!r}")
        self._executors[executor.executor_id] = executor
        self.registered_gauge.add(self.env.now, 1)

    def deregister_executor(self, executor: Any) -> None:
        """DEREGISTER (idle release or crash)."""
        if self._executors.pop(executor.executor_id, None) is not None:
            self.registered_gauge.add(self.env.now, -1)

    def request_task(self, filter: Optional[Callable[[TaskRecord], bool]] = None):
        """The executor's blocking pull: a store ``get`` event.

        The returned event succeeds with a :class:`TaskRecord`; cancel
        it (``.cancel()``) when racing an idle timeout.
        """
        return self.queue.get(filter)

    def dispatch_leg(
        self, record: TaskRecord, executor_id: str, shared_exchange: bool = False
    ) -> Generator:
        """Generator: charge the notify/get-work/work exchange {3,4,5}.

        Returns the attempt number, which the executor must echo into
        :meth:`deliver_result` so stale deliveries (superseded by the
        replay policy) are recognised and dropped.  With
        *shared_exchange* (a task delivered inside an executor bundle)
        only the serialization share (~20 %) of the leg is charged.
        """
        leg = self._dispatch_leg_cpu()
        yield from self._charge_cpu(0.2 * leg if shared_exchange else leg)
        record.state = TaskState.DISPATCHED
        record.attempts += 1
        record.executor_id = executor_id
        record.timeline.dispatched = self.env.now
        self.dispatches.tick(self.env.now)
        self.queue_gauge.set(self.env.now, len(self.queue.items))
        self.busy_gauge.add(self.env.now, 1)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "dispatch",
                task=record.task_id, executor=executor_id, attempt=record.attempts,
            )
        if self.config.replay_timeout is not None:
            self.env.process(
                self._replay_watchdog(record, record.attempts),
                name=f"watchdog-{record.task_id}",
            )
        return record.attempts

    def deliver_result(self, record: TaskRecord, result: TaskResult, attempt: int) -> Generator:
        """Generator: the result{6}/ack{7} exchange; returns the
        piggy-backed next :class:`TaskRecord` or ``None``.

        On failure the task is replayed "according to the dispatch
        policy (up to some specified number of retries)" (§3.1).
        *attempt* must be the value :meth:`dispatch_leg` returned;
        deliveries for superseded attempts are dropped.
        """
        yield from self._charge_cpu(self._completion_leg_cpu())
        if (
            record.state is not TaskState.DISPATCHED
            or record.attempts != attempt
        ):
            # Stale: the replay policy already re-dispatched (or
            # finalized) this task; the watchdog adjusted the busy
            # count when it did so.
            return self._piggyback_next()
        self.busy_gauge.add(self.env.now, -1)
        if result.ok:
            self._finalize(record, result, TaskState.COMPLETED)
        elif record.attempts <= self.config.max_retries:
            self.retries += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.env.now, "retry",
                    task=record.task_id, attempt=record.attempts,
                )
            self._enqueue(record)
        else:
            self._finalize(record, result, TaskState.FAILED)
        return self._piggyback_next()

    def withdraw(self, record: TaskRecord) -> bool:
        """Cancel a still-queued task (instance teardown, §3.2).

        Returns True if the record was found in the wait queue and
        cancelled; False if it already left the queue (dispatched or
        terminal).  O(queue length) — teardown is rare.
        """
        if record.state is not TaskState.QUEUED:
            return False
        try:
            self.queue.items.remove(record)
        except ValueError:
            return False
        self.queue_gauge.set(self.env.now, len(self.queue.items))
        record.state = TaskState.CANCELED
        record.timeline.completed = self.env.now
        result = TaskResult(record.task_id, return_code=1, error="instance destroyed")
        result.timeline = record.timeline
        record.result = result
        self.tasks_failed += 1
        self.completions.tick(self.env.now)
        record.completion.succeed(result)
        done = self.tasks_completed + self.tasks_failed
        while self._milestones and self._milestones[0][0] <= done:
            _n, _seq, event = heapq.heappop(self._milestones)
            event.succeed(done)
        return True

    def requeue_undispatched(self, record: TaskRecord) -> None:
        """Return a record that was pulled from the queue but never
        dispatched (its puller died mid-handshake)."""
        if not record.state.terminal:
            self._enqueue(record)

    def executor_lost(self, executor_id: str, record: Optional[TaskRecord]) -> None:
        """An executor vanished; replay its in-flight task if any."""
        if record is not None and not record.state.terminal:
            if record.state is TaskState.DISPATCHED:
                self.busy_gauge.add(self.env.now, -1)
            if record.attempts <= self.config.max_retries:
                self.retries += 1
                self._enqueue(record)
            else:
                self._finalize(
                    record,
                    TaskResult(
                        record.task_id,
                        return_code=1,
                        error=f"executor {executor_id} lost",
                        executor_id=executor_id,
                    ),
                    TaskState.FAILED,
                )

    # ------------------------------------------------------------------
    # state queries (the provisioner's {POLL})
    # ------------------------------------------------------------------
    @property
    def queued_tasks(self) -> int:
        return len(self.queue.items)

    @property
    def busy_executors(self) -> int:
        return int(self.busy_gauge.current)

    @property
    def registered_executors(self) -> int:
        return int(self.registered_gauge.current)

    @property
    def idle_executors(self) -> int:
        return self.registered_executors - self.busy_executors

    def idle_executor_list(self) -> list[Any]:
        """Currently idle executors (centralized release policy input)."""
        return [e for e in self._executors.values() if not e.is_busy]

    def completion_milestone(self, n: int) -> Event:
        """Event succeeding once *n* tasks have reached a terminal state."""
        event = self.env.event()
        done = self.tasks_completed + self.tasks_failed
        if done >= n:
            event.succeed(done)
        else:
            heapq.heappush(self._milestones, (n, next(self._milestone_seq), event))
        return event

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch_leg_cpu(self) -> float:
        """CPU for notify + get-work + work (60 % of the per-task cost)."""
        return 0.6 * self.costs.dispatcher_cpu_per_task(self.config.security)

    def _completion_leg_cpu(self) -> float:
        """CPU for result + ack (40 %), plus one extra bare WS call per
        task when piggy-backing is disabled."""
        cpu = 0.4 * self.costs.dispatcher_cpu_per_task(self.config.security)
        if not self.config.piggyback:
            cpu += self.costs.base_call_cpu * self.costs.security_factor(self.config.security)
        return cpu

    def _piggyback_next(self) -> Optional[TaskRecord]:
        if not self.config.piggyback:
            return None
        # Safe direct pop: if executors are parked on the store the
        # queue is empty, so we never jump ahead of a waiting getter.
        if self.queue.items and not self.queue.getters_waiting:
            found, record = self.queue.take_immediately()
            if found:
                self.queue_gauge.set(self.env.now, len(self.queue.items))
                return record
        return None

    def take_bundle(
        self, first: TaskRecord, max_tasks: int = 10, max_estimate: float = 60.0
    ) -> list[TaskRecord]:
        """Dispatcher→executor bundling (§3.4).

        Starting from *first* (already popped), append further queued
        tasks while every one carries a client runtime estimate and the
        bundle stays under *max_tasks* / *max_estimate* seconds — the
        §3.4 guard against "one executor get[ting] assigned many large
        tasks".  Only active when ``config.executor_bundling`` is set;
        tasks without estimates are never bundled.
        """
        bundle = [first]
        if not self.config.executor_bundling:
            return bundle
        total = first.spec.runtime_estimate
        if total is None:
            return bundle
        while (
            len(bundle) < max_tasks
            and self.queue.items
            and not self.queue.getters_waiting
        ):
            candidate = self.queue.items[0]
            estimate = candidate.spec.runtime_estimate
            if estimate is None or total + estimate > max_estimate:
                break
            self.queue.take_immediately()
            total += estimate
            bundle.append(candidate)
        if len(bundle) > 1:
            self.queue_gauge.set(self.env.now, len(self.queue.items))
        return bundle

    def _charge_cpu(self, seconds: float) -> Generator:
        """Serialise *seconds* of work on the dispatcher CPU, running a
        stop-the-world GC first when churn demands it."""
        with self.cpu.request() as slot:
            yield slot
            if self.jvm is not None:
                self._gc_churn += 1
                if self.jvm.should_collect(self._gc_churn):
                    self._gc_churn = 0
                    pause = self.jvm.pause_duration(self.queued_tasks)
                    if self.tracer is not None:
                        self.tracer.emit(
                            self.env.now, "gc",
                            pause=round(pause, 4), queued=self.queued_tasks,
                        )
                    yield self.env.timeout(pause)
            if seconds > 0:
                yield self.env.timeout(seconds)

    def _finalize(self, record: TaskRecord, result: TaskResult, state: TaskState) -> None:
        record.state = state
        record.timeline.completed = self.env.now
        result.attempts = record.attempts
        result.timeline = record.timeline
        record.result = result
        if state is TaskState.COMPLETED:
            self.tasks_completed += 1
        else:
            self.tasks_failed += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now,
                "complete" if state is TaskState.COMPLETED else "fail",
                task=record.task_id, executor=result.executor_id,
                attempts=record.attempts,
            )
        self.completions.tick(self.env.now)
        record.completion.succeed(result)
        done = self.tasks_completed + self.tasks_failed
        while self._milestones and self._milestones[0][0] <= done:
            _n, _seq, event = heapq.heappop(self._milestones)
            event.succeed(done)

    def _replay_watchdog(self, record: TaskRecord, attempt: int) -> Generator:
        """Re-dispatch a task whose response never arrived (§3.1)."""
        yield self.env.timeout(self.config.replay_timeout)
        if record.state is TaskState.DISPATCHED and record.attempts == attempt:
            self.busy_gauge.add(self.env.now, -1)
            if record.attempts <= self.config.max_retries:
                self.retries += 1
                self._enqueue(record)
            else:
                self._finalize(
                    record,
                    TaskResult(
                        record.task_id,
                        return_code=1,
                        error="replay timeout exceeded",
                        executor_id=record.executor_id,
                    ),
                    TaskState.FAILED,
                )

    def __repr__(self) -> str:
        return (
            f"<SimDispatcher queued={self.queued_tasks} "
            f"busy={self.busy_executors}/{self.registered_executors} "
            f"done={self.tasks_completed}>"
        )
