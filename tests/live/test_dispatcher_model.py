"""A stateful model of one live dispatcher, checked after every step.

``hypothesis`` drives one in-process :class:`LiveDispatcher` through raw
protocol peers — one client and up to three executors — with rules that
submit bundles (duplicate ids within a bundle and across bundles),
register executors, return results (fresh, from a stale attempt, for an
unknown id, with a malformed entry in the middle of the frame), close
an executor's socket and call ``dlq_retry``.  A dict reference model of
exactly-once-visible completion predicts what the dispatcher owes:

* every WORK entry (pushed, or piggy-backed on a RESULT_ACK) hands out
  a task the model holds as queued, at the next attempt, to an
  executor with room under its advertised depth;
* every CLIENT_NOTIFY is one the model predicted — one per settle, plus
  the re-push a duplicate SUBMIT of a settled id earns — and no other;
* ``GET_RESULTS`` lists exactly the model's settled tasks and outcomes;
* the counters balance (``check_conservation``, with the model's open
  tasks as the not-yet-settled share), and no executor sits idle next
  to queued work.

Steps sync on reply frames, never on sleeps.  Each step ends with a
barrier — the client's GET_RESULTS, then a STATUS from every executor
and a second GET_RESULTS — and everything the dispatcher sent ahead of
those replies is read and checked then.  A closed socket is the one
wait on a condition: the executor leaving the dispatcher's table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.live import LiveDispatcher
from repro.net.message import Message, MessageType
from repro.scenarios.oracles import OracleReport, check_conservation

from tests.live.util import RawPeer, wait_until

MAX_RETRIES = 1
MAX_EXECUTORS = 3
IDS = [f"m{i}" for i in range(6)]
UNKNOWN_ID = "never-submitted"

#: Entries no executor should send: each is skipped whole, and the
#: frame's well-formed entries around it still settle.
MALFORMED = [
    {"attempt": 1},
    {"result": "not-an-object"},
    {"result": {"task_id": 7}},
    {"result": {"task_id": "m0"}, "attempt": "1"},
    {"result": {"task_id": "m0"}, "exec": {"seconds": "soon"}},
]


@dataclass
class _Task:
    attempts: int = 0
    holder: Optional[str] = None
    #: The settled return code; ``None`` while the task is open.
    outcome: Optional[int] = None
    in_dlq: bool = False


@dataclass
class _Executor:
    peer: RawPeer
    depth: int
    held: dict[str, int] = field(default_factory=dict)  # task id -> attempt


def _rc(result: dict) -> int:
    return result.get("return_code", 0)


class DispatcherModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # No heartbeat or replay deadlines, and a monitor that never
        # sweeps inside an example: every transition is a rule's.
        self.dispatcher = LiveDispatcher(max_retries=MAX_RETRIES,
                                         monitor_interval=60.0)
        self.client = RawPeer(self.dispatcher.address)
        self.client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        self.client.recv_until(MessageType.INSTANCE_CREATED)
        self.tasks: dict[str, _Task] = {}
        self.executors: dict[str, _Executor] = {}
        self.names = (f"e{i}" for i in itertools.count(1))
        self.dispatched: set[tuple[str, int]] = set()
        self.owed: Counter = Counter()  # (task id, return code) notifies
        self.notified: list[Message] = []  # client frames read, unchecked
        self.settled_ok = 0
        self.settled_failed = 0
        self.retries = 0
        self.stale = 0
        self.reopened = 0  # successful dlq_retry calls

    def teardown(self) -> None:
        self.client.close()
        for executor in self.executors.values():
            executor.peer.close()
        self.dispatcher.close()

    # -- reading what the dispatcher sent ---------------------------------
    def _read_until(self, peer: RawPeer, mtype: MessageType,
                    inbox: list[Message]) -> Message:
        while True:
            msg = peer.recv(timeout=5.0)
            if msg.type is mtype:
                return msg
            inbox.append(msg)

    def _dispatch(self, name: str, entries: list[dict]) -> None:
        for entry in entries:
            task_id, attempt = entry["task"]["task_id"], entry["attempt"]
            task = self.tasks[task_id]
            assert task.outcome is None and task.holder is None, (
                f"{task_id} dispatched to {name} while {task}")
            assert attempt == task.attempts + 1, (task_id, attempt, task)
            task.attempts, task.holder = attempt, name
            executor = self.executors[name]
            executor.held[task_id] = attempt
            assert len(executor.held) <= executor.depth, (name, executor.held)
            self.dispatched.add((task_id, attempt))

    def _barrier(self) -> None:
        """Read every frame the last step caused, then check them."""
        self._read_until(self.client, MessageType.RESULTS, self.notified)
        for name, executor in self.executors.items():
            executor.peer.send(Message(MessageType.STATUS, sender=name))
            inbox: list[Message] = []
            self._read_until(executor.peer, MessageType.STATUS_REPLY, inbox)
            for msg in inbox:
                assert msg.type is MessageType.WORK, msg.type
                self._dispatch(name, msg.payload["tasks"])
        self.client.send(Message(MessageType.GET_RESULTS, sender="c"))
        results = self._read_until(self.client, MessageType.RESULTS,
                                   self.notified)
        seen = Counter()
        for msg in self.notified:
            assert msg.type is MessageType.CLIENT_NOTIFY, msg.type
            seen.update((r["task_id"], _rc(r)) for r in msg.payload["results"])
        assert seen == self.owed, f"notified {seen}, owed {self.owed}"
        self.owed.clear()
        self.notified.clear()
        finished = {r["task_id"]: _rc(r) for r in results.payload["results"]}
        assert finished == {task_id: task.outcome
                            for task_id, task in self.tasks.items()
                            if task.outcome is not None}

    def _sync(self) -> None:
        self.client.send(Message(MessageType.GET_RESULTS, sender="c"))
        self._barrier()

    # -- the model's transitions --------------------------------------------
    def _settle(self, task_id: str, rc: int) -> None:
        task = self.tasks[task_id]
        task.holder = None
        if rc == 0 or task.attempts > MAX_RETRIES:
            task.outcome = rc
            task.in_dlq = rc != 0
            self.owed[(task_id, rc)] += 1
            if rc == 0:
                self.settled_ok += 1
            else:
                self.settled_failed += 1
        else:
            self.retries += 1

    def _apply_result(self, name: str, task_id: str, attempt: int,
                      rc: int) -> None:
        self.executors[name].held.pop(task_id, None)
        task = self.tasks.get(task_id)
        if task is None or task.outcome is not None:
            return
        if attempt != task.attempts:
            self.stale += 1
        else:
            self._settle(task_id, rc)

    # -- rules -----------------------------------------------------------------
    @initialize(depth=st.integers(1, 3))
    def first_executor(self, depth: int) -> None:
        self.register(depth)

    @precondition(lambda self: self.executors)
    @rule(data=st.data())
    def return_results(self, data) -> None:
        # Executors holding work first: what a draw shrinks towards.
        name = data.draw(st.sampled_from(sorted(
            self.executors, key=lambda n: (not self.executors[n].held, n))))
        executor = self.executors[name]
        held = sorted(executor.held)
        fresh = data.draw(st.lists(st.sampled_from(held), min_size=1,
                                   unique=True) if held else st.just([]))
        entries = [(task_id, executor.held[task_id],
                    data.draw(st.sampled_from([1, 0]))) for task_id in fresh]
        stale = sorted((task_id, attempt) for task_id, attempt in self.dispatched
                       if task_id not in executor.held
                       and attempt != self.tasks[task_id].attempts)
        if stale and data.draw(st.booleans()):
            task_id, attempt = data.draw(st.sampled_from(stale))
            entries.append((task_id, attempt, 0))
        if not entries or data.draw(st.booleans()):
            entries.append((UNKNOWN_ID, 1, 0))
        frame = [{"result": {"task_id": task_id, "return_code": rc},
                  "attempt": attempt, "exec": {"seconds": 0.001}}
                 for task_id, attempt, rc in entries]
        if data.draw(st.booleans()):
            # Mid-frame: well-formed entries on both sides of it.
            frame.insert(len(frame) // 2 + len(frame) % 2,
                         data.draw(st.sampled_from(MALFORMED)))
            if len(frame) == 2:
                frame.append({"result": {"task_id": UNKNOWN_ID},
                              "attempt": 1})
        executor.peer.send(Message(MessageType.RESULT, sender=name,
                                   payload={"results": frame}))
        for task_id, attempt, rc in entries:
            self._apply_result(name, task_id, attempt, rc)
        inbox: list[Message] = []
        ack = self._read_until(executor.peer, MessageType.RESULT_ACK, inbox)
        assert not inbox, [m.type for m in inbox]
        self._dispatch(name, ack.payload.get("tasks", []))
        self._sync()

    @rule(bundle=st.lists(st.sampled_from(IDS), min_size=1, max_size=4))
    def submit(self, bundle: list[str]) -> None:
        self.client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": task_id, "args": ["0"]} for task_id in bundle]}))
        known = dict(self.tasks)
        for task_id in bundle:
            task = known.get(task_id)
            if task is None:
                self.tasks.setdefault(task_id, _Task())
            elif task.outcome is not None:
                self.owed[(task_id, task.outcome)] += 1  # the re-push
        ack = self._read_until(self.client, MessageType.SUBMIT_ACK,
                               self.notified)
        assert ack.payload["accepted"] == len(bundle)
        self._sync()

    @precondition(lambda self: self.executors)
    @rule(data=st.data())
    def close_executor(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(self.executors)))
        executor = self.executors.pop(name)
        executor.peer.close()
        assert wait_until(
            lambda: self.dispatcher.stats().registered == len(self.executors))
        for task_id in sorted(executor.held):
            task = self.tasks[task_id]
            task.holder = None
            if task.attempts <= MAX_RETRIES:
                self.retries += 1
            else:
                self._settle(task_id, 1)
        self._sync()

    @rule(data=st.data())
    def dlq_retry(self, data) -> None:
        dlq = sorted(i for i, t in self.tasks.items() if t.in_dlq)
        task_id = data.draw(st.sampled_from(dlq or [UNKNOWN_ID, IDS[0]]))
        task = self.tasks.get(task_id)
        quarantined = task is not None and task.in_dlq
        assert self.dispatcher.dlq_retry(task_id) is quarantined
        if quarantined:
            self.tasks[task_id] = _Task()
            self.reopened += 1
        self._sync()

    @precondition(lambda self: len(self.executors) < MAX_EXECUTORS)
    @rule(depth=st.integers(1, 3))
    def register(self, depth: int) -> None:
        name = next(self.names)
        peer = RawPeer(self.dispatcher.address)
        peer.send(Message(MessageType.REGISTER, sender=name, payload={
            "executor_id": name, "pipeline": depth}))
        peer.recv_until(MessageType.REGISTER_ACK)
        self.executors[name] = _Executor(peer, depth)
        self._sync()

    # -- invariants ------------------------------------------------------------
    @invariant()
    def counters_balance(self) -> None:
        stats = self.dispatcher.stats()
        open_tasks = sum(1 for t in self.tasks.values() if t.outcome is None)
        report = OracleReport()
        # A dlq_retry reopens a settled task, and the settle counters
        # never go down: each reopen is one more settle owed.
        check_conservation(
            report, submitted=len(self.tasks) + self.reopened,
            stats=SimpleNamespace(accepted=stats.accepted + self.reopened,
                                  completed=stats.completed + open_tasks,
                                  failed=stats.failed,
                                  dlq_total=stats.dlq_total))
        assert report.ok, report.summary()
        queued = sum(1 for t in self.tasks.values()
                     if t.outcome is None and t.holder is None)
        assert (stats.completed, stats.failed, stats.retries,
                stats.stale_results, stats.queued, stats.dlq_size) == (
            self.settled_ok, self.settled_failed, self.retries, self.stale,
            queued, sum(1 for t in self.tasks.values() if t.in_dlq))
        assert stats.busy == sum(1 for e in self.executors.values() if e.held)
        if queued:
            assert all(e.held for e in self.executors.values()), (
                "an idle executor next to queued work")


DispatcherModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestDispatcherModel = DispatcherModel.TestCase
