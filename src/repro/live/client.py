"""The live client: bundled submission with result futures.

Mirrors the paper's client surface (§3.2): create an instance, submit
an array of tasks (bundled, §3.4), receive results asynchronously via
notifications {8}, or poll with GET_RESULTS {9, 10}.

When the dispatcher connection drops unexpectedly the client
reconnects on the shared :func:`~repro.live.protocol.backoff` schedule,
resumes its instance (the ``epr`` rides along on CREATE_INSTANCE), and
backfills results that were settled while it was away via GET_RESULTS.  If the reconnect
budget is exhausted, every outstanding future fails with
:class:`repro.errors.ReconnectError` instead of hanging.

Backpressure: a dispatcher running with a bounded queue answers an
overflowing SUBMIT with SUBMIT_REJECT instead of SUBMIT_ACK.  The
client resubmits the same bundle on that schedule, honouring the
server's ``retry_after`` hint — submission converges once the queue
drains, and the dispatcher-side task-id dedupe makes the resubmission
idempotent.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from typing import Callable, Iterable, Optional, Sequence, Union, overload

from repro.errors import ProtocolError, ReconnectError
from repro.live.endpoint import Endpoint, EndpointLike, as_endpoint
from repro.live.protocol import (
    RECONNECT_ATTEMPTS,
    RECONNECT_CAP,
    Connection,
    backoff,
    result_from_dict,
    task_to_dict,
)
from repro.net.message import Message, MessageType
from repro.net.wire import dumps, encode_message_v4
from repro.obs.flight import FRAME_RX, FRAME_TX, FlightRecorder
from repro.types import Bundle, TaskResult, TaskSpec, TaskTimeline

__all__ = ["TaskFuture", "LiveClient"]

#: A timeline stamp CLIENT_NOTIFY omitted: the dispatcher does not know it.
_NAN = float("nan")


class TaskFuture:
    """Completion handle for one submitted task.

    Quacks like :class:`concurrent.futures.Future`: ``result`` /
    ``exception`` block with an optional timeout and raise
    ``TimeoutError`` / :class:`concurrent.futures.CancelledError` with
    the same semantics; ``add_done_callback`` fires on settlement
    (immediately if already settled).

    ``cancel`` is *local*: it abandons the client-side wait (the future
    settles cancelled, callbacks fire, later results are ignored) but
    cannot recall the task from the dispatcher — a dispatched task is
    replayed until it settles server-side.  This mirrors
    ``concurrent.futures`` cancelling a not-yet-running task: the claim
    check is void, not the work.

    Futures carry no per-task Event: waiters share one
    :class:`threading.Condition` (the owning client passes its own, a
    standalone future makes one), so settling a task costs a flag flip
    and a notify instead of allocating an Event + Condition + Lock per
    task — measurable at tens of thousands of tasks per second.
    """

    __slots__ = ("task_id", "_cond", "_done", "_result", "_error",
                 "_cancelled", "_callbacks")

    def __init__(self, task_id: str,
                 cond: Optional[threading.Condition] = None) -> None:
        self.task_id = task_id
        self._cond = cond if cond is not None else threading.Condition()
        self._done = False
        self._result: Optional[TaskResult] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._callbacks: list[Callable[["TaskFuture"], None]] = []

    # -- state ----------------------------------------------------------------
    def done(self) -> bool:
        """Settled, failed or cancelled (``concurrent.futures`` contract)."""
        return self._done

    def running(self) -> bool:
        return not self._done

    def cancel(self) -> bool:
        """Abandon the wait; ``True`` unless a result already landed.

        Idempotent: cancelling an already-cancelled future returns
        ``True``; a future that settled with a result or error first
        answers ``False`` (too late), exactly like
        :meth:`concurrent.futures.Future.cancel` on a finished future.
        """
        with self._cond:
            if self._done:
                return self._cancelled
            self._cancelled = True
        self._settle()
        return True

    def cancelled(self) -> bool:
        return self._cancelled

    # -- blocking reads --------------------------------------------------------
    def _wait(self, timeout: Optional[float]) -> None:
        if not self._done:  # benign unlocked fast path: done never unsets
            with self._cond:
                if not self._cond.wait_for(lambda: self._done, timeout):
                    raise TimeoutError(
                        f"no result for {self.task_id} within {timeout}s")

    def result(self, timeout: Optional[float] = None) -> TaskResult:
        """Block until the result arrives.

        Raises ``TimeoutError`` if it does not arrive in *timeout*,
        :class:`concurrent.futures.CancelledError` if the future was
        cancelled, or the stored exception if the connection was lost
        for good.
        """
        self._wait(timeout)
        if self._cancelled:
            raise CancelledError(self.task_id)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until settled; the stored exception, or ``None`` on success."""
        self._wait(timeout)
        if self._cancelled:
            raise CancelledError(self.task_id)
        return self._error

    # -- callbacks -------------------------------------------------------------
    def add_done_callback(self, fn: Callable[["TaskFuture"], None]) -> None:
        """Call ``fn(self)`` once the future settles.

        Fires immediately (in the caller's thread) if already settled;
        otherwise from whichever thread settles the future.  Exceptions
        raised by *fn* are swallowed, as in :mod:`concurrent.futures`.
        """
        with self._cond:
            if not self._done:
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    def _invoke(self, fn: Callable[["TaskFuture"], None]) -> None:
        try:
            fn(self)
        except Exception:
            pass

    def _settle(self) -> None:
        with self._cond:
            self._done = True
            self._cond.notify_all()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._invoke(fn)

    def _fulfill(self, result: TaskResult) -> None:
        if self._done:
            return  # a replayed task can complete twice; first wins
        self._result = result
        self._settle()

    def _fail(self, error: BaseException) -> None:
        if self._done:
            return
        self._error = error
        self._settle()


#: What ``submit`` accepts: one spec or any sequence of specs
#: (bundling to ``bundle_size`` is internal).
Submittable = Union[TaskSpec, Sequence[TaskSpec]]


class LiveClient:
    """Client bound to one live dispatcher.

    Use as a context manager (``with LiveClient.connect(host, port) as
    client:``) so the instance is destroyed and the socket closed even
    when a run dies half-way.
    """

    def __init__(
        self,
        address: EndpointLike,
        key: Optional[bytes] = None,
        bundle_size: int = 300,
        max_reconnects: int = RECONNECT_ATTEMPTS,
        max_submit_retries: int = 1000,
    ) -> None:
        if bundle_size <= 0:
            raise ValueError("bundle_size must be positive")
        if max_reconnects < 0:
            raise ValueError("max_reconnects must be >= 0")
        if max_submit_retries < 0:
            raise ValueError("max_submit_retries must be >= 0")
        #: The dispatcher's address as an :class:`Endpoint` (accepts a
        #: ``falkon://host:port`` / ``host:port`` string; the legacy
        #: tuple spelling is gone).
        self.endpoint = as_endpoint(address, owner="LiveClient")
        self.key = key
        self.bundle_size = bundle_size
        self.max_reconnects = max_reconnects
        #: Bound on per-bundle SUBMIT_REJECT resubmissions before
        #: giving up (a safety valve — with capped backoff this is
        #: minutes of sustained overload; the router sets 0 to
        #: retarget at once).
        self.max_submit_retries = max_submit_retries
        self.reconnects = 0
        #: SUBMIT_REJECT frames received (admission-control pushback).
        self.submit_rejects = 0
        self._futures: dict[str, TaskFuture] = {}
        #: One condition shared by every future this client creates
        #: (see :class:`TaskFuture` — no per-task Event allocation).
        self._future_cond = threading.Condition()
        self._lock = threading.Lock()
        self._instance_ready = threading.Event()
        self._submit_ack = threading.Event()
        #: Outcome of the last SUBMIT exchange, written by the handler
        #: before ``_submit_ack`` is set: ``{"ok": bool, "retry_after": s}``.
        self._submit_reply: dict = {}
        # Serialises whole submit calls: the ack event + reply dict are
        # one-slot state, so two threads interleaving bundles would
        # cross wires.
        self._submit_lock = threading.Lock()
        self._results_reply = threading.Event()
        self._user_closed = False
        self._reconnecting = threading.Lock()
        self.epr: Optional[str] = None
        #: Bounded ring of structured wire events (see repro.obs.flight).
        self.flight = FlightRecorder("client")
        self._conn = self._connect()

    @classmethod
    def connect(cls, host: str, port: int, **kwargs) -> "LiveClient":
        """Dial ``host:port`` and return a connected client.

        Equivalent to ``LiveClient(Endpoint(host, port), **kwargs)`` —
        the named constructor reads better at call sites and keeps the
        address value an implementation detail.
        """
        return cls(Endpoint(host, int(port)), **kwargs)

    # -- connection management -------------------------------------------------
    def _connect(self) -> Connection:
        """Dial the dispatcher and (re-)establish our instance."""
        conn = Connection.dial(self.endpoint, self._handle,
                               on_close=self._conn_closed, key=self.key,
                               name="client", timeout=10.0)
        # Factory/instance pattern: obtain our endpoint reference first;
        # a reconnect resumes the existing instance by sending it back.
        self._instance_ready.clear()
        payload = {"epr": self.epr} if self.epr else {}
        try:
            conn.send(Message(MessageType.CREATE_INSTANCE, sender="client", payload=payload))
        except ProtocolError:
            conn.close()
            raise
        if not self._instance_ready.wait(10.0):
            conn.close()
            raise ProtocolError("dispatcher did not answer CREATE_INSTANCE")
        return conn

    def _conn_closed(self) -> None:
        if self._user_closed or self.epr is None or self.max_reconnects == 0:
            return
        threading.Thread(
            target=self._reconnect_loop, name="client-reconnect", daemon=True
        ).start()

    def _reconnect_loop(self) -> None:
        if not self._reconnecting.acquire(blocking=False):
            return  # another reconnect attempt is already running
        try:
            for delay in backoff(self.max_reconnects):
                if self._user_closed:
                    return
                time.sleep(delay)
                try:
                    self._conn = self._connect()
                except Exception:
                    continue
                self.reconnects += 1
                try:
                    # Backfill anything settled while we were away.
                    self._conn.send(Message(MessageType.GET_RESULTS, sender=self.epr))
                except ProtocolError:
                    continue
                return
            error = ReconnectError(
                f"lost dispatcher {self.endpoint.url} after {self.max_reconnects} reconnect attempts"
            )
            with self._lock:
                pending = [f for f in self._futures.values() if not f.done()]
            for future in pending:
                future._fail(error)
        finally:
            self._reconnecting.release()

    # -- API ------------------------------------------------------------------
    @overload
    def submit(self, tasks: TaskSpec) -> TaskFuture: ...
    @overload
    def submit(self, tasks: Sequence[TaskSpec]) -> list[TaskFuture]: ...

    def submit(self, tasks: Submittable):
        """Submit work; returns one future per task.

        Accepts a single :class:`TaskSpec` (returns its one future) or
        a sequence of specs (returns a list of futures, same order).
        """
        if isinstance(tasks, TaskSpec):
            return self._submit_many([tasks])[0]
        return self._submit_many(list(tasks))

    def _submit_many(self, tasks: list[TaskSpec]) -> list[TaskFuture]:
        if not tasks:
            return []
        # Encode every frame before touching shared state, for the same
        # reason as the id checks below: a task the codec refuses must
        # not leave the bundle's other futures registered.
        frames = [self._encode_bundle(bundle)
                  for bundle in Bundle.split(tasks, self.bundle_size)]
        futures = []
        with self._lock:
            # Validate the *whole* bundle before touching shared state:
            # a duplicate in the middle must not leave earlier tasks
            # half-registered (their futures would shadow a later,
            # corrected submission and never settle).
            seen: set[str] = set()
            for spec in tasks:
                if spec.task_id in self._futures:
                    raise ValueError(f"task id {spec.task_id!r} already submitted")
                if spec.task_id in seen:
                    raise ValueError(f"duplicate task id {spec.task_id!r} in bundle")
                seen.add(spec.task_id)
            for spec in tasks:
                future = TaskFuture(spec.task_id, self._future_cond)
                self._futures[spec.task_id] = future
                futures.append(future)
        with self._submit_lock:
            for frame, count in frames:
                self._send_bundle(frame, count)
        return futures

    def _encode_bundle(self, bundle: Bundle) -> tuple[bytes, int]:
        """One bundle's SUBMIT frame and task count; ``ValueError``
        naming the first task the codec refuses (an unpaired surrogate
        in a string, an integer beyond 64 bits)."""
        specs = [task_to_dict(t) for t in bundle]
        # The dispatcher keeps the parsed spec dicts verbatim for
        # re-dispatch.
        message = Message(MessageType.SUBMIT, sender=self.epr or "client",
                          payload={"tasks": specs})
        try:
            return encode_message_v4(message, key=self.key), len(specs)
        except TypeError:
            for spec in specs:
                try:
                    dumps(spec)
                except TypeError as exc:
                    raise ValueError(
                        f"task {spec['task_id']!r} cannot be encoded: {exc}") from None
            raise

    def _send_bundle(self, frame: bytes, count: int) -> None:
        """One SUBMIT exchange, resubmitting on SUBMIT_REJECT.

        Each retry waits the next :func:`backoff` delay, with the
        dispatcher's ``retry_after`` hint as a floor and
        ``RECONNECT_CAP`` as the ceiling; resubmission is idempotent
        (the dispatcher dedupes task ids), so a lost ack is safe to
        retry too.
        """
        delays = backoff(self.max_submit_retries)
        while True:
            self._submit_ack.clear()
            self._submit_reply = {}
            self._conn.send_encoded(frame)
            self.flight.record(FRAME_TX, "SUBMIT", tasks=count)
            if not self._submit_ack.wait(30.0):
                raise ProtocolError("dispatcher did not acknowledge SUBMIT")
            reply = self._submit_reply
            if reply.get("ok", True):
                return
            delay = next(delays, None)
            if delay is None:
                break
            retry_after = float(reply.get("retry_after", 0.0) or 0.0)
            time.sleep(min(max(retry_after, delay), RECONNECT_CAP))
        raise ProtocolError(
            f"dispatcher rejected SUBMIT {self.max_submit_retries + 1} times "
            "(queue stayed full)"
        )

    def run(
        self, tasks: Iterable[TaskSpec], timeout: Optional[float] = None
    ) -> list[TaskResult]:
        """Submit and wait for every result, in task order."""
        futures = self._submit_many(list(tasks))
        return [f.result(timeout) for f in futures]

    def map(
        self, tasks: Iterable[TaskSpec], timeout: Optional[float] = None
    ) -> list[TaskResult]:
        """Alias of :meth:`run` — the :class:`~repro.api.FalkonClient`
        protocol name for submit-and-wait."""
        return self.run(tasks, timeout=timeout)

    def as_completed(self, futures, timeout: Optional[float] = None):
        """Yield futures in settlement order (see
        :func:`repro.api.as_completed`)."""
        from repro.api import as_completed

        return as_completed(futures, timeout=timeout)

    def release_settled(self) -> int:
        """Forget settled futures; returns how many were dropped.

        A long-running client (the soak harness submits millions of
        tasks through one instance) would otherwise accrete one future
        per task forever.  Dropping a done future also frees its task
        id for resubmission; outstanding futures are untouched.
        """
        with self._lock:
            done = [tid for tid, f in self._futures.items() if f.done()]
            for tid in done:
                del self._futures[tid]
        return len(done)

    def close(self) -> None:
        self._user_closed = True
        try:
            if not self._conn.closed:
                self._conn.send(Message(MessageType.DESTROY_INSTANCE, sender=self.epr or ""))
        except Exception:
            pass
        self._conn.close()

    #: FalkonClient protocol spelling of :meth:`close`.
    shutdown = close

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inbound ---------------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        self.flight.record(FRAME_RX, msg.type.name)
        if msg.type is MessageType.INSTANCE_CREATED:
            self.epr = msg.payload.get("epr")
            self._instance_ready.set()
        elif msg.type is MessageType.SUBMIT_ACK:
            self._submit_reply = {"ok": True}
            self._submit_ack.set()
        elif msg.type is MessageType.SUBMIT_REJECT:
            # Admission-control pushback: record the hint, then wake
            # the submitter (reply before event — the waiter reads it).
            self.submit_rejects += 1
            self._submit_reply = {
                "ok": False,
                "retry_after": msg.payload.get("retry_after", 0.0),
            }
            self._submit_ack.set()
        elif msg.type is MessageType.CLIENT_NOTIFY:
            # Results settled together ride one frame.
            self._fulfill_many(msg.payload.get("results", ()))
        elif msg.type is MessageType.RESULTS:
            # Poll/backfill reply {10}: everything finished so far.
            self._fulfill_many(msg.payload.get("results", ()))
            self._results_reply.set()

    def _fulfill_many(self, payloads) -> None:
        # The payload dicts are wire-owned (freshly parsed, this
        # handler is their only reader), so no defensive copy;
        # ``timeline`` is read in place and extra keys are ignored
        # downstream.  The whole frame settles under ONE acquisition
        # of the shared future condition — per-future _fulfill cost a
        # lock round trip and a notify_all per task, which profiled as
        # a top client-side frame at 10k+ tasks/s.
        if not payloads:
            return
        pairs = []
        with self._lock:
            futures = self._futures
            for payload in payloads:
                timeline = payload.get("timeline") or {}
                result = result_from_dict(payload, TaskTimeline(
                    submitted=timeline.get("submitted", _NAN),
                    dispatched=timeline.get("dispatched", _NAN),
                    completed=timeline.get("completed", _NAN),
                ))
                future = futures.get(result.task_id)
                if future is not None:
                    pairs.append((future, result))
        if not pairs:
            return
        fire = []
        with self._future_cond:
            for future, result in pairs:
                if future._done:
                    continue  # a replayed task can complete twice; first wins
                future._result = result
                future._done = True
                if future._callbacks:
                    fire.append((future, future._callbacks))
                    future._callbacks = []
            self._future_cond.notify_all()
        for future, callbacks in fire:
            for fn in callbacks:
                future._invoke(fn)

    def __repr__(self) -> str:
        return f"<LiveClient epr={self.epr} outstanding={len(self._futures)}>"
