"""Framed connections and task serialisation for the live plane.

A :class:`Connection` wraps a TCP socket with the wire codec from
:mod:`repro.net.wire`: buffered, thread-safe framed sends flushed by a
shared :class:`~repro.live.ioloop.IOLoop`, which also delivers parsed
:class:`~repro.net.message.Message` objects to a handler.  With a
shared key, every frame is HMAC-signed — the reproduction's stand-in
for GSISecureConversation (per-message authentication treated as
per-message overhead, §4.1).

Sends never block while holding the send lock: frames are appended to
a per-connection write buffer, flushed inline with non-blocking
``send`` as far as the socket allows, and the event loop finishes the
rest when the socket drains.  A slow or stalled peer therefore backs
up only its own buffer — heartbeat ACKs to other executors keep
flowing (the old implementation held the lock across ``sendall``).
Consecutive small frames that land in the buffer together are
coalesced into a single syscall.

Every live-plane dialer — client, executor, provisioner and peer link
— connects through :meth:`Connection.dial` and retries on the one
:func:`backoff` schedule.
"""

from __future__ import annotations

import itertools
import math
import socket
import sys
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional

from repro.errors import ProtocolError
from repro.live.ioloop import IOLoop, default_loop
from repro.net.message import Message
from repro.net.wire import FrameReader, encode_message_v4
from repro.types import DataLocation, DataRef, TaskResult, TaskSpec, TaskTimeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.endpoint import Endpoint

__all__ = [
    "Connection",
    "backoff",
    "RECONNECT_BASE",
    "RECONNECT_CAP",
    "RECONNECT_ATTEMPTS",
    "task_to_dict",
    "task_from_dict",
    "spec_task_id",
    "result_to_dict",
    "result_from_dict",
    "stats_from_payload",
]


# ---------------------------------------------------------------------------
# task / result serialisation
# ---------------------------------------------------------------------------
def _ref_to_dict(ref: DataRef) -> dict[str, Any]:
    return {"name": ref.name, "size": ref.size_bytes, "location": ref.location.value}


def _ref_from_dict(data: dict[str, Any]) -> DataRef:
    return DataRef(data["name"], data["size"], DataLocation(data["location"]))


#: One default-constructed instance of each dataclass: the codecs below
#: compare against (and fall back to) these, so the dataclass stays the
#: only place a field default is written down.
_SPEC0 = TaskSpec(task_id="defaults")
_RESULT0 = TaskResult(task_id="defaults")


def task_to_dict(task: TaskSpec) -> dict[str, Any]:
    """Serialise a :class:`TaskSpec` for the wire and the WAL.

    Sparse: ``task_id`` plus only the fields that differ from the
    dataclass defaults — a sleep-0 spec is ``{"task_id", "args"}``.
    A spec crosses four hops and eight JSON passes per task; a default
    that travels says nothing and costs bytes, parse time and one
    GC-tracked list per empty collection at every one of them.
    """
    d = _SPEC0
    data: dict[str, Any] = {"task_id": task.task_id}
    if task.command != d.command:
        data["command"] = task.command
    if task.args != d.args:
        data["args"] = list(task.args)
    if task.working_dir != d.working_dir:
        data["working_dir"] = task.working_dir
    if task.env != d.env:
        data["env"] = [list(pair) for pair in task.env]
    if task.duration != d.duration:
        data["duration"] = task.duration
    if task.reads != d.reads:
        data["reads"] = [_ref_to_dict(r) for r in task.reads]
    if task.writes != d.writes:
        data["writes"] = [_ref_to_dict(r) for r in task.writes]
    if task.runtime_estimate != d.runtime_estimate:
        data["runtime_estimate"] = task.runtime_estimate
    if task.stage != d.stage:
        data["stage"] = task.stage
    return data


def task_from_dict(data: dict[str, Any]) -> TaskSpec:
    """Parse a wire/WAL dict back into a :class:`TaskSpec`.

    Any subset of the fields is accepted — absent means default — so
    the sparse form, the all-keys form of older journals and
    checkpoints, and a hand-written peer's minimal spec all parse
    through these same lines.  Non-dict input raises ``TypeError``, a
    missing ``task_id`` ``KeyError`` and one that is not a string
    ``TypeError`` (recovery skips such records).
    The low-cardinality strings are interned: a decoded frame carries
    a fresh command / stage label per task, and the dispatcher retains
    every spec.
    """
    task_id = data["task_id"]
    if not isinstance(task_id, str):
        raise TypeError(f"task_id must be a string, got {type(task_id).__name__}")
    get = data.get
    d = _SPEC0
    intern = sys.intern
    args = get("args")
    env = get("env")
    reads = get("reads")
    writes = get("writes")
    return TaskSpec(
        task_id=task_id,
        command=intern(get("command", d.command)),
        args=tuple(args) if args else d.args,
        working_dir=intern(get("working_dir", d.working_dir)),
        env=tuple(tuple(pair) for pair in env) if env else d.env,
        duration=get("duration", d.duration),
        reads=tuple(_ref_from_dict(r) for r in reads) if reads else d.reads,
        writes=tuple(_ref_from_dict(r) for r in writes) if writes else d.writes,
        runtime_estimate=get("runtime_estimate", d.runtime_estimate),
        stage=intern(get("stage", d.stage)),
    )


#: Spec keys :func:`task_from_dict` takes as is when of exactly this type.
_PLAIN_SPEC_KEYS = {"task_id": str, "command": str, "args": list,
                    "working_dir": str, "stage": str}


def spec_task_id(data: Any) -> str:
    """The ``task_id`` of a wire/WAL spec dict, refusing exactly what
    :func:`task_from_dict` refuses, with the same exception class, but
    without building the :class:`TaskSpec` admission would drop.  A
    dict of plain keys of exactly the type it takes as is, a finite,
    non-negative float ``duration``, ``runtime_estimate`` (stored as
    given) and keys outside the spec (ignored) is judged here — the
    sparse sleep-0 spec is ``{"task_id", "args"}`` — anything else by
    :func:`task_from_dict` itself."""
    if type(data) is dict and type(task_id := data.get("task_id")) is str and task_id:
        for key, value in data.items():
            kind = _PLAIN_SPEC_KEYS.get(key)
            if (type(value) is not kind if kind is not None
                    else key in ("env", "reads", "writes") or key == "duration" and not (
                        type(value) is float and 0.0 <= value < math.inf)):
                break
        else:
            return task_id
    return task_from_dict(data).task_id


def result_to_dict(result: TaskResult) -> dict[str, Any]:
    """Serialise a :class:`TaskResult`, sparse like :func:`task_to_dict`
    (an ok result is ``{"task_id", "executor_id"}``).  The timeline is
    excluded: the dispatcher keeps authoritative timestamps."""
    d = _RESULT0
    data: dict[str, Any] = {"task_id": result.task_id}
    if result.return_code != d.return_code:
        data["return_code"] = result.return_code
    if result.stdout != d.stdout:
        data["stdout"] = result.stdout
    if result.stderr != d.stderr:
        data["stderr"] = result.stderr
    if result.executor_id != d.executor_id:
        data["executor_id"] = result.executor_id
    if result.error != d.error:
        data["error"] = result.error
    if result.attempts != d.attempts:
        data["attempts"] = result.attempts
    return data


def result_from_dict(
    data: dict[str, Any], timeline: Optional[TaskTimeline] = None
) -> TaskResult:
    """Parse a wire/WAL dict back into a :class:`TaskResult`; any subset
    of the fields is accepted and unknown keys are ignored, as in
    :func:`task_from_dict`.

    The wire form carries no timeline; the result gets *timeline* when
    the caller already owns the authoritative one (the dispatcher's
    record), else a fresh empty one.
    """
    task_id = data["task_id"]
    get = data.get
    d = _RESULT0
    return TaskResult(
        task_id=task_id,
        return_code=get("return_code", d.return_code),
        stdout=get("stdout", d.stdout),
        stderr=get("stderr", d.stderr),
        executor_id=get("executor_id", d.executor_id),
        error=get("error", d.error),
        attempts=get("attempts", d.attempts),
        timeline=timeline if timeline is not None else TaskTimeline(),
    )


#: Most entries one ``stats`` field keeps (the junk-peer bound).
MAX_STATS_KEYS = 32


def stats_from_payload(payload: Mapping[str, Any]) -> Optional[dict[str, float]]:
    """Extract the optional ``stats`` field from a payload.

    HEARTBEAT and STATUS frames may carry a compact ``stats`` dict of
    numeric deltas (see ``docs/PROTOCOL.md``).  It is best-effort:
    entries that are not ``str: finite number`` are dropped rather than
    trusted, and at most :data:`MAX_STATS_KEYS` are kept — a junk peer
    must never poison or bloat the telemetry rows the dispatcher serves
    on ``/status``.  Returns ``None`` when nothing usable remains.
    """
    raw = payload.get("stats")
    if not isinstance(raw, Mapping):
        return None
    out: dict[str, float] = {}
    for key, value in raw.items():
        if len(out) >= MAX_STATS_KEYS:
            break
        if not isinstance(key, str):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not math.isfinite(value):
            continue
        out[key] = float(value)
    return out or None


# ---------------------------------------------------------------------------
# reconnect policy
# ---------------------------------------------------------------------------
#: First retry delay (seconds); each later one doubles it.
RECONNECT_BASE = 0.05
#: Ceiling on one retry delay (seconds).
RECONNECT_CAP = 2.0
#: Retries a component makes before it gives up on its dispatcher.
RECONNECT_ATTEMPTS = 5


def backoff(attempts: Optional[int]) -> Iterator[float]:
    """The delays to sleep before each retry: ``RECONNECT_BASE · 2^n``
    capped at ``RECONNECT_CAP``, *attempts* of them (``None``: without
    end).  The first dial is not a retry and waits for nothing."""
    delay = min(RECONNECT_BASE, RECONNECT_CAP)
    for _ in itertools.repeat(None) if attempts is None else range(attempts):
        yield delay
        delay = min(delay * 2, RECONNECT_CAP)


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------
#: Coalesce buffered frames into writes of at most this many bytes;
#: large enough to batch a burst of small ACK/NOTIFY frames into one
#: syscall, small enough to keep per-write memory copies bounded.
_COALESCE_BYTES = 64 * 1024


class Connection:
    """A message-oriented wrapper over one TCP socket.

    ``handler(message)`` runs on the I/O loop thread for every inbound
    message; ``on_close()`` fires once when the peer disconnects or
    the stream errors out.  Sends are safe from any thread: the frame
    enters the write buffer, gets flushed as far as the non-blocking
    socket allows, and the loop drains the remainder.
    """

    def __init__(
        self,
        sock: socket.socket,
        handler: Callable[[Message], None],
        on_close: Optional[Callable[[], None]] = None,
        key: Optional[bytes] = None,
        name: str = "conn",
        loop: Optional[IOLoop] = None,
    ) -> None:
        self.sock = sock
        self.handler = handler
        self.on_close = on_close
        self.key = key
        self.name = name
        self._loop = loop
        self._reader = FrameReader(key=key)
        self._out: deque[bytes] = deque()
        self._out_lock = threading.Lock()
        self._write_armed = False
        self._started = False
        self._closed = threading.Event()

    @classmethod
    def dial(
        cls,
        endpoint: "Endpoint",
        handler: Callable[[Message], None],
        *,
        on_close: Optional[Callable[[], None]] = None,
        key: Optional[bytes] = None,
        name: str,
        timeout: float,
        loop: Optional[IOLoop] = None,
    ) -> "Connection":
        """Connect to *endpoint* within *timeout* seconds, disable
        Nagle and start the connection on *loop* (default: the shared
        loop); ``OSError`` when the peer cannot be reached."""
        sock = socket.create_connection(endpoint.address, timeout=timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        return cls(sock, handler, on_close=on_close, key=key, name=name,
                   loop=loop).start()

    def start(self) -> "Connection":
        if self._loop is None:
            self._loop = default_loop()
        self.sock.setblocking(False)
        self._started = True
        self._loop.attach(self)
        return self

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def send(self, message: Message) -> None:
        """Frame, sign (if keyed) and transmit *message*."""
        self.send_encoded(encode_message_v4(message, key=self.key))

    def send_encoded(self, frame: bytes) -> None:
        """Queue one already-encoded frame for transmission.

        This is the choke point for pre-encoded fast paths (the cached
        NOTIFY steal hint) and for fault injection
        (:class:`repro.live.faults.FaultyConnection` overrides it).
        """
        self._transmit(frame)

    def _transmit(self, frame: bytes) -> None:
        """Buffer one frame and flush as much as the socket accepts."""
        if self._closed.is_set():
            raise ProtocolError(f"{self.name}: send on closed connection")
        error: Optional[OSError] = None
        with self._out_lock:
            self._out.append(frame)
            if self._started:
                try:
                    self._flush_locked()
                except OSError as exc:
                    error = exc
            else:
                # Not yet on the loop (blocking socket): classic sendall.
                try:
                    while self._out:
                        self.sock.sendall(self._out.popleft())
                except OSError as exc:
                    error = exc
        if error is not None:
            self.close()
            raise ProtocolError(f"{self.name}: send failed: {error}") from error

    def _flush_locked(self) -> None:
        """Write buffered frames until empty or the socket would block.

        Caller holds ``_out_lock``.  Consecutive small frames are
        joined so a burst of ACKs costs one syscall, not one each.
        Raises OSError on a dead socket (caller decides how to close).
        """
        while self._out:
            chunk = self._out.popleft()
            if self._out and len(chunk) < _COALESCE_BYTES:
                parts = [chunk]
                total = len(chunk)
                while self._out and total < _COALESCE_BYTES:
                    nxt = self._out.popleft()
                    parts.append(nxt)
                    total += len(nxt)
                chunk = b"".join(parts)
            try:
                sent = self.sock.send(chunk)
            except (BlockingIOError, InterruptedError):
                sent = 0
            if sent < len(chunk):
                self._out.appendleft(chunk[sent:])
                if not self._write_armed and self._loop is not None:
                    self._write_armed = True
                    self._loop.want_write(self)
                return

    # -- loop callbacks (I/O thread only) -----------------------------------
    def _on_writable(self) -> None:
        error = False
        with self._out_lock:
            try:
                self._flush_locked()
            except OSError:
                error = True
            if not error and not self._out and self._write_armed:
                self._write_armed = False
                if self._loop is not None:
                    self._loop.clear_write(self)
        if error:
            self.close()

    def _on_readable(self) -> None:
        try:
            chunk = self.sock.recv(262144)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.close()
            return
        if not chunk:
            self.close()
            return
        try:
            for message in self._reader.feed(chunk):
                self.handler(message)
        except ProtocolError:
            self.close()  # tampered/garbled stream: drop the connection
        except Exception:
            self.close()  # a handler fault poisons only this connection

    def close(self) -> None:
        """Close the socket; idempotent."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._out_lock:
            # Last-gasp flush so deliberately truncated frames (fault
            # injection KILL) and final ACKs reach the wire when the
            # socket has room.
            try:
                while self._out:
                    chunk = self._out.popleft()
                    sent = self.sock.send(chunk)
                    if sent < len(chunk):
                        break
            except OSError:
                pass
            self._out.clear()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._started and self._loop is not None:
            self._loop.detach(self)
        else:
            try:
                self.sock.close()
            except OSError:
                pass
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until the connection has closed."""
        self._closed.wait(timeout)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Connection {self.name} {state}>"
