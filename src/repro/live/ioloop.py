"""Selector-driven I/O core for the live plane.

One :class:`IOLoop` multiplexes every registered connection over a
single ``selectors`` (epoll/kqueue) thread: non-blocking reads feed
each connection's frame parser, buffered writes are flushed as sockets
drain, and listening sockets accept inline.  Executor count therefore
no longer implies thread count — the dispatcher runs one I/O thread
regardless of how many sessions it serves, where the previous design
spawned a reader thread per connection.

Thread model
------------
* The loop thread owns the selector.  All selector mutations funnel
  through :meth:`call_soon`, a wake-up pipe plus an op queue, so any
  thread may attach/detach connections or arm write interest — or run
  any other op that must happen on the loop thread.
* Connection handlers run *on the loop thread*.  They must not block;
  the live plane's handlers only append to queues/buffers.  A
  connection's ``on_close`` callback fires on whichever thread closed
  it — the loop on EOF or a read error, any other thread whose send
  failed or that called ``close()`` — so a server whose state the loop
  owns posts its close work back with :meth:`call_soon`.
* Sends happen on the caller's thread: frames go into the
  connection's write buffer and are flushed opportunistically
  (non-blocking) right there; whatever the socket refuses is flushed
  by the loop when the socket becomes writable again.  One slow peer
  therefore never stalls another peer's traffic.

``default_loop()`` returns a process-wide shared loop for outbound
connections (clients, executors, provisioners); servers own a loop
per instance so their lifecycle is self-contained.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.protocol import Connection

__all__ = ["IOLoop", "default_loop"]


#: Lag-probe interval: the loop's ``select`` wakes at least this often
#: so the scheduled-vs-actual wakeup delta can be measured even on an
#: otherwise idle loop.  Coarse on purpose — two extra wakeups per
#: second cost nothing and the probe only needs to notice *seconds*
#: of starvation (a handler blocking the loop thread).
LAG_PROBE_INTERVAL = 0.5


class IOLoop:
    """A single-threaded selector loop serving many connections."""

    def __init__(self, name: str = "io") -> None:
        self.name = name
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        self._ops: deque[Callable[[], None]] = deque()
        self._stopped = threading.Event()
        self._start_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: Latest scheduled-vs-actual wakeup delta (seconds).  Written
        #: only by the loop thread; read by watchdog gauges.  A loop
        #: thread starved by a blocking handler shows up here because
        #: its timed ``select`` returns far later than requested.
        self.lag_s = 0.0
        #: Worst lag observed since the last :meth:`drain_max_lag`.
        self.max_lag_s = 0.0
        #: Loop iterations completed (GIL-atomic increments).
        self.iterations = 0
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: timer wakeups record ``loop.iter`` events (~2/s, not per fd).
        self.flight = None

    def drain_max_lag(self) -> float:
        """Return and reset the worst wakeup lag seen (watchdog sweep)."""
        peak, self.max_lag_s = self.max_lag_s, 0.0
        return peak

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "IOLoop":
        with self._start_lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=f"ioloop-{self.name}", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop thread and close every registered fd."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._wake()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        for key in list(self._selector.get_map().values()):
            kind, obj = key.data
            try:
                self._selector.unregister(key.fileobj)
            except (KeyError, ValueError, OSError):
                pass
            if kind == "conn":
                try:
                    key.fileobj.close()
                except OSError:
                    pass
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def in_loop_thread(self) -> bool:
        """Whether the caller is running on this loop's thread."""
        return threading.current_thread() is self._thread

    # -- cross-thread requests ----------------------------------------------
    def call_soon(self, op: Callable[[], None]) -> None:
        """Run *op* on the loop thread at its next iteration (from any
        thread, the loop thread included)."""
        self._ops.append(op)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # pipe full or closed: the loop is awake or gone

    def attach(self, conn: "Connection") -> None:
        """Register *conn* for reads (socket must be non-blocking)."""
        self.start()
        self.call_soon(lambda: self._attach(conn))

    def detach(self, conn: "Connection") -> None:
        """Unregister *conn* and close its fd on the loop thread."""
        self.call_soon(lambda: self._detach(conn))
        if self._stopped.is_set() or self._thread is None:
            self._detach(conn)  # loop gone: finalise inline

    def want_write(self, conn: "Connection") -> None:
        """Arm write interest for *conn* (buffered bytes pending)."""
        self.call_soon(lambda: self._set_mask(
            conn, selectors.EVENT_READ | selectors.EVENT_WRITE))

    def clear_write(self, conn: "Connection") -> None:
        self.call_soon(lambda: self._set_mask(conn, selectors.EVENT_READ))

    def add_server(self, sock: socket.socket,
                   on_accept: Callable[[socket.socket], None]) -> None:
        """Accept inbound connections on *sock* via the loop."""
        self.start()
        sock.setblocking(False)

        def register() -> None:
            try:
                self._selector.register(
                    sock, selectors.EVENT_READ, ("accept", on_accept))
            except (KeyError, ValueError, OSError):
                pass

        self.call_soon(register)

    # -- loop-thread internals ----------------------------------------------
    def _attach(self, conn: "Connection") -> None:
        if conn.closed:
            return
        try:
            self._selector.register(
                conn.sock, selectors.EVENT_READ, ("conn", conn))
        except (KeyError, ValueError, OSError):
            conn.close()

    def _detach(self, conn: "Connection") -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _set_mask(self, conn: "Connection", mask: int) -> None:
        try:
            self._selector.modify(conn.sock, mask, ("conn", conn))
        except (KeyError, ValueError, OSError):
            pass  # already detached or closed

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _accept_ready(self, server: socket.socket,
                      on_accept: Callable[[socket.socket], None]) -> None:
        while True:
            try:
                client, _addr = server.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                try:
                    self._selector.unregister(server)
                except (KeyError, ValueError, OSError):
                    pass
                return
            try:
                on_accept(client)
            except Exception:
                try:
                    client.close()
                except OSError:
                    pass

    def _run(self) -> None:
        # The lag probe: every iteration schedules the next wakeup for
        # at most LAG_PROBE_INTERVAL away (select gets a timeout), and
        # the next iteration measures how far past that deadline it
        # actually started.  A handler that blocks the loop thread for
        # N seconds therefore shows up as ~N seconds of lag even though
        # select itself returned promptly.
        next_probe = time.monotonic() + LAG_PROBE_INTERVAL
        while not self._stopped.is_set():
            now = time.monotonic()
            if now > next_probe:
                lag = now - next_probe
                self.lag_s = lag
                if lag > self.max_lag_s:
                    self.max_lag_s = lag
                flight = self.flight
                if flight is not None:
                    flight.record("loop.iter", self.name, lag_s=round(lag, 6))
            else:
                self.lag_s = 0.0
            next_probe = now + LAG_PROBE_INTERVAL
            while self._ops:
                op = self._ops.popleft()
                try:
                    op()
                except Exception:
                    pass  # a bad op must never kill the loop
            try:
                events = self._selector.select(LAG_PROBE_INTERVAL)
            except OSError:
                continue
            self.iterations += 1
            for key, mask in events:
                kind, obj = key.data
                if kind == "wake":
                    self._drain_wake()
                elif kind == "accept":
                    self._accept_ready(key.fileobj, obj)
                else:
                    conn = obj
                    try:
                        if mask & selectors.EVENT_WRITE:
                            conn._on_writable()
                        if mask & selectors.EVENT_READ and not conn.closed:
                            conn._on_readable()
                    except Exception:
                        try:
                            conn.close()
                        except Exception:
                            pass


_default_loop: Optional[IOLoop] = None
_default_lock = threading.Lock()


def default_loop() -> IOLoop:
    """The process-wide shared loop for outbound connections."""
    global _default_loop
    with _default_lock:
        if _default_loop is None or _default_loop._stopped.is_set():
            _default_loop = IOLoop(name="shared")
        return _default_loop.start()
