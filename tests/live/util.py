"""Shared helpers for live-plane tests.

``wait_until`` replaces fixed ``time.sleep`` waits with bounded
condition polling so the suite stays fast on idle machines and stable
on loaded ones.  ``RawPeer`` is a hand-driven protocol endpoint for
tests that need byte-level control (half-open sockets, mid-exchange
deaths) that the cooperative :class:`LiveExecutor` can't express.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Callable, Optional

from repro.net.message import Message, MessageType
from repro.net.wire import FrameReader, encode_message_v4


def wait_until(
    condition: Callable[[], bool],
    timeout: float = 10.0,
    interval: float = 0.01,
) -> bool:
    """Poll *condition* until true or *timeout* elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return bool(condition())


class RawPeer:
    """A synchronous, scriptable peer speaking the wire protocol."""

    def __init__(self, address: tuple[str, int], key: Optional[bytes] = None) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.settimeout(10.0)
        self.key = key
        self._reader = FrameReader(key=key)
        self._pending: deque[Message] = deque()

    def send(self, msg: Message) -> None:
        self.sock.sendall(encode_message_v4(msg, key=self.key))

    def recv(self, timeout: float = 5.0) -> Message:
        """Next inbound message; raises ``TimeoutError`` when none."""
        if self._pending:
            return self._pending.popleft()
        self.sock.settimeout(timeout)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed")
            self._pending.extend(self._reader.feed(chunk))
            if self._pending:
                return self._pending.popleft()
        raise TimeoutError("no message within timeout")

    def recv_until(self, mtype: MessageType, timeout: float = 5.0) -> Message:
        """Read messages, discarding others, until *mtype* arrives."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            msg = self.recv(timeout=max(0.05, deadline - time.monotonic()))
            if msg.type is mtype:
                return msg
        raise TimeoutError(f"no {mtype} within timeout")

    def recv_work(self, timeout: float = 5.0) -> list[dict]:
        """The task entries of the next WORK frame, pushed to this peer
        while it is idle."""
        return self.recv_until(MessageType.WORK, timeout).payload["tasks"]

    def register(self, executor_id: str) -> None:
        self.send(
            Message(
                MessageType.REGISTER,
                sender=executor_id,
                payload={"executor_id": executor_id},
            )
        )
        self.recv_until(MessageType.REGISTER_ACK)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
