"""Live 3-tier architecture: a real TCP forwarder (Figure 16).

"One or more forwarders receive tasks from a client ... dispatchers
are deployed on cluster manager nodes ... each dispatcher manages a
disjoint set of executors."

:class:`LiveForwarder` speaks the client protocol on both sides: to
*its* clients it looks like a dispatcher (CREATE_INSTANCE / SUBMIT /
CLIENT_NOTIFY); to each downstream dispatcher it is a client.  Tasks
are routed to the dispatcher with the fewest outstanding tasks;
results are relayed back to the owning upstream client.  This lets
clients reach executors living behind dispatchers in private address
space — and multiplies aggregate dispatch capacity.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Optional

from repro.errors import ProtocolError
from repro.live.endpoint import Endpoint
from repro.live.protocol import Connection
from repro.net.message import Message, MessageType

__all__ = ["LiveForwarder"]


class _Downstream:
    """The forwarder's client-side link to one dispatcher."""

    def __init__(self, forwarder: "LiveForwarder", address: tuple[str, int]) -> None:
        self.forwarder = forwarder
        self.address = address
        self.outstanding = 0
        self.total_routed = 0
        self._instance_ready = threading.Event()
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conn = Connection(
            sock, handler=self._handle, key=forwarder.key,
            name=f"downstream-{address[1]}",
        ).start()
        self.conn.send(Message(MessageType.CREATE_INSTANCE, sender="forwarder"))
        if not self._instance_ready.wait(10.0):
            raise ProtocolError(f"dispatcher {address} did not answer CREATE_INSTANCE")

    def _handle(self, msg: Message) -> None:
        if msg.type is MessageType.INSTANCE_CREATED:
            self._instance_ready.set()
        elif msg.type is MessageType.CLIENT_NOTIFY:
            self.forwarder._relay_result(self, msg)


class _UpstreamClient:
    """One client connected to the forwarder."""

    def __init__(self, client_id: str, conn: Connection) -> None:
        self.client_id = client_id
        self.conn = conn


class LiveForwarder:
    """Tier-1 task router over several live dispatchers."""

    def __init__(
        self,
        dispatcher_addresses: list[tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        key: Optional[bytes] = None,
    ) -> None:
        if not dispatcher_addresses:
            raise ValueError("a forwarder needs at least one dispatcher")
        self.key = key
        self._lock = threading.RLock()
        self._clients: dict[str, _UpstreamClient] = {}
        self._task_owner: dict[str, tuple[str, "_Downstream"]] = {}
        self._client_seq = itertools.count(1)
        self.tasks_routed = 0
        self._downstreams = [_Downstream(self, addr) for addr in dispatcher_addresses]

        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._closing = threading.Event()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="forwarder-acceptor", daemon=True
        )
        self._acceptor.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def endpoint(self) -> Endpoint:
        """This forwarder's address as a typed :class:`Endpoint`."""
        return Endpoint(self.host, self.port)

    def per_dispatcher_counts(self) -> list[int]:
        """Cumulative tasks routed to each downstream dispatcher."""
        with self._lock:
            return [d.total_routed for d in self._downstreams]

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        try:
            self._server.close()
        except OSError:
            pass
        for downstream in self._downstreams:
            downstream.conn.close()
        with self._lock:
            clients = list(self._clients.values())
        for client in clients:
            client.conn.close()

    def __enter__(self) -> "LiveForwarder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- upstream (client-facing) ------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _ForwarderSession(self, sock)
            session.conn.start()

    def _on_create_instance(self, session: "_ForwarderSession") -> None:
        client_id = f"fwd-client-{next(self._client_seq):04d}"
        with self._lock:
            self._clients[client_id] = _UpstreamClient(client_id, session.conn)
        session.client_id = client_id
        session.conn.send(
            Message(MessageType.INSTANCE_CREATED, sender="forwarder",
                    payload={"epr": client_id})
        )

    def _on_submit(self, session: "_ForwarderSession", msg: Message) -> None:
        if session.client_id is None:
            session.conn.send(Message(MessageType.ERROR, payload={"error": "no instance"}))
            return
        tasks = msg.payload.get("tasks", ())
        # Split the bundle across dispatchers by outstanding load.
        assignment: dict[int, list[dict]] = {}
        with self._lock:
            for task in tasks:
                index = min(
                    range(len(self._downstreams)),
                    key=lambda i: self._downstreams[i].outstanding
                    + len(assignment.get(i, ())),
                )
                assignment.setdefault(index, []).append(task)
                self._task_owner[task["task_id"]] = (
                    session.client_id,
                    self._downstreams[index],
                )
            for index, chunk in assignment.items():
                self._downstreams[index].outstanding += len(chunk)
                self._downstreams[index].total_routed += len(chunk)
                self.tasks_routed += len(chunk)
        for index, chunk in assignment.items():
            self._downstreams[index].conn.send(
                Message(MessageType.SUBMIT, sender="forwarder",
                        payload={"tasks": chunk})
            )
        session.conn.send(
            Message(MessageType.SUBMIT_ACK, sender="forwarder",
                    payload={"accepted": len(tasks)})
        )

    # -- downstream (result relay) -------------------------------------------------
    def _relay_result(self, downstream: _Downstream, msg: Message) -> None:
        # A notify frame carries a settled batch; each entry routes to
        # its own owner.
        for payload in msg.payload.get("results", ()):
            if not isinstance(payload, dict):
                continue
            task_id = payload.get("task_id")
            with self._lock:
                owner = self._task_owner.pop(task_id, None)
                if owner is not None:
                    downstream.outstanding = max(0, downstream.outstanding - 1)
                client = self._clients.get(owner[0]) if owner else None
            if client is not None:
                try:
                    client.conn.send(
                        Message(MessageType.CLIENT_NOTIFY, sender="forwarder",
                                payload={"results": [payload]})
                    )
                except Exception:
                    pass

    def _session_closed(self, session: "_ForwarderSession") -> None:
        if session.client_id is not None:
            with self._lock:
                self._clients.pop(session.client_id, None)

    def __repr__(self) -> str:
        return f"<LiveForwarder :{self.port} dispatchers={len(self._downstreams)}>"


class _ForwarderSession:
    def __init__(self, forwarder: LiveForwarder, sock: socket.socket) -> None:
        self.forwarder = forwarder
        self.client_id: Optional[str] = None
        self.conn = Connection(
            sock,
            handler=self._handle,
            on_close=lambda: forwarder._session_closed(self),
            key=forwarder.key,
            name="fwd-session",
        )

    def _handle(self, msg: Message) -> None:
        if msg.type is MessageType.CREATE_INSTANCE:
            self.forwarder._on_create_instance(self)
        elif msg.type is MessageType.SUBMIT:
            self.forwarder._on_submit(self, msg)
        elif msg.type is MessageType.DESTROY_INSTANCE:
            self.forwarder._session_closed(self)
        else:
            self.conn.send(
                Message(MessageType.ERROR,
                        payload={"error": f"unexpected {msg.type.value}"})
            )
