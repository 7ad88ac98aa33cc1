"""Capacity-limited resources for the simulation kernel.

:class:`Resource` models a set of interchangeable servers (CPU slots,
GPFS I/O nodes, the dispatcher's WS-container thread pool).  Processes
``yield resource.request()`` to acquire a slot and call
``resource.release(req)`` (or use the request as a context manager) to
free it.  :class:`PriorityResource` orders its wait queue by a caller
priority.  :class:`Container` models a continuous quantity (bandwidth
tokens, heap bytes).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any

from repro.sim.core import Environment, Event

__all__ = ["Request", "Release", "Resource", "PriorityResource", "Container"]


class Request(Event):
    """Event that succeeds when the resource grants a slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            yield env.timeout(work)
        # slot released on exit
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.key = (priority, next(resource._seq))
        resource._queue_request(self)
        resource._trigger_requests()

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if not self.triggered:
            self.resource._cancel_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Release(Event):
    """Immediately-successful event returned by :meth:`Resource.release`."""

    __slots__ = ()

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self.succeed(None)


class Resource:
    """A resource with integer ``capacity`` and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = int(capacity)
        self._seq = count()
        self._waiting: list[tuple[tuple[int, int], Request]] = []
        self._users: set[Request] = set()

    # -- public API --------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Ask for a slot; the returned event succeeds when granted."""
        return Request(self, priority=priority)

    def release(self, request: Request) -> Release:
        """Return a granted slot to the pool."""
        try:
            self._users.remove(request)
        except KeyError:
            raise RuntimeError(f"{request!r} does not hold this resource") from None
        self._trigger_requests()
        return Release(self.env)

    # -- internals ----------------------------------------------------------
    def _queue_request(self, request: Request) -> None:
        heapq.heappush(self._waiting, (request.key, request))

    def _cancel_request(self, request: Request) -> None:
        # Lazy deletion: mark and skip at grant time.
        request.defused = True
        self._waiting = [(k, r) for (k, r) in self._waiting if r is not request]
        heapq.heapify(self._waiting)

    def _trigger_requests(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            _key, request = heapq.heappop(self._waiting)
            self._users.add(request)
            request.succeed(None)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} capacity={self.capacity} "
            f"in_use={self.in_use} queued={self.queue_length}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are served lowest-priority-first.

    ``request(priority=n)`` with smaller *n* wins; ties break FIFO.
    """


class ContainerGet(Event):
    """Pending withdrawal from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class ContainerPut(Event):
    """Pending deposit into a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class Container:
    """A continuous stock between 0 and *capacity*.

    ``get(amount)`` blocks until the level covers *amount*;
    ``put(amount)`` blocks until there is headroom.  Gets are served
    FIFO, which yields fair sharing of e.g. bandwidth tokens.
    """

    def __init__(
        self, env: Environment, capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._gets: list[ContainerGet] = []
        self._puts: list[ContainerPut] = []

    @property
    def level(self) -> float:
        """Current stock."""
        return self._level

    def get(self, amount: float) -> ContainerGet:
        """Withdraw *amount*; the event succeeds when satisfied."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = ContainerGet(self.env, amount)
        self._gets.append(event)
        self._dispatch()
        return event

    def put(self, amount: float) -> ContainerPut:
        """Deposit *amount*; the event succeeds when it fits."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError("amount exceeds container capacity")
        event = ContainerPut(self.env, amount)
        self._puts.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._gets and self._gets[0].amount <= self._level:
                event = self._gets.pop(0)
                self._level -= event.amount
                event.succeed(event.amount)
                progress = True
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                event = self._puts.pop(0)
                self._level += event.amount
                event.succeed(event.amount)
                progress = True

    def __repr__(self) -> str:
        return f"<Container level={self._level}/{self.capacity}>"
