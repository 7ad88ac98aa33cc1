"""Derived event types: timeouts and composite conditions."""

from __future__ import annotations

from typing import Any

from repro.sim.core import Environment, Event, NORMAL

__all__ = ["Timeout", "Condition", "AllOf", "AnyOf"]


class Timeout(Event):
    """An event that succeeds a fixed *delay* after its creation.

    The workhorse of every simulated activity: task execution, network
    latency, batch-scheduler poll loops and JVM pauses are all modelled
    as timeouts.
    """

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay, priority=NORMAL)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Base class for events composed from other events.

    Subclasses define :meth:`_is_satisfied`.  The condition succeeds with
    a dict mapping each *triggered-so-far* constituent event to its
    value, and fails as soon as any constituent fails.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: Environment, events: list[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise RuntimeError("conditions may not mix environments")
        self._pending = sum(1 for event in self._events if not event.processed)

        if self._check_now():
            return
        for event in self._events:
            if event.processed:
                continue
            event.callbacks.append(self._on_event)

    def _check_now(self) -> bool:
        """Resolve immediately if already-processed constituents suffice."""
        for event in self._events:
            if event.processed and not event._ok:
                event.defused = True
                self.fail(event._value)
                return True
        if self._is_satisfied():
            self.succeed(self._collect())
            return True
        return False

    def _collect(self) -> dict[Event, Any]:
        return {event: event._value for event in self._events if event.processed and event._ok}

    def _on_event(self, event: Event) -> None:
        self._pending -= 1
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._is_satisfied():
            self.succeed(self._collect())

    def _is_satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Succeeds once every constituent event has succeeded."""

    __slots__ = ()

    def _is_satisfied(self) -> bool:
        return all(event.processed and event._ok for event in self._events)


class AnyOf(Condition):
    """Succeeds as soon as any constituent event has succeeded.

    An empty ``AnyOf`` succeeds immediately (vacuous truth matches
    SimPy's behaviour and keeps fan-in loops simple).
    """

    __slots__ = ()

    def _is_satisfied(self) -> bool:
        if not self._events:
            return True
        return any(event.processed and event._ok for event in self._events)
