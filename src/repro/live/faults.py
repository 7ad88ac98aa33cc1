"""Deterministic fault injection for the live plane.

The pilot-system literature treats agent failure and re-dispatch as
*the* reliability problem of the architecture, but real sockets fail
non-deterministically — useless for regression tests.  This module
makes failure a first-class, seeded input:

* :class:`FaultPlan` decides, per connection and per outbound frame,
  whether to drop, delay, duplicate or corrupt the frame, or to kill
  the socket mid-message.  Decisions draw from
  :class:`repro.sim.rng.RngStreams`, one named stream per connection,
  so the same seed always produces the same fault schedule for the
  same traffic.
* :class:`FaultyConnection` is a drop-in
  :class:`~repro.live.protocol.Connection` that consults a plan on
  every send.  The dispatcher (and optionally executors) build their
  sessions through it when a plan is installed.

Faults apply only to connections whose ``fault_role`` is in the plan's
``roles`` (default: executor links only), so a chaos run can batter
the dispatcher↔executor path while the client control channel stays
clean.
"""

from __future__ import annotations

import itertools
import threading
import time
from enum import Enum
from typing import Optional

from repro.errors import ProtocolError
from repro.live.protocol import Connection
from repro.net.message import WIRE_CODES, MessageType
from repro.net.wire import HEADER_BYTES
from repro.sim.rng import RngStreams

__all__ = ["FaultAction", "FaultPlan", "FaultyConnection"]


class FaultAction(Enum):
    """What happens to one outbound frame."""

    NONE = "none"
    DROP = "drop"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"
    DELAY = "delay"
    KILL = "kill"


class FaultPlan:
    """A seeded schedule of transport faults.

    Parameters
    ----------
    seed:
        Root seed for the per-connection decision streams.
    drop_rate, duplicate_rate, corrupt_rate, delay_rate:
        Per-frame probabilities; their sum must not exceed 1.
    delay_range:
        ``(lo, hi)`` seconds for injected delays.
    kill_at:
        ``{connection_name: frame_index}``: the named connection's
        socket is killed mid-message at that outbound frame.
    crash_points:
        ``{point_name: hit_index}``: the *dispatcher process itself*
        dies (simulated ``kill -9``) the ``hit_index``-th time it
        passes the named crash point.  Points wired into the
        dispatcher: ``after-dispatch`` (a WORK/ack frame just left)
        and ``before-result`` (a RESULT frame arrived but was not yet
        processed).  Used with a journal to regression-test restart
        recovery at exact protocol positions.
    roles:
        Connection roles the plan applies to (``None`` = every
        connection).  Sessions are tagged by the dispatcher once their
        first message reveals whether they are a client or an executor.
    drop_types:
        Message-type names (``{"NOTIFY"}``) the random ``drop_rate``
        draw is restricted to; frames of other types pass untouched
        (no draw consumed, keeping per-type schedules stable).  Lets a
        chaos run starve one protocol edge — e.g. drop every WORK frame
        so only the replay timer recovers pushed tasks — without also
        severing registration or heartbeats.  Names are :class:`MessageType`
        member names, any case; matching reads the type code in the
        encoded frame's header, because cached broadcast frames never
        exist as :class:`Message` objects on the send path.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_range: tuple[float, float] = (0.005, 0.02),
        kill_at: Optional[dict[str, int]] = None,
        crash_points: Optional[dict[str, int]] = None,
        roles: Optional[tuple[str, ...]] = ("executor",),
        drop_types: Optional[set[str]] = None,
    ) -> None:
        rates = (drop_rate, duplicate_rate, corrupt_rate, delay_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        if delay_range[0] < 0 or delay_range[1] < delay_range[0]:
            raise ValueError("delay_range must be 0 <= lo <= hi")
        self.seed = int(seed)
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.corrupt_rate = corrupt_rate
        self.delay_rate = delay_rate
        self.delay_range = delay_range
        self.kill_at = dict(kill_at or {})
        self.crash_points = dict(crash_points or {})
        self._crash_hits: dict[str, int] = {}
        self.roles = frozenset(roles) if roles is not None else None
        self.drop_types = frozenset(drop_types) if drop_types else None
        try:
            self._drop_codes = frozenset(
                WIRE_CODES[MessageType[t.upper()]] for t in self.drop_types or ())
        except KeyError as exc:
            raise ValueError(f"drop_types: unknown message type {exc.args[0]!r}") from None
        self._rng = RngStreams(self.seed)
        self._lock = threading.Lock()
        self.counters = {
            "frames_seen": 0,
            "frames_dropped": 0,
            "frames_duplicated": 0,
            "frames_corrupted": 0,
            "frames_delayed": 0,
            "sockets_killed": 0,
            "crashes_fired": 0,
        }

    # -- decisions ----------------------------------------------------------
    def applies_to(self, conn: "Connection") -> bool:
        """Whether *conn* (by its ``fault_role`` tag) is in scope."""
        if self.roles is None:
            return True
        return getattr(conn, "fault_role", None) in self.roles

    def drop_matches(self, frame: bytes) -> bool:
        """Whether an encoded frame is eligible for type-scoped drops.

        With no ``drop_types`` every frame is eligible.  Otherwise the
        frame's header type code (byte 2) must be one of the named
        types; a miss means the frame is exempt from the drop draw
        entirely.
        """
        if self.drop_types is None:
            return True
        return frame[2] in self._drop_codes

    def decide(self, name: str, frame_index: int) -> tuple[FaultAction, float]:
        """The fate of frame *frame_index* on connection *name*.

        Returns ``(action, delay_seconds)``; the delay is only
        meaningful for :attr:`FaultAction.DELAY`.  One uniform draw per
        frame from the connection's own stream keeps connections
        independent of each other and of draw interleaving.
        """
        kill_frame = self.kill_at.get(name)
        if kill_frame is not None and frame_index >= kill_frame:
            return FaultAction.KILL, 0.0
        with self._lock:
            stream = self._rng.stream(f"faults:{name}")
            u = float(stream.random())
            edge = self.drop_rate
            if u < edge:
                return FaultAction.DROP, 0.0
            edge += self.duplicate_rate
            if u < edge:
                return FaultAction.DUPLICATE, 0.0
            edge += self.corrupt_rate
            if u < edge:
                return FaultAction.CORRUPT, 0.0
            edge += self.delay_rate
            if u < edge:
                lo, hi = self.delay_range
                delay = lo + float(stream.random()) * (hi - lo)
                return FaultAction.DELAY, delay
        return FaultAction.NONE, 0.0

    def should_crash(self, point: str) -> bool:
        """Whether the dispatcher should die at crash point *point*.

        Each named point counts its hits; the scheduled hit fires
        exactly once (a restarted dispatcher sharing the plan does not
        re-crash on its first pass).
        """
        scheduled = self.crash_points.get(point)
        if scheduled is None:
            return False
        with self._lock:
            hit = self._crash_hits.get(point, 0)
            self._crash_hits[point] = hit + 1
            if hit == scheduled:
                self.counters["crashes_fired"] += 1
                return True
        return False

    def corrupt_offset(self, name: str, frame_length: int) -> int:
        """Deterministic body byte offset to flip in a corrupted frame
        (past the fixed header, so the frame boundary survives)."""
        with self._lock:
            stream = self._rng.stream(f"faults:{name}:corrupt")
            span = max(1, frame_length - HEADER_BYTES)
            return HEADER_BYTES + int(stream.integers(0, span))

    def schedule(self, name: str, frames: int) -> list[FaultAction]:
        """The first *frames* decisions for connection *name*.

        Purely for reproducibility checks: a fresh plan with the same
        seed returns the identical schedule.
        """
        return [self.decide(name, i)[0] for i in range(frames)]

    # -- accounting ----------------------------------------------------------
    def record(self, action: FaultAction) -> None:
        key = {
            FaultAction.DROP: "frames_dropped",
            FaultAction.DUPLICATE: "frames_duplicated",
            FaultAction.CORRUPT: "frames_corrupted",
            FaultAction.DELAY: "frames_delayed",
            FaultAction.KILL: "sockets_killed",
        }.get(action)
        with self._lock:
            self.counters["frames_seen"] += 1
            if key is not None:
                self.counters[key] += 1

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of the fault counters."""
        with self._lock:
            return dict(self.counters)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} drop={self.drop_rate} "
            f"dup={self.duplicate_rate} corrupt={self.corrupt_rate} "
            f"delay={self.delay_rate}>"
        )


class FaultyConnection(Connection):
    """A :class:`Connection` whose sends pass through a fault plan.

    The receive path is untouched: injecting on the sender side alone
    exercises every receiver-side failure mode (loss, duplication,
    garbage, mid-frame EOF) without double-counting faults per link.
    """

    def __init__(
        self,
        sock,
        handler,
        on_close=None,
        key: Optional[bytes] = None,
        name: str = "conn",
        plan: Optional[FaultPlan] = None,
        fault_role: Optional[str] = None,
        loop=None,
    ) -> None:
        super().__init__(sock, handler, on_close=on_close, key=key, name=name, loop=loop)
        self.plan = plan
        self.fault_role = fault_role
        self._frame_seq = itertools.count()

    def adopt_identity(self, name: str) -> None:
        """Re-key the fault stream to a stable actor identity.

        Sessions are born with accept-order names (``session-N``), so a
        plan keyed on those draws a different schedule whenever peers
        connect in a different order.  Once the first message reveals
        who the peer is, the dispatcher renames the link
        (``executor:exec-1``) and the fault schedule becomes a pure
        function of ``(plan seed, actor identity)`` — identical seeds
        reproduce identical chaos timelines per actor regardless of
        connect order.  The frame counter restarts so ``kill_at``
        indices are relative to the stable name.
        """
        if name == self.name:
            return
        self.name = name
        self._frame_seq = itertools.count()

    def send_encoded(self, frame: bytes) -> None:
        """Apply the fault plan to one already-encoded frame.

        Overriding the encoded-bytes choke point (rather than
        :meth:`send`) means cached fast-path frames — the NOTIFY steal
        hint's bytes, pipelined WORK — face the same fault schedule as
        individually encoded ones.
        """
        plan = self.plan
        if plan is None or not plan.applies_to(self):
            super().send_encoded(frame)
            return
        if not plan.drop_matches(frame):
            # Type-scoped plan, frame out of scope: pass untouched
            # without consuming a draw, so the in-scope schedule stays
            # a pure function of (seed, name, in-scope frame index).
            self._transmit(frame)
            return
        action, delay = plan.decide(self.name, next(self._frame_seq))
        plan.record(action)
        if action is FaultAction.DROP:
            return  # the peer never sees it; liveness must recover
        if action is FaultAction.KILL:
            # Mid-message death: half a frame, then a dead socket —
            # the same close-then-raise contract as a real send error.
            self._transmit(frame[: max(5, len(frame) // 2)])
            self.close()
            raise ProtocolError(f"{self.name}: socket killed by fault plan")
        if action is FaultAction.DELAY:
            time.sleep(delay)
        elif action is FaultAction.CORRUPT:
            mutated = bytearray(frame)
            mutated[plan.corrupt_offset(self.name, len(frame))] ^= 0xFF
            frame = bytes(mutated)
        self._transmit(frame)
        if action is FaultAction.DUPLICATE:
            self._transmit(frame)
