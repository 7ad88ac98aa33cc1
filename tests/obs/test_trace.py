"""Unit tests for span chains read from the event ring."""

import pytest

from repro.obs import SPAN_ORDER, FlightRecorder, SpanCollector
from repro.obs import flight as fl


def record(ring, task_id, name, start, attempt=0, **attrs):
    ring.record_many([(task_id, name, start, None, attempt, tuple(attrs.items()))])


def record_full_attempt(ring, task_id, attempt=1, t0=0.0):
    """Record one complete protocol attempt starting at *t0*."""
    record(ring, task_id, "enqueue", t0 + 0.01, attempt=attempt)
    record(ring, task_id, "notify", t0 + 0.02, attempt=attempt)
    record(ring, task_id, "pull", t0 + 0.03, attempt=attempt)
    record(ring, task_id, "exec", t0 + 0.04, attempt=attempt)
    record(ring, task_id, "result", t0 + 0.06, attempt=attempt, outcome="ok")
    record(ring, task_id, "ack", t0 + 0.07, attempt=attempt)


class TestSpanCollector:
    def test_begin_is_idempotent(self):
        # bench/layers.py still opens a bundle before recording it; a
        # chain opens at its first event, so opening changes nothing.
        c = SpanCollector()
        c.begin("t1")
        c.begin_many(["t1", "t2"])
        c.begin("t1")
        assert c.recorded == 0 and c.task_ids() == []
        c.record("t1", "submit", 0.0, client="c1")
        plain = FlightRecorder("dispatcher")
        record(plain, "t1", "submit", 0.0, client="c1")
        assert c.chain("t1") == plain.chain("t1")

    def test_unknown_task_records_nothing(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        assert c.chain("ghost") == []
        assert c.chain_errors("ghost") == ["ghost: no trace recorded"]
        assert c.task_ids() == ["t1"]
        assert c.recorded == 1

    def test_unknown_span_name_rejected(self):
        c = FlightRecorder("dispatcher")
        with pytest.raises(ValueError):
            record(c, "t1", "teleport", 1.0)
        assert c.recorded == 0

    def test_chain_parents_are_linear(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        record_full_attempt(c, "t1")
        chain = c.chain("t1")
        assert [s.name for s in chain] == list(SPAN_ORDER)
        assert chain[0].parent_id is None
        for prev, cur in zip(chain, chain[1:]):
            assert cur.parent_id == prev.span_id

    def test_cross_clock_span_clamped_to_predecessor(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 5.0)
        # An executor-measured window anchored before the predecessor
        # must be clamped, not allowed to rewind the chain.
        record(c, "t1", "enqueue", 4.0)
        chain = c.chain("t1")
        assert len(chain) == 2
        assert chain[-1].start == 5.0
        assert chain[-1].end == 5.0

    def test_exec_span_ends_where_its_result_begins(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        record_full_attempt(c, "t1")
        spans = {s.name: s for s in c.chain("t1")}
        assert (spans["exec"].start, spans["exec"].end) == (0.04, 0.06)
        assert spans["pull"].duration == 0.0
        # A chain that ends at its exec event: an instant.
        record(c, "t2", "exec", 1.0)
        (exec_span,) = c.chain("t2")
        assert exec_span.end == exec_span.start == 1.0

    def test_complete_single_attempt_chain(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        record_full_attempt(c, "t1")
        assert c.chain_complete("t1")
        assert c.chain_errors("t1") == []

    def test_retry_settles_on_second_attempt(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        # First attempt dies after pull (executor lost): no result.
        record(c, "t1", "enqueue", 0.01, attempt=1)
        record(c, "t1", "notify", 0.02, attempt=1)
        record(c, "t1", "pull", 0.03, attempt=1)
        record_full_attempt(c, "t1", attempt=2, t0=1.0)
        assert c.chain_complete("t1")

    def test_missing_exec_is_reported(self):
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        record(c, "t1", "enqueue", 0.01, attempt=1)
        record(c, "t1", "notify", 0.02, attempt=1)
        record(c, "t1", "pull", 0.03, attempt=1)
        record(c, "t1", "result", 0.06, attempt=1)
        record(c, "t1", "ack", 0.07, attempt=1)
        errors = c.chain_errors("t1")
        assert errors and "exec" in errors[0]
        assert not c.chain_complete("t1")

    def test_no_trace_is_an_error(self):
        c = FlightRecorder("dispatcher")
        assert c.chain_errors("never-seen") == ["never-seen: no trace recorded"]

    def test_undelivered_requeue_same_attempt_is_legal(self):
        # A WORK send that fails inside the dispatcher re-enqueues the
        # task without charging the attempt, so enqueue/notify repeat
        # under the same attempt number before the chain settles.
        c = FlightRecorder("dispatcher")
        record(c, "t1", "submit", 0.0)
        record(c, "t1", "enqueue", 0.01, attempt=1)
        record(c, "t1", "notify", 0.02, attempt=1)
        record(c, "t1", "enqueue", 0.03, attempt=1, reason="undelivered")
        record_full_attempt(c, "t1", attempt=1, t0=0.04)
        assert c.chain_complete("t1"), c.chain_errors("t1")

    def test_capacity_evicts_oldest_trace(self):
        # Retention counts events: the oldest chain loses its head
        # first, and the check names the spans it lost.
        c = FlightRecorder("dispatcher", capacity=10)
        for task_id in ("t1", "t2"):
            record(c, task_id, "submit", 0.0)
            record_full_attempt(c, task_id)
        assert (len(c), c.recorded, c.evicted) == (10, 14, 4)
        assert [s.name for s in c.chain("t1")] == ["exec", "result", "ack"]
        errors = c.chain_errors("t1")
        assert "missing spans ['submit', 'enqueue', 'notify', 'pull']" in errors[0]
        assert c.chain_complete("t2")
        record(c, "t3", "submit", 0.0)
        record_full_attempt(c, "t3")
        assert c.task_ids() == ["t2", "t3"] and c.traces == 2
        assert c.chain("t1") == []


class TestFlightView:
    """Task transitions read as the flight kinds dumps have always used."""

    @pytest.mark.parametrize("name,attrs,expected", [
        ("enqueue", {"reason": "submit"}, (fl.QUEUE_ENQUEUE, None)),
        ("enqueue", {"reason": "stolen"}, (fl.QUEUE_ENQUEUE, None)),
        ("enqueue", {"reason": "recovered"}, (fl.QUEUE_ENQUEUE, None)),
        ("enqueue", {"reason": "dlq-retry"}, (fl.DLQ_RETRY, None)),
        ("enqueue", {"reason": "retry"}, (fl.QUEUE_REQUEUE, None)),
        ("enqueue", {"reason": "heartbeat-timeout"}, (fl.QUEUE_REQUEUE, None)),
        ("enqueue", {"reason": "undelivered"}, None),
        ("notify", {"executor": "e-1", "mode": "push"}, (fl.QUEUE_CLAIM, None)),
        ("notify", {"executor": "e-1", "mode": "adopted"},
         (fl.QUEUE_CLAIM, {"mode": "adopted"})),
        ("result", {"outcome": "ok"}, (fl.TASK_SETTLE, {"outcome": "ok"})),
        ("result", {"outcome": "fail", "reason": "lost"},
         (fl.TASK_SETTLE, {"outcome": "fail"})),
        ("result", {"outcome": "retry"}, None),
        ("submit", {"client": "c"}, None),
        ("pull", {}, None),
        ("exec", {"seconds": 0.5}, None),
        ("ack", {}, None),
    ])
    def test_mapping(self, name, attrs, expected):
        ring = FlightRecorder("dispatcher")
        record(ring, "t1", name, 1.0, attempt=1, **attrs)
        events = [(kind, subject, event_attrs)
                  for _, kind, subject, event_attrs in ring.snapshot()]
        assert events == ([] if expected is None
                          else [(expected[0], "t1", expected[1])])

    def test_dump_holds_the_newest_mapped_events_on_the_monotonic_clock(self, tmp_path):
        ring = FlightRecorder("dispatcher", capacity=4 * fl.DEFAULT_CAPACITY)
        for i in range(fl.DEFAULT_CAPACITY):
            record(ring, f"t-{i}", "submit", ring.now())
            record(ring, f"t-{i}", "enqueue", ring.now(), attempt=1, reason="submit")
        ring.record(fl.FRAME_RX, "SUBMIT")
        events = fl.read_flight_dump(ring.dump(str(tmp_path / "f.json")))["events"]
        assert len(events) == fl.DEFAULT_CAPACITY
        assert events[-1]["kind"] == fl.FRAME_RX
        assert {e["kind"] for e in events[:-1]} == {fl.QUEUE_ENQUEUE}
        assert events[0]["subject"] == "t-1"
        stamps = [e["t"] for e in events]
        assert stamps == sorted(stamps) and stamps[0] >= ring.t0
