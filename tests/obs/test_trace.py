"""Unit tests for the span collector."""

import pytest

from repro.obs import SPAN_ORDER, SpanCollector


def record_full_attempt(collector, task_id, attempt=1, t0=0.0):
    """Record one complete protocol attempt starting at *t0*."""
    collector.record(task_id, "enqueue", t0 + 0.01, attempt=attempt)
    collector.record(task_id, "notify", t0 + 0.02, attempt=attempt)
    collector.record(task_id, "pull", t0 + 0.03, attempt=attempt)
    collector.record(task_id, "exec", t0 + 0.04, end=t0 + 0.05, attempt=attempt)
    collector.record(task_id, "result", t0 + 0.06, attempt=attempt, outcome="ok")
    collector.record(task_id, "ack", t0 + 0.07, attempt=attempt)


class TestSpanCollector:
    def test_begin_is_idempotent(self):
        c = SpanCollector()
        assert c.begin("t1") == c.begin("t1")

    def test_unknown_task_records_nothing(self):
        c = SpanCollector()
        c.record("ghost", "exec", 1.0)
        assert c.all_spans() == []
        assert c.spans_recorded == 0

    def test_unknown_span_name_rejected(self):
        c = SpanCollector()
        c.begin("t1")
        with pytest.raises(ValueError):
            c.record("t1", "teleport", 1.0)

    def test_chain_parents_are_linear(self):
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 0.0)
        record_full_attempt(c, "t1")
        chain = c.chain("t1")
        assert [s.name for s in chain] == list(SPAN_ORDER)
        assert chain[0].parent_id is None
        for prev, cur in zip(chain, chain[1:]):
            assert cur.parent_id == prev.span_id

    def test_cross_clock_span_clamped_to_predecessor(self):
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 5.0)
        # An executor-measured window anchored before the predecessor
        # must be clamped, not allowed to rewind the chain.
        c.record("t1", "enqueue", 4.0, end=4.5)
        chain = c.chain("t1")
        assert len(chain) == 2
        assert chain[-1].start == 5.0
        assert chain[-1].end == 5.0

    def test_complete_single_attempt_chain(self):
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 0.0)
        record_full_attempt(c, "t1")
        assert c.chain_complete("t1")
        assert c.chain_errors("t1") == []

    def test_retry_settles_on_second_attempt(self):
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 0.0)
        # First attempt dies after pull (executor lost): no result.
        c.record("t1", "enqueue", 0.01, attempt=1)
        c.record("t1", "notify", 0.02, attempt=1)
        c.record("t1", "pull", 0.03, attempt=1)
        record_full_attempt(c, "t1", attempt=2, t0=1.0)
        assert c.chain_complete("t1")

    def test_missing_exec_is_reported(self):
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 0.0)
        c.record("t1", "enqueue", 0.01, attempt=1)
        c.record("t1", "notify", 0.02, attempt=1)
        c.record("t1", "pull", 0.03, attempt=1)
        c.record("t1", "result", 0.06, attempt=1)
        c.record("t1", "ack", 0.07, attempt=1)
        errors = c.chain_errors("t1")
        assert errors and "exec" in errors[0]
        assert not c.chain_complete("t1")

    def test_no_trace_is_an_error(self):
        c = SpanCollector()
        assert c.chain_errors("never-seen") == ["never-seen: no trace recorded"]

    def test_undelivered_requeue_same_attempt_is_legal(self):
        # A WORK send that fails inside the dispatcher re-enqueues the
        # task without charging the attempt, so enqueue/notify repeat
        # under the same attempt number before the chain settles.
        c = SpanCollector()
        c.begin("t1")
        c.record("t1", "submit", 0.0)
        c.record("t1", "enqueue", 0.01, attempt=1)
        c.record("t1", "notify", 0.02, attempt=1)
        c.record("t1", "enqueue", 0.03, attempt=1, reason="undelivered")
        record_full_attempt(c, "t1", attempt=1, t0=0.04)
        assert c.chain_complete("t1"), c.chain_errors("t1")

    def test_capacity_evicts_oldest_trace(self):
        c = SpanCollector(capacity=2)
        for task_id in ("t1", "t2", "t3"):
            c.begin(task_id)
        assert len(c) == 2
        assert c.task_ids() == ["t2", "t3"]
        assert c.traces_evicted == 1

