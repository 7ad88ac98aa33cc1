"""Differential test: the columnar span store against the
list-of-tuples collector it replaced.

The reference below is the old semantics in their plainest form — an
``OrderedDict`` of per-trace row lists — kept here as the oracle.  Both
collectors are driven through the same seeded random sequence of
``begin`` / ``begin_many`` / ``record`` / ``record_many`` calls and
must agree on every observable after every step.
"""

import random
from collections import OrderedDict

import pytest

from repro.obs import SPAN_ORDER, Span, SpanCollector

CAPACITY = 5
POOL = [f"task-{i:02d}" for i in range(14)]


class ReferenceCollector:
    def __init__(self, capacity):
        self.capacity = capacity
        self.traces = OrderedDict()  # task_id -> (seq, rows)
        self.opened = 0
        self.traces_evicted = 0
        self.spans_recorded = 0

    def begin(self, task_id):
        if task_id not in self.traces:
            self.traces[task_id] = (self.opened, [])
            self.opened += 1
            while len(self.traces) > self.capacity:
                self.traces.popitem(last=False)
                self.traces_evicted += 1

    def record(self, task_id, name, start, end, attempt, attrs):
        if name not in SPAN_ORDER:
            raise ValueError(name)
        if task_id not in self.traces:
            return None
        rows = self.traces[task_id][1]
        if rows and start < rows[-1][2]:
            floor = rows[-1][2]
            if end is not None:
                end = max(end, floor)
            start = floor
        rows.append((name, attempt, start, start if end is None else end,
                     tuple(sorted(attrs))))
        self.spans_recorded += 1

    def trace_id(self, task_id):
        return f"tr-{self.traces[task_id][0]:08x}-{task_id}"

    def chain(self, task_id):
        if task_id not in self.traces:
            return []
        return [
            Span(self.trace_id(task_id), i, i - 1 if i > 1 else None, name,
                 task_id, attempt, start, end, attrs)
            for i, (name, attempt, start, end, attrs)
            in enumerate(self.traces[task_id][1], 1)
        ]


def random_row(rng, clock):
    """One span row; the clock mostly advances and sometimes rewinds
    (an executor-measured window anchored before its predecessor)."""
    clock[0] += rng.choice((0.0, 0.001, 0.25))
    start = clock[0] - (rng.random() if rng.random() < 0.25 else 0.0)
    end = None if rng.random() < 0.5 else start + rng.choice((-0.5, 0.0, 0.125))
    attrs = rng.choice((
        (), (("reason", "retry"),),
        (("mode", "piggyback"), ("executor", "e-1")),
        (("seconds", rng.random()), ("executor", "e-2")),
    ))
    return (rng.choice(POOL), rng.choice(SPAN_ORDER), start, end,
            rng.randrange(0, 40), attrs)


def assert_same(new, ref):
    assert len(new) == len(ref.traces)
    assert new.task_ids() == list(ref.traces)
    assert new.traces_evicted == ref.traces_evicted
    assert new.spans_recorded == ref.spans_recorded
    for task_id in POOL:
        assert new.chain(task_id) == ref.chain(task_id)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_columnar_store_matches_reference(seed):
    rng = random.Random(seed)
    new, ref = SpanCollector(capacity=CAPACITY), ReferenceCollector(CAPACITY)
    clock = [0.0]
    longest = spilled_evictions = 0
    for _ in range(1500):
        op = rng.random()
        if op < 0.07:
            # Live ids (re-begin is a no-op), evicted ids and new ones.
            task_id = rng.choice(POOL)
            evicted_before = ref.traces_evicted
            oldest = next(iter(ref.traces), None)
            oldest_rows = len(ref.traces[oldest][1]) if oldest else 0
            ref.begin(task_id)
            if ref.traces_evicted > evicted_before and oldest_rows > 8:
                spilled_evictions += 1
            seq = ref.traces[task_id][0]
            assert new.begin(task_id) == f"tr-{seq:08x}-{task_id}"
        elif op < 0.10:
            ids = rng.sample(POOL, 3)
            for task_id in ids:
                ref.begin(task_id)
            new.begin_many(ids)
        elif op < 0.55:
            task_id, name, start, end, attempt, attrs = random_row(rng, clock)
            ref.record(task_id, name, start, end, attempt, attrs)
            new.record(task_id, name, start, end=end, attempt=attempt,
                       **dict(attrs))
        else:
            rows = [random_row(rng, clock) for _ in range(rng.randrange(1, 12))]
            for row in rows:
                ref.record(*row)
            new.record_many(rows)
        longest = max([longest] + [len(rows) for _, rows in ref.traces.values()])
        assert_same(new, ref)
    # The sequence exercised what it claims to: chains past the column
    # width, capacity wrap, and eviction of a slot that had spilled.
    assert longest >= 12
    assert ref.traces_evicted > 3 * CAPACITY
    assert spilled_evictions >= 1


def test_bad_name_mid_batch_keeps_earlier_rows_only():
    new = SpanCollector()
    new.begin("t1")
    with pytest.raises(ValueError):
        new.record_many([("t1", "submit", 0.0, None, 0, ()),
                         ("t1", "teleport", 1.0, None, 0, ()),
                         ("t1", "enqueue", 2.0, None, 1, ())])
    assert [s.name for s in new.chain("t1")] == ["submit"]
    assert new.spans_recorded == 1


def test_attempt_beyond_32_bits_saturates_instead_of_raising():
    new = SpanCollector()
    new.begin("t1")
    new.record("t1", "submit", 0.0, attempt=2**40)
    assert new.chain("t1")[0].attempt == 2**31 - 1


def test_empty_collector_allocates_no_columns():
    # bench/layers.py builds a fresh collector per timed bundle and
    # setup_s must not pay for 100k empty slots: columns grow with use.
    new = SpanCollector()
    assert len(new._start) == 0
    new.begin("t1")
    assert 0 < len(new._start) < 100_000
