"""Differential test: the columnar event ring against a plain list.

The reference below is the ring's semantics in their plainest form —
every event ever recorded, in one list — kept here as the oracle.  A
task's chain is its events among the newest *capacity* ones, stored
as given and clamped on read to the chain's previous event; an
``exec`` span ends where the chain's next event begins, and its
``seconds`` attr is that end minus the start it was recorded with
(replacing any ``seconds`` the row carried).  Both are driven
through the same seeded random sequence of task transitions
(``record_many``), other events (``record``) and the no-op ``begin_many``
kept for the benchmark, and must agree on every observable after every
step.  Per-frame appends (``record_frame``: one name, a shared or
per-task stamp and attrs) are driven too, as the reference's rows in
order: frames that straddle the wrap, frames longer than the ring, and
frames naming one task twice.
"""

import random

import pytest

from repro.obs import SPAN_ORDER, FlightRecorder, Span, SpanCollector

CAPACITY = 12
POOL = [f"task-{i:02d}" for i in range(6)]


class ReferenceRing:
    def __init__(self, capacity):
        self.capacity = capacity
        self.events = []  # (task_id or None, name, start, attempt, attrs)
        self.recorded = {}  # task id -> transitions ever recorded
        self.clamped = set()  # seqs a chain read has clamped

    def record_many(self, rows):
        for task_id, name, start, _, attempt, attrs in rows:
            if name not in SPAN_ORDER:
                raise ValueError(name)
            self.recorded[task_id] = self.recorded.get(task_id, 0) + 1
            self.events.append((task_id, name, start, attempt, tuple(attrs)))

    def record(self, kind, subject):
        self.events.append((None, kind, 0.0, 0, ()))

    @property
    def oldest(self):
        return max(0, len(self.events) - self.capacity)

    def task_ids(self):
        return {e[0] for e in self.events[self.oldest:] if e[0] is not None}

    def chain(self, task_id):
        mine = [(seq, event) for seq, event in enumerate(self.events)
                if seq >= self.oldest and event[0] == task_id]
        if not mine:
            return []
        trace_id = f"tr-{mine[0][0]:08x}-{task_id}"
        starts = []
        for seq, event in mine:
            if starts and event[2] < starts[-1]:
                self.clamped.add(seq)
                starts.append(starts[-1])
            else:
                starts.append(event[2])
        spans = []
        for k, (_, (_, name, stored, attempt, attrs)) in enumerate(mine):
            start = end = starts[k]
            if name == "exec" and k + 1 < len(mine):
                end = starts[k + 1]
                attrs = [(key, value) for key, value in attrs if key != "seconds"]
                attrs.append(("seconds", end - stored))
            spans.append(Span(trace_id, k + 1, k or None, name, task_id,
                              attempt, start, end, tuple(sorted(attrs))))
        return spans


def random_row(rng, clock):
    """One transition; the clock mostly advances and sometimes rewinds
    (an executor-measured window anchored before its predecessor)."""
    clock[0] += rng.choice((0.0, 0.001, 0.25))
    start = clock[0] - (rng.random() if rng.random() < 0.25 else 0.0)
    attrs = rng.choice((
        (), (("reason", "retry"),),
        (("mode", "piggyback"), ("executor", "e-1")),
        (("seconds", rng.random()), ("executor", "e-2")),
    ))
    return (rng.choice(POOL), rng.choice(SPAN_ORDER), start, None,
            rng.randrange(0, 40), attrs)


def random_frame(rng, clock):
    """One ``record_frame`` call and the rows it stands for."""
    size = rng.choice((1, 2, 5, CAPACITY - 1, CAPACITY + 1, 2 * CAPACITY + 5))
    task_ids = [rng.choice(POOL) for _ in range(size)]
    name = rng.choice(SPAN_ORDER)
    attempts = [rng.randrange(0, 40) for _ in task_ids]
    clock[0] += rng.choice((0.0, 0.001, 0.25))
    if rng.random() < 0.5:
        start = clock[0]
        starts = [start] * size
    else:
        start = starts = [clock[0] - rng.random() for _ in task_ids]
    shared = rng.choice(((), (("mode", "push"), ("executor", "e-1"))))
    if rng.random() < 0.5:
        attrs, per_row = shared, [shared] * size
    else:
        attrs = per_row = [rng.choice(((), (("outcome", "ok"),)))
                           for _ in task_ids]
    rows = [(task_id, name, begin, None, attempt, row_attrs)
            for task_id, begin, attempt, row_attrs
            in zip(task_ids, starts, attempts, per_row)]
    return (name, task_ids, start, attempts, attrs), rows


def assert_same(new, ref):
    # The head table holds no chain the ring no longer does.
    assert len(new._head) <= len(ref.task_ids())
    assert set(new.task_ids()) == ref.task_ids()
    assert new.traces == len(ref.task_ids())
    assert new.recorded == len(ref.events)
    assert new.evicted == ref.oldest
    assert len(new) == len(ref.events) - ref.oldest
    for task_id in POOL:
        assert new.chain(task_id) == ref.chain(task_id)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_columnar_store_matches_reference(seed):
    rng = random.Random(seed)
    new, ref = SpanCollector(capacity=CAPACITY), ReferenceRing(CAPACITY)
    clock = [0.0]
    cut = 0
    frames = wrapped = 0
    for _ in range(1500):
        op = rng.random()
        if op < 0.05:
            new.begin_many(rng.sample(POOL, 3))
        elif op < 0.20:
            # Other kinds take ring space; a task id as their subject
            # does not make them part of that task's chain.
            kind, subject = rng.choice((("frame.rx", "RESULT"),
                                        ("dlq.add", rng.choice(POOL))))
            ref.record(kind, subject)
            FlightRecorder.record(new, kind, subject)  # the shim's is span-shaped
        elif op < 0.40:
            call, rows = random_frame(rng, clock)
            first = new.recorded % CAPACITY
            ref.record_many(rows)
            new.record_frame(*call)
            frames += 1
            wrapped += first + len(rows) > CAPACITY
        elif op < 0.70:
            row = random_row(rng, clock)
            ref.record_many([row])
            new.record(row[0], row[1], row[2], attempt=row[4], **dict(row[5]))
        else:
            rows = [random_row(rng, clock) for _ in range(rng.randrange(1, 12))]
            ref.record_many(rows)
            new.record_many(rows)
        assert_same(new, ref)
        cut += sum(0 < len(ref.chain(task_id)) < ref.recorded.get(task_id, 0)
                   for task_id in POOL)
    # The sequence exercised what it claims to: capacity wrap, chains
    # cut at their head, and clamps.
    assert ref.oldest > 3 * CAPACITY
    assert cut > 100
    assert len(ref.clamped) > 10
    assert frames > 200 and wrapped > 50


def test_bad_name_mid_batch_keeps_earlier_rows_only():
    new = FlightRecorder("dispatcher")
    with pytest.raises(ValueError):
        new.record_many([("t1", "submit", 0.0, None, 0, ()),
                         ("t1", "teleport", 1.0, None, 0, ()),
                         ("t1", "enqueue", 2.0, None, 1, ())])
    assert [s.name for s in new.chain("t1")] == ["submit"]
    assert new.recorded == 1


def test_attempt_beyond_32_bits_saturates_instead_of_raising():
    new = FlightRecorder("dispatcher")
    new.record_many([("t1", "submit", 0.0, None, 2**40, ())])
    assert new.chain("t1")[0].attempt == 2**31 - 1
    new.record_frame("enqueue", ["t1", "t2"], 1.0, [2**40, -2**40], ())
    assert [s.attempt for s in new.chain("t1")] == [2**31 - 1, 2**31 - 1]
    assert new.chain("t2")[0].attempt == -(2**31 - 1)


def test_record_frame_refuses_an_unknown_name_and_writes_nothing():
    new = FlightRecorder("dispatcher")
    with pytest.raises(ValueError):
        new.record_frame("teleport", ["t1"], 0.0, [1], ())
    assert new.recorded == 0


def test_empty_collector_allocates_no_columns():
    # A LiveDispatcher that sees no tasks must not pay for its 720k-event
    # ring, and bench/layers.py builds a fresh collector per timed
    # bundle: columns grow with use.
    new = SpanCollector()
    assert len(new._t) == len(new._subject) == 0
    new.record_many([("t1", "submit", 0.0, None, 0, ())])
    assert 0 < len(new._t) < new.capacity


def test_concurrent_writers_lose_no_event():
    # The dispatcher's loop, monitor and journal threads share one
    # ring: with more writers than cores and a short switch interval,
    # every event still lands once and every chain stays whole.
    import sys
    import threading

    ring = FlightRecorder("dispatcher", capacity=100_000)
    tasks_per_writer, writers = 300, 6

    def write(w):
        for i in range(tasks_per_writer):
            task_id = f"w{w}-{i}"
            ring.record_many([(task_id, name, float(i), None, 1, ())
                              for name in SPAN_ORDER[:3]])
            ring.record("frame.rx", "RESULT")
            ring.record_many([(task_id, name, float(i), None, 1, ())
                              for name in SPAN_ORDER[3:]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = writers * tasks_per_writer
    assert ring.recorded == len(ring) == total * (len(SPAN_ORDER) + 1)
    assert ring.traces == total
    for w in range(writers):
        for i in range(0, tasks_per_writer, 37):
            assert [s.name for s in ring.chain(f"w{w}-{i}")] == list(SPAN_ORDER)
