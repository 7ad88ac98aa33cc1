"""Each layer's public functions timed in isolation, and the cost ledger.

Runs in the benchmark process after the SUT has stopped, so nothing
competes with it.  Every timing is the median over a few batches of
calls on frames, records and rows shaped like the ones the workload
itself produces (its own task specs, depth-32 WORK/RESULT lists,
500-task SUBMIT bundles).

The ledger multiplies these unit costs by how often the SUT process
pays each one per task and sets the sum against the SUT's measured CPU
per task; what is left over is the unattributed handler, lock and loop
work that no isolated function accounts for.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.live.ioloop import IOLoop
from repro.live.journal import (
    RESULT_DEFAULTS,
    SPEC_DEFAULTS,
    Journal,
    recover,
    strip_defaults,
)
from repro.live.protocol import (
    Connection,
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.net.message import Message, MessageType
from repro.net.wire import FrameReader, encode_message_v4
from repro.obs.flight import FlightRecorder
from repro.obs.registry import Histogram
from repro.obs.trace import SPAN_ORDER, SpanCollector
from repro.types import TaskResult, TaskSpec

from stats import median
from workloads import BUNDLE_SIZE, PIPELINE_DEPTH

#: Isolated journal run: records appended, and records per commit.
JOURNAL_RECORDS = 20_000
JOURNAL_BATCH = 500
#: Small-batch commits timed one by one for ``commit_ms_p50``.
JOURNAL_SMALL_BATCH = 10
JOURNAL_SMALL_COMMITS = 100
ECHO_FRAMES = 4_000

#: How many times per task the SUT process (dispatcher + executors) pays
#: each isolated unit cost at pipeline depth 32 and bundle 500.  The
#: client's share (task_to_dict, SUBMIT encode, CLIENT_NOTIFY decode) is
#: not in the SUT's bill and so not here.  Per-frame fixed cost is
#: inside the per-task figures of the 32- and 500-task frames.
LEDGER: tuple[tuple[str, float, str], ...] = (
    ("decode_submit", 1, "dispatcher parses the SUBMIT bundle"),
    ("task_from_dict", 2, "dispatcher admission + executor delivery"),
    ("encode_work", 1, "dispatcher frames the WORK/RESULT_ACK task list"),
    ("decode_work", 1, "executor parses it"),
    ("result_to_dict", 2, "executor report + dispatcher CLIENT_NOTIFY"),
    ("encode_result", 1, "executor frames the RESULT batch"),
    ("decode_result", 1, "dispatcher parses it"),
    ("result_from_dict", 1, "dispatcher settle"),
    ("encode_notify", 1, "dispatcher frames CLIENT_NOTIFY"),
    ("span", len(SPAN_ORDER), "submit enqueue notify pull exec result ack"),
    ("flight", 3 + 6 / PIPELINE_DEPTH,
     "queue.enq + queue.claim + task.settle, plus ~6 frame events per 32-task exchange"),
    ("observe", 4, "dispatch, exec, e2e histograms + the executor's exec histogram"),
)
#: Added on the durable workloads: submit, dispatch and result records.
LEDGER_DURABLE: tuple[tuple[str, float, str], ...] = (
    ("journal_record_cpu", 3, "submit + dispatch + result WAL records (append + flusher encode)"),
)


@dataclass
class Isolated:
    #: Published per-layer metrics, by their BENCHMARK.json names.
    metrics: dict[str, float]
    #: Unit costs in µs the ledger multiplies (a superset of the above:
    #: both directions of every codec, whether published or not).
    unit_us: dict[str, float]


def _us_per_call(fn: Callable[[], object], calls: int, batches: int = 5) -> float:
    """Median over *batches* of the wall µs one call of *fn* takes."""
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return median(samples)


def _decode(frame: bytes) -> None:
    for _ in FrameReader().feed(frame):
        pass


def _wire_and_protocol(specs: list[TaskSpec], scale: float) -> Isolated:
    spec_dicts = [task_to_dict(s) for s in specs[:BUNDLE_SIZE]]
    results = [TaskResult(s.task_id, executor_id="live-exec-00001")
               for s in specs[:PIPELINE_DEPTH]]
    trace = {"tid": "tr-00000001-" + specs[0].task_id, "sid": 3}
    submit = Message(MessageType.SUBMIT, sender="client-1",
                     payload={"tasks": spec_dicts})
    work = Message(MessageType.WORK, sender="dispatcher", payload={"tasks": [
        {"task": d, "attempt": 1, "trace": trace}
        for d in spec_dicts[:PIPELINE_DEPTH]]})
    result = Message(MessageType.RESULT, sender="live-exec-00001", payload={"results": [
        {"result": result_to_dict(r), "exec": {"seconds": 1.5e-6},
         "attempt": 1, "trace": trace} for r in results]})
    timeline = {"submitted": 1.25, "dispatched": 1.5, "completed": 1.75}
    notify = Message(MessageType.CLIENT_NOTIFY, sender="dispatcher", payload={"results": [
        {**result_to_dict(r), "timeline": timeline} for r in results]})
    small = Message(MessageType.GET_WORK, sender="live-exec-00001")
    submit_frame = encode_message_v4(submit)
    work_frame = encode_message_v4(work)
    result_frame = encode_message_v4(result)

    big = max(2, int(40 * scale))
    mid = max(5, int(600 * scale))
    n_submit = len(spec_dicts)
    n_depth = len(results)
    unit = {
        "encode_submit": _us_per_call(lambda: encode_message_v4(submit), big) / n_submit,
        "decode_submit": _us_per_call(lambda: _decode(submit_frame), big) / n_submit,
        "encode_work": _us_per_call(lambda: encode_message_v4(work), mid) / n_depth,
        "decode_work": _us_per_call(lambda: _decode(work_frame), mid) / n_depth,
        "encode_result": _us_per_call(lambda: encode_message_v4(result), mid) / n_depth,
        "decode_result": _us_per_call(lambda: _decode(result_frame), mid) / n_depth,
        "encode_notify": _us_per_call(lambda: encode_message_v4(notify), mid) / n_depth,
        "encode_small": _us_per_call(lambda: encode_message_v4(small), mid * 10),
        "task_to_dict": _us_per_call(
            lambda: [task_to_dict(s) for s in specs[:BUNDLE_SIZE]], big) / n_submit,
        "task_from_dict": _us_per_call(
            lambda: [task_from_dict(d) for d in spec_dicts], big) / n_submit,
        "result_to_dict": _us_per_call(
            lambda: [result_to_dict(r) for r in results], mid) / n_depth,
        "result_from_dict": _us_per_call(
            lambda: [result_from_dict(d) for d in notify.payload["results"]], mid) / n_depth,
    }
    metrics = {
        "net.wire.encode_submit500_us_per_task": unit["encode_submit"],
        "net.wire.decode_submit500_us_per_task": unit["decode_submit"],
        "net.wire.encode_work32_us_per_task": unit["encode_work"],
        "net.wire.decode_result32_us_per_task": unit["decode_result"],
        "net.wire.encode_small_us": unit["encode_small"],
        "net.wire.submit_bytes_per_task": len(submit_frame) / n_submit,
        "live.protocol.task_codec_us_per_task":
            unit["task_to_dict"] + unit["task_from_dict"],
        "live.protocol.result_codec_us_per_task":
            unit["result_to_dict"] + unit["result_from_dict"],
    }
    return Isolated(metrics, unit)


def _echo_frames_per_s(scale: float) -> float:
    """Frames per second one IOLoop echoes between two Connections.

    One end sends every frame up front; the other end's handler sends
    each straight back; the clock stops when the last echo is home.
    Both connections live on the same loop thread, as the dispatcher's
    sessions do.
    """
    frames = max(100, int(ECHO_FRAMES * scale))
    loop = IOLoop(name="bench-echo").start()
    server = socket.create_server(("127.0.0.1", 0))
    near = socket.create_connection(server.getsockname())
    far, _ = server.accept()
    server.close()
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    home = threading.Event()
    seen = [0]

    def on_echo(_msg: Message) -> None:
        seen[0] += 1
        if seen[0] == frames:
            home.set()

    echo = Connection(far, handler=lambda msg: echo.send(msg), loop=loop, name="echo")
    source = Connection(near, handler=on_echo, loop=loop, name="source")
    echo.wire_v4 = source.wire_v4 = True
    echo.start()
    source.start()
    try:
        message = Message(MessageType.GET_WORK, sender="live-exec-00001")
        started = time.perf_counter()
        for _ in range(frames):
            source.send(message)
        if not home.wait(60.0):
            raise RuntimeError(f"ioloop echo stalled at {seen[0]}/{frames} frames")
        return frames / (time.perf_counter() - started)
    finally:
        source.close()
        echo.close()
        loop.stop()


def _journal_rows(specs: list[TaskSpec], count: int) -> list[dict]:
    """*count* WAL records shaped like the dispatcher's, three per task."""
    rows: list[dict] = []
    index = 0
    while len(rows) < count:
        task_id = f"iso-{index:07d}"
        index += 1
        spec = task_to_dict(specs[index % len(specs)])
        del spec["task_id"]
        done = result_to_dict(TaskResult(task_id, executor_id="live-exec-00001"))
        del done["task_id"]
        rows.append({"k": "submit", "id": task_id, "client": "client-1",
                     "spec": strip_defaults(spec, SPEC_DEFAULTS)})
        rows.append({"k": "dispatch", "id": task_id, "attempt": 1,
                     "executor": "live-exec-00001"})
        rows.append({"k": "result", "id": task_id, "outcome": "ok",
                     "result": strip_defaults(done, RESULT_DEFAULTS)})
    return rows[:count]


def _journal(specs: list[TaskSpec], directory: str, scale: float) -> Isolated:
    """Write path then read path of one journal directory.

    Append + group commit in dispatcher-sized batches, single small
    commits (the latency a lone SUBMIT_ACK waits for), ``recover()`` of
    the un-compacted tail (the restart cost of exactly what was just
    written), then ``compact()``.
    """
    count = max(JOURNAL_BATCH, int(JOURNAL_RECORDS * scale))
    small_commits = max(10, int(JOURNAL_SMALL_COMMITS * scale))
    rows = _journal_rows(specs, count)
    small = _journal_rows(specs, JOURNAL_SMALL_BATCH * small_commits)
    journal = Journal(directory, compact_every=10 * count)
    try:
        cpu_started = time.process_time()
        started = time.perf_counter()
        for at in range(0, count, JOURNAL_BATCH):
            journal.append_many(rows[at:at + JOURNAL_BATCH])
            if not journal.commit():
                raise RuntimeError("isolated journal commit failed")
        append_commit_us = (time.perf_counter() - started) / count * 1e6
        cpu_us = (time.process_time() - cpu_started) / count * 1e6

        commit_ms = []
        for at in range(0, len(small), JOURNAL_SMALL_BATCH):
            started = time.perf_counter()
            journal.append_many(small[at:at + JOURNAL_SMALL_BATCH])
            if not journal.commit():
                raise RuntimeError("isolated journal commit failed")
            commit_ms.append((time.perf_counter() - started) * 1e3)

        written = count + len(small)
        started = time.perf_counter()
        state = recover(directory)
        recover_us = (time.perf_counter() - started) / written * 1e6
        if state.replayed != written or state.truncated:
            raise RuntimeError(
                f"isolated journal recovered {state.replayed}/{written} records")

        started = time.perf_counter()
        journal.compact()
        compact_s = (time.perf_counter() - started) * JOURNAL_RECORDS / written
    finally:
        journal.close()
    metrics = {
        "live.journal.append_commit_us_per_record": append_commit_us,
        "live.journal.commit_ms_p50": median(commit_ms),
        "live.journal.compact_s_per_20k": compact_s,
        "live.journal.recover_us_per_record": recover_us,
    }
    return Isolated(metrics, {"journal_record_cpu": cpu_us})


def _obs(specs: list[TaskSpec], scale: float) -> Isolated:
    ids = [s.task_id for s in specs[:BUNDLE_SIZE]]
    attrs = (("executor", "live-exec-00001"), ("mode", "piggyback"))
    rows = [(task_id, name, 1.0, None, 1, attrs)
            for task_id in ids for name in SPAN_ORDER]

    def record_bundle() -> None:
        collector = SpanCollector()
        collector.begin_many(ids)
        collector.record_many(rows)

    flight = FlightRecorder("bench")
    histogram = Histogram("bench_seconds")
    calls = max(1_000, int(50_000 * scale))
    unit = {
        "span": _us_per_call(record_bundle, max(2, int(20 * scale))) / len(rows),
        "flight": _us_per_call(lambda: flight.record("queue.claim", "t-0000001"), calls),
        "observe": _us_per_call(lambda: histogram.observe(0.0042), calls),
    }
    metrics = {
        "obs.trace.record_us_per_span": unit["span"],
        "obs.flight.record_us_per_event": unit["flight"],
        "obs.registry.observe_us": unit["observe"],
    }
    return Isolated(metrics, unit)


def measure(specs: list[TaskSpec], scratch_dir: str, scale: float = 1.0) -> Isolated:
    """Every isolated layer measurement, on the workload's own *specs*."""
    journal_dir = os.path.join(scratch_dir, "isolated-journal")
    parts = (
        _wire_and_protocol(specs, scale),
        _journal(specs, journal_dir, scale),
        _obs(specs, scale),
    )
    out = Isolated({"live.ioloop.echo_frames_per_s": _echo_frames_per_s(scale)}, {})
    for part in parts:
        out.metrics.update(part.metrics)
        out.unit_us.update(part.unit_us)
    return out


def ledger(unit_us: dict[str, float], durable: bool) -> float:
    """Attributed SUT µs per task: Σ unit cost × multiplicity."""
    lines = LEDGER + (LEDGER_DURABLE if durable else ())
    return sum(unit_us[key] * times for key, times, _why in lines)
