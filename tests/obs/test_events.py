"""The flight ring as the lifecycle log: JSONL follow, tolerant reads, replay."""

import json

import pytest

from repro.obs import FlightRecorder, read_events_jsonl, replay_summary
from repro.obs import flight as fl


def _event(kind, subject, t_mono, **attrs):
    return {"kind": kind, "subject": subject, "t_mono": t_mono,
            "t_wall": 1000.0 + t_mono, "attrs": attrs}


class TestEmission:
    def test_emit_records_both_clocks_and_attrs(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher")
        recorder.follow(path)
        recorder.record(fl.SUBMIT_REJECT, "c-1", bundle=3, reason="journal")
        recorder.close()
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert row["kind"] == "submit.reject"
        assert row["subject"] == "c-1"
        assert row["attrs"] == {"bundle": 3, "reason": "journal"}
        # The monotonic stamp is the ring's; the wall stamp is it plus
        # one offset, as in a dump.
        assert row["t_mono"] == recorder.snapshot()[0][0]
        assert row["t_wall"] > row["t_mono"] > 0

    def test_ring_is_bounded(self, tmp_path):
        # The follow keeps the ring's bound; the file keeps everything.
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher", capacity=10)
        recorder.follow(path)
        for i in range(25):
            recorder.record(fl.TASK_SETTLE, f"t-{i}", outcome="ok")
        recorder.close()
        assert len(recorder) == 10 and recorder.capacity == 10
        assert recorder.snapshot()[0][2] == "t-15"
        assert [e["subject"] for e in read_events_jsonl(path)] == [
            f"t-{i}" for i in range(25)]


class TestJsonlStreaming:
    def test_streams_each_event_as_one_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher")
        recorder.record(fl.RECOVER, "dispatcher", tasks=2)  # predates the follow
        recorder.follow(path)
        recorder.record(fl.EXECUTOR_REGISTER, "e-1", pipeline=4)
        recorder.record(fl.QUEUE_ENQUEUE, "t-1")
        recorder.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in rows] == [
            "dispatcher.recover", "executor.register", "queue.enq"]
        assert rows[1]["attrs"] == {"pipeline": 4}
        assert rows[2]["attrs"] == {}

    def test_read_back_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher")
        recorder.follow(path)
        for i in range(3):
            recorder.record(fl.QUEUE_CLAIM, f"t-{i}", mode="adopted")
        recorder.close()
        events = read_events_jsonl(path)
        assert [(e["t_mono"], e["kind"], e["subject"], e["attrs"])
                for e in events] == recorder.snapshot()

    def test_read_tolerates_blank_and_truncated_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher")
        recorder.follow(path)
        recorder.record(fl.QUEUE_ENQUEUE, "t-0")
        recorder.record(fl.TASK_SETTLE, "t-0", outcome="ok")
        recorder.close()
        # A crashed writer leaves a half record; a human leaves noise.
        with open(path, "a") as fh:
            fh.write("\n")
            fh.write("[1, 2]\n")
            fh.write('{"kind": "queue.e')
        events = read_events_jsonl(path)
        assert [e["kind"] for e in events] == ["queue.enq", "task.settle"]

    def test_close_detaches_the_file_and_keeps_the_ring(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder("dispatcher")
        recorder.follow(path)
        recorder.record(fl.QUEUE_ENQUEUE, "t-0")
        recorder.close()
        recorder.record(fl.QUEUE_ENQUEUE, "t-1")  # a straggler thread
        assert [e["subject"] for e in read_events_jsonl(path)] == ["t-0"]
        assert [e[2] for e in recorder.snapshot()] == ["t-0", "t-1"]


class TestReplaySummary:
    def test_summary_reconstructs_the_timeline(self):
        events = [_event(fl.EXECUTOR_REGISTER, "e-1", 0.0),
                  _event(fl.EXECUTOR_REGISTER, "e-2", 0.1)]
        events += [_event(fl.QUEUE_ENQUEUE, f"t-{i}", 1.0 + i) for i in range(4)]
        events += [_event(fl.QUEUE_REQUEUE, "t-2", 5.0),
                   _event(fl.EXECUTOR_DROP, "e-2", 5.1, reason="connection-closed")]
        events += [_event(fl.TASK_SETTLE, f"t-{i}", 6.0 + i,
                          outcome="ok" if i != 3 else "fail") for i in range(4)]
        # Ordering is by t_mono, not by position in the file.
        summary = replay_summary(reversed(events))
        assert summary["submitted"] == 4
        assert summary["settled"] == 4
        assert summary["outcomes"] == {"fail": 1, "ok": 3}
        assert summary["retries"] == 1
        assert summary["executors_registered"] == 2
        assert summary["executors_dropped"] == 1
        assert summary["duration_s"] == 9.0
        assert (summary["wall_start"], summary["wall_end"]) == (1000.0, 1009.0)
        assert summary["throughput_tasks_per_s"] == pytest.approx(4 / 9.0)
        assert summary["kinds"]["queue.enq"] == 4

    def test_empty_stream(self):
        summary = replay_summary([])
        assert summary["events"] == 0
        assert summary["throughput_tasks_per_s"] is None
        assert summary["wall_start"] is None
