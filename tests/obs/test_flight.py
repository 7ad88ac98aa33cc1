"""Flight recorder unit tests: ring semantics, dump format, loaders."""

import json
import os

import pytest

from repro.obs.flight import (
    FLIGHT_DUMP_VERSION,
    FRAME_RX,
    FRAME_TX,
    QUEUE_ENQUEUE,
    FlightRecorder,
    events_between,
    flight_dump_path,
    load_flight_dumps,
    read_flight_dump,
)


class TestRing:
    def test_ring_is_bounded_oldest_falls_off(self):
        recorder = FlightRecorder("dispatcher", capacity=3)
        for i in range(5):
            recorder.record(QUEUE_ENQUEUE, f"t-{i}")
        assert len(recorder) == 3
        assert [e[2] for e in recorder.snapshot()] == ["t-2", "t-3", "t-4"]

    def test_attrs_ride_along_and_hot_path_stores_none(self):
        recorder = FlightRecorder("dispatcher")
        recorder.record(FRAME_TX, "WORK", tasks=7)
        recorder.record(FRAME_RX, "RESULT")
        with_attrs, without = recorder.snapshot()
        assert with_attrs[3] == {"tasks": 7}
        assert without[3] is None  # no dict allocated on the hot path

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder("dispatcher", capacity=0)

    def test_clear_empties_the_ring(self):
        recorder = FlightRecorder("dispatcher")
        recorder.record(FRAME_RX, "SUBMIT")
        recorder.clear()
        assert len(recorder) == 0


class TestDump:
    def test_dump_read_roundtrip(self, tmp_path):
        recorder = FlightRecorder("dispatcher", shard_id="shard-0")
        recorder.record(QUEUE_ENQUEUE, "t-1")
        recorder.record(FRAME_TX, "WORK", tasks=1)
        path = str(tmp_path / "flight.json")
        assert recorder.dump(path, reason="manual",
                             extra={"queued": ["t-1"]}) == path
        payload = read_flight_dump(path)
        assert payload["version"] == FLIGHT_DUMP_VERSION
        assert payload["component"] == "dispatcher"
        assert payload["shard_id"] == "shard-0"
        assert payload["reason"] == "manual"
        assert payload["extra"] == {"queued": ["t-1"]}
        assert payload["path"] == path
        # Monotonic event stamps align to wall time via the offset.
        assert payload["wall_minus_mono"] == pytest.approx(
            payload["t_wall"] - payload["t_mono"])
        kinds = [e["kind"] for e in payload["events"]]
        assert kinds == [QUEUE_ENQUEUE, FRAME_TX]
        assert payload["events"][1]["tasks"] == 1

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "flight-old.json"
        path.write_text(json.dumps({"version": 99, "events": []}))
        with pytest.raises(ValueError, match="version"):
            read_flight_dump(str(path))

    def test_dump_to_dir_folds_shard_into_filename(self, tmp_path):
        a = FlightRecorder("dispatcher", shard_id="shard-0")
        b = FlightRecorder("dispatcher", shard_id="shard-1")
        path_a = a.dump_to_dir(str(tmp_path), reason="crash")
        path_b = b.dump_to_dir(str(tmp_path), reason="crash")
        assert path_a != path_b
        assert "shard-0" in os.path.basename(path_a)
        assert "shard-1" in os.path.basename(path_b)

    def test_flight_dump_path_sanitizes_component(self, tmp_path):
        path = flight_dump_path(str(tmp_path), "executor:bench/0", "manual")
        assert ":" not in os.path.basename(path)
        assert "/" not in os.path.basename(path)[1:]

    def test_load_dumps_from_directory_skips_junk(self, tmp_path):
        FlightRecorder("client").dump_to_dir(str(tmp_path))
        FlightRecorder("executor").dump_to_dir(str(tmp_path))
        (tmp_path / "flight-junk-x-0-0.json").write_text("{truncated")
        (tmp_path / "notes.txt").write_text("not a dump")
        dumps = load_flight_dumps(str(tmp_path))
        assert sorted(d["component"] for d in dumps) == ["client", "executor"]

    def test_load_single_file_raises_on_garbage(self, tmp_path):
        path = tmp_path / "flight-bad.json"
        path.write_text("{truncated")
        with pytest.raises(json.JSONDecodeError):
            load_flight_dumps(str(path))

    def test_events_between_filters_on_monotonic_stamp(self, tmp_path):
        recorder = FlightRecorder("dispatcher")
        recorder.record(FRAME_RX, "SUBMIT")
        path = recorder.dump(str(tmp_path / "f.json"))
        dump = read_flight_dump(path)
        t = dump["events"][0]["t"]
        assert list(events_between(dump, t - 1, t + 1)) == dump["events"]
        assert list(events_between(dump, t + 1)) == []
