"""CLI error-path tests for ``repro trace`` and ``repro events replay``.

The satellite acceptance: pointing the tools at a missing metrics
directory or an unknown task id exits non-zero with a message that says
what to do, never a traceback or a silent empty print.
"""

import json

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, SpanCollector, dump_observability


@pytest.fixture
def export_dir(tmp_path):
    """A real observability export holding one traced task."""
    collector = SpanCollector()
    collector.begin("task-ok")
    for name, t in (("submit", 0.0), ("enqueue", 0.001), ("notify", 0.002),
                    ("pull", 0.003), ("exec", 0.004), ("result", 0.005),
                    ("ack", 0.006)):
        collector.record("task-ok", name, t, attempt=1)
    out = tmp_path / "metrics"
    dump_observability(out, [MetricsRegistry(prefix="d")], collector)
    return out


class TestTraceErrors:
    def test_missing_metrics_dir_exits_2_with_guidance(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["trace", "t-1", "--metrics", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "--metrics-out" in err  # tells the user how to produce one

    def test_dir_without_spans_file_exits_2_and_names_the_dir(self, tmp_path, capsys):
        empty = tmp_path / "metrics"
        empty.mkdir()
        assert main(["trace", "t-1", "--metrics", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "spans.jsonl" in err
        assert str(empty) in err

    def test_unknown_task_id_exits_1_and_names_the_task(self, export_dir, capsys):
        assert main(["trace", "task-unknown", "--metrics", str(export_dir)]) == 1
        err = capsys.readouterr().err
        assert "task-unknown" in err
        assert "no trace recorded" in err

    def test_known_task_id_exits_0_and_prints_the_chain(self, export_dir, capsys):
        assert main(["trace", "task-ok", "--metrics", str(export_dir)]) == 0
        out = capsys.readouterr().out
        for name in ("submit", "exec", "ack"):
            assert name in out

    def test_http_mode_unreachable_endpoint_exits_2(self, capsys):
        # Port 1 on localhost: connection refused, immediately.
        assert main(["trace", "t-1", "--http", "http://127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "--http-port" in err


class TestEventsReplayErrors:
    def test_missing_log_exits_2_with_guidance(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["events", "replay", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "--events-out" in err

    def test_unparseable_log_exits_1(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\nalso not json\n")
        assert main(["events", "replay", str(garbage)]) == 1
        assert "no parseable events" in capsys.readouterr().err

    def test_valid_log_exits_0_with_summary(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        rows = [
            {"kind": "executor.register", "subject": "e-1",
             "t_mono": 1.0, "t_wall": 100.0, "attrs": {}},
            {"kind": "queue.enq", "subject": "t-1",
             "t_mono": 1.1, "t_wall": 100.1, "attrs": {}},
            {"kind": "task.settle", "subject": "t-1",
             "t_mono": 1.6, "t_wall": 100.6, "attrs": {"outcome": "ok"}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["events", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tasks submitted" in out
        assert "task.settle=1" in out
