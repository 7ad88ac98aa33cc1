"""HTTP status surface tests: unit (StatusServer on fakes) and the
tier-1 smoke test against a real LocalFalkon deployment.

The smoke test is the verify-suite guard for the telemetry plane: a
live run with ``--http-port`` semantics must answer /metrics in valid
exposition format, /status with strict JSON, and /tasks/<id> with the
span chain — while tasks flow.
"""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.live.local import LocalFalkon
from repro.net.wire import dumps
from repro.obs import StatusServer
from repro.types import TaskSpec

from tests.live.util import wait_until


def fetch(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def post(url: str, timeout: float = 5.0):
    request = urllib.request.Request(url, data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def strict_loads(body: bytes):
    """``json.loads`` that refuses the ``NaN`` / ``Infinity`` tokens the
    stdlib parser accepts by default (jq and browsers refuse them)."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(body, parse_constant=refuse)


class TestJsonSafe:
    """The codec every HTTP reply goes through writes NaN and ±Inf as
    null at any depth and leaves finite values as they are."""

    def test_nan_and_inf_become_null_recursively(self):
        value = {"a": math.nan, "b": [1.0, math.inf], "c": {"d": -math.inf}}
        assert strict_loads(dumps(value, sort_keys=True)) == {
            "a": None, "b": [1.0, None], "c": {"d": None}}

    def test_finite_values_pass_through(self):
        value = {"x": 1.5, "y": "s", "z": [0]}
        assert strict_loads(dumps(value, sort_keys=True)) == value


class TestStatusServerUnit:
    def make_server(self):
        return StatusServer(
            metrics_text=lambda: "falkon_test_total 1\n",
            status=lambda: {"queued": 2, "p50": math.nan},
            task=lambda task_id: ([{"name": "submit"}] if task_id == "t-1" else None),
        )

    def test_metrics_content_type_and_body(self):
        with self.make_server() as server:
            status, headers, body = fetch(server.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert body == b"falkon_test_total 1\n"

    def test_status_is_strict_json_with_nan_scrubbed(self):
        with self.make_server() as server:
            status, headers, body = fetch(server.url("/status"))
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = strict_loads(body)
        assert payload == {"queued": 2, "p50": None}

    def test_non_finite_floats_reach_every_reply_as_null(self):
        status = {"p50": math.nan, "queued": 2,
                  "nested": {"hi": math.inf, "rows": [1.5, -math.inf]}}
        chain = [{"name": "submit", "seconds": math.nan}]
        with StatusServer(lambda: "", lambda: status,
                          lambda task_id: chain if task_id == "t-1" else None) as server:
            _, _, status_body = fetch(server.url("/status"))
            _, _, task_body = fetch(server.url("/tasks/t-1"))
        assert strict_loads(status_body) == {
            "nested": {"hi": None, "rows": [1.5, None]}, "p50": None, "queued": 2}
        assert status_body.index(b'"nested"') < status_body.index(b'"p50"')  # sorted
        assert strict_loads(task_body) == {
            "task_id": "t-1", "spans": [{"name": "submit", "seconds": None}]}

    def test_task_chain_and_404_for_unknown(self):
        with self.make_server() as server:
            _, _, body = fetch(server.url("/tasks/t-1"))
            assert json.loads(body)["spans"] == [{"name": "submit"}]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/tasks/missing"))
            assert excinfo.value.code == 404
            assert "missing" in json.load(excinfo.value)["error"]

    def test_unknown_path_404_lists_endpoints(self):
        with self.make_server() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/wat"))
            assert excinfo.value.code == 404
            assert "/metrics" in json.load(excinfo.value)["endpoints"]

    def test_handler_bug_answers_500_instead_of_hanging(self):
        def broken_status():
            raise RuntimeError("boom")

        with StatusServer(lambda: "", broken_status, lambda _tid: None) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/status"))
            assert excinfo.value.code == 500
            assert "boom" in json.load(excinfo.value)["error"]

    def test_close_is_idempotent(self):
        server = self.make_server()
        server.close()
        server.close()

    def test_post_handler_bug_answers_500_json_like_get(self):
        """POST shares GET's 500 contract: a JSON error body, not a hang
        or a bare HTML error page."""
        def broken_retry(_task_id):
            raise RuntimeError("kaboom")

        with StatusServer(lambda: "", dict, lambda _tid: None,
                          dlq_retry=broken_retry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url("/dlq/t-1/retry"))
            assert excinfo.value.code == 500
            assert excinfo.value.headers["Content-Type"] == "application/json"
            assert "kaboom" in json.load(excinfo.value)["error"]

    def test_healthz_json_without_callable(self):
        with self.make_server() as server:
            status, headers, body = fetch(server.url("/healthz"))
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"status": "ok", "degraded": []}

    def test_healthz_json_when_callable_wired(self):
        health = {"status": "degraded", "degraded": ["queue stalled"],
                  "shard_id": "shard-0", "wire": "v4"}
        with StatusServer(lambda: "", dict, lambda _tid: None,
                          healthz=lambda: health) as server:
            status, headers, body = fetch(server.url("/healthz"))
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == health

    def test_fleet_endpoint_served_only_when_wired(self):
        fleet = {"alive": 2, "total": 2, "shards": {"shard-0": {"alive": True}}}
        with StatusServer(lambda: "", dict, lambda _tid: None,
                          fleet=lambda: fleet) as server:
            assert json.loads(fetch(server.url("/fleet"))[2]) == fleet
        with self.make_server() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/fleet"))
            assert excinfo.value.code == 404

    def test_debug_dump_post_passes_reason_through(self):
        seen = []

        def dump(reason):
            seen.append(reason)
            return f"/tmp/flight-{reason}.json"

        with StatusServer(lambda: "", dict, lambda _tid: None,
                          debug_dump=dump) as server:
            payload = json.loads(post(server.url("/debug/dump?reason=probe"))[2])
            assert payload == {"dumped": "/tmp/flight-probe.json",
                               "reason": "probe"}
            payload = json.loads(post(server.url("/debug/dump"))[2])
            assert payload["reason"] == "debug"
        assert seen == ["probe", "debug"]

    def test_debug_dump_404_when_not_wired(self):
        with self.make_server() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url("/debug/dump"))
            assert excinfo.value.code == 404


class TestLiveHttpSmoke:
    """Tier-1: the whole surface against a real deployment."""

    def test_endpoints_while_tasks_flow(self):
        with LocalFalkon(executors=2, http_port=0,
                         heartbeat_interval=0.1) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"http-{i:04d}") for i in range(60)]
            results = falkon.run(tasks, timeout=60)
            assert all(r.ok for r in results)
            base = falkon.http.url("").rstrip("/")

            # /metrics: exposition text covering every co-located
            # registry, counters under their _total names.
            _, headers, body = fetch(base + "/metrics")
            text = body.decode()
            assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
            assert "falkon_dispatcher_tasks_accepted_total 60" in text
            assert "falkon_executor_tasks_executed_total" in text
            assert 'falkon_dispatcher_dispatch_latency_seconds_bucket{le="+Inf"} 60' in text

            # /status: dispatcher stats + executor table.  Heartbeat
            # stats stream on a 0.1 s period; wait until both agents'
            # telemetry covers every task (a beat sent before the last
            # settle has an "executed" key, but not the final count).
            def telemetry_complete():
                payload = strict_loads(fetch(base + "/status")[2])
                table = payload["executors"]
                return len(table) == 2 and sum(
                    row.get("executed", 0) for row in table.values()
                ) == 60

            assert wait_until(telemetry_complete, timeout=10.0)
            payload = strict_loads(fetch(base + "/status")[2])
            assert payload["dispatcher"]["completed"] == 60
            executed = sum(row["executed"] for row in payload["executors"].values())
            assert executed == 60
            assert "utilization" in payload["cluster"]
            assert "efficiency_vs_task_length" in payload["cluster"]

            # /tasks/<id>: the full span chain of a settled task.
            chain = strict_loads(fetch(base + "/tasks/http-0000")[2])
            names = [span["name"] for span in chain["spans"]]
            assert names == ["submit", "enqueue", "notify", "pull",
                             "exec", "result", "ack"]

            # /healthz for probes: JSON with shard identity and the
            # watchdog-fed degraded list (empty on a healthy box).
            status, headers, body = fetch(base + "/healthz")
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["degraded"] == []
            assert health["wire"] == "v4"

    def test_repro_top_renders_against_a_live_surface(self, capsys):
        from repro.cli import main

        with LocalFalkon(executors=2, http_port=0,
                         heartbeat_interval=0.1) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"top-{i:04d}") for i in range(40)]
            falkon.run(tasks, timeout=60)
            base = falkon.http.url("").rstrip("/")
            assert main(["top", "--http", base, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "executors 2" in out
        assert "done 40/40" in out
        assert "EXECUTOR" in out  # the per-executor table rendered

    def test_span_eviction_is_surfaced_not_mistaken_for_a_lost_task(
        self, capsys, monkeypatch
    ):
        """The event ring is bounded; an evicted chain must read as
        evicted — in /metrics, /status and ``repro trace --http``."""
        from repro.cli import main
        from repro.live import dispatcher as dispatcher_module

        # Room for the newest five or so of ten seven-event chains.
        monkeypatch.setattr(dispatcher_module, "EVENT_CAPACITY", 40)
        with LocalFalkon(executors=1, http_port=0) as falkon:
            tasks = [TaskSpec.sleep(0, task_id=f"ev-{i:04d}") for i in range(10)]
            assert all(r.ok for r in falkon.run(tasks, timeout=60))
            base = falkon.http.url("").rstrip("/")
            ring = falkon.dispatcher.spans
            # The last CLIENT_NOTIFY's frame event may land just after
            # the client saw its result.
            assert wait_until(lambda: json.loads(fetch(base + "/status")[2])[
                "trace"]["spans_total"] == ring.recorded)
            store = json.loads(fetch(base + "/status")[2])["trace"]
            evicted = store["evicted_total"]
            assert store == {"capacity": 40, "traces": ring.traces,
                             "spans_total": 40 + evicted, "evicted_total": evicted}
            assert evicted >= 10 * 7 - 40 and 0 < ring.traces < 10
            text = fetch(base + "/metrics")[2].decode()
            assert f"falkon_dispatcher_trace_evicted_total {evicted}\n" in text
            assert f"falkon_dispatcher_trace_spans_total {40 + evicted}\n" in text
            assert falkon.dispatcher.metrics.snapshot()[
                "dispatcher_trace_evicted"] == evicted
            assert main(["trace", "ev-0000", "--http", base]) == 1
            err = capsys.readouterr().err
            assert "no trace recorded" in err
            assert f"keeps the newest 40 events and has evicted {evicted}" in err
            # A newest chain still resolves, and a ring that has
            # evicted nothing adds no note.
            assert main(["trace", "ev-0009", "--http", base]) == 0
        with LocalFalkon(executors=1, http_port=0) as falkon:
            base = falkon.http.url("").rstrip("/")
            assert main(["trace", "ev-0000", "--http", base]) == 1
            assert "evicted" not in capsys.readouterr().err

    def test_repro_top_unreachable_endpoint_exits_2(self, capsys):
        from repro.cli import main

        assert main(["top", "--http", "http://127.0.0.1:1",
                     "--iterations", "1"]) == 2
        assert "--http-port" in capsys.readouterr().err

    def test_http_off_by_default(self):
        with LocalFalkon(executors=1) as falkon:
            assert falkon.http is None
            assert falkon.dispatcher.http is None
