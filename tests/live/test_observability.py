"""Observability plane over the live system: traces, metrics, futures API."""

import threading

import pytest

from repro.errors import ReconnectError
from repro.live import LocalFalkon, TaskFuture
from repro.obs import SPAN_ORDER, render_prometheus
from repro.types import Bundle, TaskResult, TaskSpec

from tests.live.util import wait_until


class TestLiveTracing:
    def test_every_settled_task_has_a_complete_chain(self):
        with LocalFalkon(executors=2) as falkon:
            tasks = [TaskSpec.sleep(0.0, task_id=f"obs-{i:03d}") for i in range(20)]
            results = falkon.run(tasks, timeout=30)
            assert all(r.ok for r in results)
            for task in tasks:
                assert falkon.dispatcher.spans.chain_complete(task.task_id), \
                    falkon.dispatcher.spans.chain_errors(task.task_id)

    def test_chain_follows_protocol_order(self):
        with LocalFalkon(executors=1) as falkon:
            falkon.run([TaskSpec.sleep(0.0, task_id="obs-order")], timeout=30)
            chain = falkon.trace("obs-order")
        assert [s.name for s in chain] == list(SPAN_ORDER)
        # One causal line: each span parents on its predecessor.
        for prev, cur in zip(chain, chain[1:]):
            assert cur.parent_id == prev.span_id
        starts = [s.start for s in chain]
        assert starts == sorted(starts)

    def test_exec_span_carries_executor_measurement(self):
        with LocalFalkon(executors=1) as falkon:
            falkon.run([TaskSpec.sleep(0.05, task_id="obs-exec")], timeout=30)
            chain = falkon.trace("obs-exec")
        exec_span = next(s for s in chain if s.name == "exec")
        assert exec_span.get("seconds") >= 0.05
        assert exec_span.duration == pytest.approx(exec_span.get("seconds"), abs=1e-6)

    def test_failed_task_settles_with_fail_outcome(self):
        with LocalFalkon(executors=1, max_retries=1) as falkon:
            results = falkon.run(
                [TaskSpec(task_id="obs-fail", command="false")], timeout=30
            )
            assert not results[0].ok
            chain = falkon.trace("obs-fail")
            assert falkon.dispatcher.spans.chain_complete("obs-fail"), \
                falkon.dispatcher.spans.chain_errors("obs-fail")
        result_spans = [s for s in chain if s.name == "result"]
        assert result_spans[0].get("outcome") == "retry"
        assert result_spans[-1].get("outcome") == "fail"
        # The retry re-entered the queue with the next attempt number.
        assert result_spans[-1].attempt == 2


class TestOneEventRing:
    def test_each_transition_is_recorded_once(self):
        """Spans and the flight view read one ring: seven task events
        per sleep-0 task, three of which the flight view shows."""
        from repro.obs import flight as fl

        tasks = [TaskSpec.sleep(0, task_id=f"ring-{i:03d}") for i in range(40)]
        with LocalFalkon(executors=2, pipeline_depth=1) as falkon:
            assert all(r.ok for r in falkon.run(tasks, timeout=60))
            ring = falkon.dispatcher.spans
            assert ring is falkon.dispatcher.flight
            assert wait_until(lambda: all(
                len(ring.chain(t.task_id)) == len(SPAN_ORDER) for t in tasks))
            by_task = {}
            for _, kind, subject, _ in ring.snapshot():
                by_task.setdefault(subject, []).append(kind)
        assert sum(len(ring.chain(t.task_id)) for t in tasks) == 7 * len(tasks)
        for task in tasks:
            assert by_task[task.task_id] == [
                fl.QUEUE_ENQUEUE, fl.QUEUE_CLAIM, fl.TASK_SETTLE], task.task_id


def test_doctor_reads_no_heartbeat_silence_into_a_run_without_heartbeats(tmp_path):
    from repro.obs.doctor import analyze

    with LocalFalkon(executors=2) as falkon:
        assert falkon.dispatcher.heartbeat_interval is None
        tasks = [TaskSpec.sleep(0, task_id=f"hb-{i:02d}") for i in range(50)]
        assert all(r.ok for r in falkon.run(tasks, timeout=60))
        path = falkon.dispatcher.dump_flight(str(tmp_path / "flight.json"))
    report = analyze(path)
    assert [g for g in report["gaps"] if g["kind"] == "heartbeat-silence"] == []


class TestLiveMetrics:
    def test_dispatcher_registry_tracks_the_run(self):
        with LocalFalkon(executors=2) as falkon:
            falkon.run([TaskSpec.sleep(0.0, task_id=f"m-{i}") for i in range(10)],
                       timeout=30)
            snap = falkon.dispatcher.metrics.snapshot()
            stats = falkon.dispatcher.stats()
        assert snap["dispatcher_tasks_accepted"] == 10
        assert snap["dispatcher_tasks_completed"] == 10
        assert snap["dispatcher_e2e_latency_seconds_count"] == 10
        assert stats.dispatch_latency_p50 > 0.0
        assert stats.dispatch_latency_p50 <= stats.dispatch_latency_p99

    def test_executor_stats_and_prometheus_render(self):
        with LocalFalkon(executors=1) as falkon:
            falkon.run([TaskSpec.sleep(0.0, task_id=f"p-{i}") for i in range(4)],
                       timeout=30)
            executor = falkon.executors[0]
            stats = executor.stats()
            text = render_prometheus(*falkon.metrics_registries())
        assert stats.tasks_executed == 4
        assert stats.executor_id == executor.executor_id
        assert "falkon_dispatcher_tasks_accepted_total 4" in text
        assert "falkon_executor_tasks_executed_total 4" in text

    def test_handler_cpu_says_which_handler_burnt_the_loop(self):
        """Which layer is burning the CPU, from the artefacts of one
        run: thread-CPU seconds per message handler, on ``stats()``
        (and so ``/status``) and as one registry counter each."""
        with LocalFalkon(executors=1, pipeline_depth=8) as falkon:
            falkon.run([TaskSpec.sleep(0.0, task_id=f"h-{i:04d}")
                        for i in range(400)], timeout=30)
            cpu = falkon.dispatcher.stats().handler_cpu_s
            snap = falkon.dispatcher.metrics.snapshot()
            status = falkon.dispatcher.status_snapshot()
        assert {"submit", "result", "heartbeat", "register", "sweep"} <= set(cpu)
        # 400 admissions and 400 settles cost measurable CPU; nobody
        # polled for results.
        assert cpu["submit"] > 0 and cpu["result"] > 0
        assert cpu["get_results"] == 0
        assert all(seconds >= 0 for seconds in cpu.values())
        assert snap["dispatcher_handler_result_cpu_seconds"] >= cpu["result"]
        assert status["dispatcher"]["handler_cpu_s"].keys() == cpu.keys()

    def test_dump_observability_round_trips_spans(self, tmp_path):
        from repro.obs import read_spans_jsonl

        with LocalFalkon(executors=1) as falkon:
            falkon.run([TaskSpec.sleep(0.0, task_id="dump-0")], timeout=30)
            paths = falkon.dump_observability(tmp_path / "obs")
        spans_path = next(p for p in paths if p.endswith("spans.jsonl"))
        names = [s.name for s in read_spans_jsonl(spans_path)
                 if s.task_id == "dump-0"]
        assert names == list(SPAN_ORDER)


class TestFutureApi:
    def test_single_spec_submit_returns_single_future(self):
        with LocalFalkon(executors=1) as falkon:
            future = falkon.client.submit(TaskSpec.sleep(0.0, task_id="single-0"))
            assert isinstance(future, TaskFuture)
            result = future.result(timeout=30)
        assert result.ok
        assert future.done() and not future.running()

    def test_bundle_submit_shim(self):
        with LocalFalkon(executors=1) as falkon:
            bundle = Bundle(tuple(
                TaskSpec.sleep(0.0, task_id=f"bndl-{i}") for i in range(3)
            ))
            futures = falkon.client.submit(bundle)
            assert isinstance(futures, list) and len(futures) == 3
            assert all(f.result(timeout=30).ok for f in futures)

    def test_done_callback_fires_on_completion(self):
        fired = threading.Event()
        seen = []
        with LocalFalkon(executors=1) as falkon:
            future = falkon.client.submit(TaskSpec.sleep(0.0, task_id="cb-0"))
            future.add_done_callback(lambda f: (seen.append(f), fired.set()))
            future.result(timeout=30)
            assert fired.wait(5.0)
        assert seen == [future]

    def test_done_callback_after_completion_fires_immediately(self):
        with LocalFalkon(executors=1) as falkon:
            future = falkon.client.submit(TaskSpec.sleep(0.0, task_id="cb-1"))
            future.result(timeout=30)
            seen = []
            future.add_done_callback(seen.append)
            assert seen == [future]

    def test_callback_exceptions_are_swallowed(self):
        future = TaskFuture("cb-2")

        def explode(_):
            raise RuntimeError("boom")

        seen = []
        future.add_done_callback(explode)
        future.add_done_callback(seen.append)
        future._fail(ReconnectError("link lost"))
        assert seen == [future]
        assert isinstance(future.exception(), ReconnectError)

    def test_exception_is_none_on_success(self):
        with LocalFalkon(executors=1) as falkon:
            future = falkon.client.submit(TaskSpec.sleep(0.0, task_id="exc-0"))
            assert future.exception(timeout=30) is None

    def test_exception_times_out_like_result(self):
        future = TaskFuture("never")
        with pytest.raises(TimeoutError):
            future.exception(timeout=0.01)

    def test_cancellation_follows_concurrent_futures(self):
        # Local-abandon semantics (see tests/live/test_client_semantics.py
        # for the full surface): a pending future cancels; a settled one
        # is too late, exactly like concurrent.futures.Future.cancel.
        future = TaskFuture("nc-0")
        assert future.cancel() is True
        assert future.cancelled() is True
        settled = TaskFuture("nc-1")
        settled._fulfill(TaskResult(task_id="nc-1"))
        assert settled.cancel() is False
        assert settled.cancelled() is False


class TestClientConstructors:
    def test_connect_classmethod_and_context_manager(self):
        from repro.live import LiveClient

        with LocalFalkon(executors=1) as falkon:
            host, port = falkon.dispatcher.address
            with LiveClient.connect(host, port) as client:
                result = client.submit(
                    TaskSpec.sleep(0.0, task_id="conn-0")
                ).result(timeout=30)
                assert result.ok
            assert client._user_closed
