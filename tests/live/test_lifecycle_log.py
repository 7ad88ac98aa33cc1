"""The dispatcher's flight ring as its lifecycle log.

One recorder serves both artefacts: the post-mortem dump (``repro
doctor``) and the JSONL follow (``--events-out``, ``repro events
replay``).  These tests drive a real dispatcher and read both back.
"""

import json
import urllib.request

from repro.live import LiveDispatcher, LocalFalkon
from repro.net.message import Message, MessageType
from repro.obs import flight as fl
from repro.obs import read_events_jsonl, replay_summary
from repro.obs.doctor import analyze
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


def _submit(peer: RawPeer, *task_ids: str) -> None:
    peer.send(Message(MessageType.SUBMIT, sender="c", payload={
        "tasks": [{"task_id": task_id, "args": ["0"]} for task_id in task_ids]}))


def test_followed_jsonl_replays_a_run_with_failures_and_agrees_with_stats(tmp_path):
    path = tmp_path / "events.jsonl"
    ok_ids = [f"ok-{i:03d}" for i in range(30)]
    with LocalFalkon(executors=2, events_out=str(path), max_retries=1,
                     journal_dir=str(tmp_path / "journal")) as falkon:
        stats = falkon.dispatcher.stats
        # One slow task per executor, then one link dies under its task.
        slow = falkon.submit([TaskSpec.sleep(0.3, task_id=f"slow-{i}")
                              for i in range(2)])
        assert wait_until(lambda: stats().busy == 2)
        falkon.executors[0].kill_connection()
        assert wait_until(lambda: stats().retries >= 1)
        results = falkon.run(
            [TaskSpec.sleep(0, task_id=task_id) for task_id in ok_ids]
            + [TaskSpec(task_id="poison", command="false")], timeout=60)
        assert [r.ok for r in results] == [True] * 30 + [False]
        assert all(f.result(timeout=30).ok for f in slow)
        final = stats()
        falkon.dispatcher.flight.close()  # the file is complete from here
    events = read_events_jsonl(path)
    by_task: dict[str, list[str]] = {}
    for event in events:
        if event["kind"].startswith(("queue.", "task.", "dlq.")):
            by_task.setdefault(event["subject"], []).append(event["kind"])
    for task_id in ok_ids:
        assert by_task[task_id] == [
            fl.QUEUE_ENQUEUE, fl.QUEUE_CLAIM, fl.TASK_SETTLE], task_id
    assert by_task["poison"] == [
        fl.QUEUE_ENQUEUE, fl.QUEUE_CLAIM, fl.QUEUE_REQUEUE, fl.QUEUE_CLAIM,
        fl.TASK_SETTLE, fl.DLQ_ADD]
    (dlq,) = [e for e in events if e["kind"] == fl.DLQ_ADD]
    assert dlq["attrs"]["attempts"] == 2

    summary = replay_summary(events)
    assert summary["kinds"][fl.EXECUTOR_REGISTER] >= 2
    assert summary["kinds"][fl.EXECUTOR_DROP] >= 1
    assert summary["kinds"][fl.CLIENT_CONNECT] == 1
    assert summary["executors_dropped"] == 1
    assert summary["submitted"] == final.accepted == 33
    assert summary["settled"] == final.completed + final.failed == 33
    assert summary["retries"] == final.retries
    assert summary["outcomes"] == {"ok": final.completed, "fail": final.failed}


def test_flight_dump_holds_eviction_and_reject_and_doctor_inventory_is_unmoved(
    tmp_path,
):
    with LiveDispatcher(heartbeat_interval=0.05, heartbeat_miss_budget=2,
                        queue_limit=2) as dispatcher:
        client = RawPeer(dispatcher.address)
        executor = RawPeer(dispatcher.address)
        try:
            client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
            client.recv_until(MessageType.INSTANCE_CREATED)
            _submit(client, "fill-0", "fill-1")
            client.recv_until(MessageType.SUBMIT_ACK)
            _submit(client, "over-0", "over-1", "over-2")
            client.recv_until(MessageType.SUBMIT_REJECT)
            # The executor takes one task and goes silent: half-open.
            executor.register("e-silent")
            executor.recv_work()  # pushed at REGISTER
            assert wait_until(
                lambda: dispatcher.stats().executors_declared_dead == 1)
            path = dispatcher.dump_flight(str(tmp_path / "flight-d.json"),
                                          reason="oracle")
        finally:
            client.close()
            executor.close()
    with open(path) as fh:
        dump = json.load(fh)
    (evict,) = [e for e in dump["events"] if e["kind"] == fl.EXECUTOR_EVICT]
    assert (evict["subject"], evict["reason"]) == ("e-silent", "heartbeat-timeout")
    (reject,) = [e for e in dump["events"] if e["kind"] == fl.SUBMIT_REJECT]
    assert (reject["bundle"], reject["queued"], reject["limit"]) == (3, 2, 2)
    assert fl.EXECUTOR_REGISTER in {e["kind"] for e in dump["events"]}

    inventory = {"fill-0": "queued", "fill-1": "queued"}
    (crashed,) = analyze(path)["crashed"]
    assert crashed["open_tasks"] == inventory
    # Without the dump-time inventory the doctor replays the ring: the
    # session and incident kinds must not read as task transitions.
    dump["extra"] = {}
    bare = tmp_path / "flight-bare.json"
    bare.write_text(json.dumps(dump))
    (crashed,) = analyze(str(bare))["crashed"]
    assert crashed["open_tasks"] == inventory


def test_follow_attached_after_boot_writes_the_recovery_that_predates_it(tmp_path):
    journal_dir = str(tmp_path / "journal")
    with LiveDispatcher(journal_dir=journal_dir) as first:
        client = RawPeer(first.address)
        try:
            client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
            client.recv_until(MessageType.INSTANCE_CREATED)
            _submit(client, "rec-0", "rec-1", "rec-2")
            client.recv_until(MessageType.SUBMIT_ACK)
        finally:
            client.close()
    path = tmp_path / "events.jsonl"
    with LocalFalkon(executors=1, journal_dir=journal_dir,
                     events_out=str(path)) as falkon:
        assert wait_until(lambda: falkon.dispatcher.stats().completed == 3)
    events = read_events_jsonl(path)
    assert events[0]["kind"] == fl.RECOVER
    assert events[0]["attrs"] == {"tasks": 3, "requeued": 3, "truncated": False,
                                  "from_snapshot": False}
    assert replay_summary(events)["settled"] == 3


def test_compaction_shows_in_flight_dump_metrics_status_and_health(tmp_path):
    """Compaction is no longer the one silent journal operation: an
    operator sees that it ran, how long it took and what it kept."""
    with LocalFalkon(executors=2, pipeline_depth=8, http_port=0,
                     heartbeat_interval=0.05, retain_settled=50,
                     journal_dir=str(tmp_path / "journal"),
                     journal_compact_every=200) as falkon:
        journal = falkon.dispatcher.journal
        results = falkon.run([TaskSpec.sleep(0, task_id=f"cmp-{i:03d}")
                              for i in range(300)])
        assert all(r.ok for r in results)
        assert wait_until(lambda: journal.stats()["compactions"] >= 1)
        stats = journal.stats()
        assert {"records", "commits", "flushes", "compactions", "pending",
                "tail_records", "failed", "last_flush_s",  # bench/sut.py reads these
                "live_tasks", "last_compact_s", "max_compact_s"} <= set(stats)
        assert 0 < stats["last_compact_s"] <= stats["max_compact_s"]
        path = falkon.dispatcher.dump_flight(str(tmp_path / "flight.json"),
                                             reason="manual")
        base = falkon.http.url("").rstrip("/")
        with urllib.request.urlopen(base + "/metrics", timeout=5.0) as response:
            metrics = response.read().decode()
        with urllib.request.urlopen(base + "/status", timeout=5.0) as response:
            status = json.load(response)
        assert falkon.dispatcher._check_journal() is None
        journal.last_compact_s = 30.0  # what a wedged disk would leave here
        assert "compaction took 30.00s" in falkon.dispatcher._check_journal()
    with open(path) as fh:
        compacts = [e for e in json.load(fh)["events"]
                    if e["kind"] == fl.JOURNAL_COMPACT]
    assert compacts and all(
        e["seconds"] > 0 and e["rows"] >= e["live_tasks"] >= 0 and e["bytes"] >= 0
        for e in compacts)
    assert "falkon_dispatcher_journal_compact_seconds" in metrics
    assert "falkon_dispatcher_journal_flush_seconds" in metrics
    assert status["journal"]["compactions"] >= 1
    assert {"live_tasks", "last_compact_s", "max_compact_s"} <= set(status["journal"])


def test_every_kind_the_dispatcher_records_is_a_named_constant_with_a_docs_row():
    import inspect
    import os
    import re

    from repro.live import dispatcher, journal

    source = inspect.getsource(dispatcher) + inspect.getsource(journal)
    assert not re.search(r"flight\.record\(\s*[\"']", source)  # no literals
    names = set(re.findall(r"\bfl\.([A-Z_]+)\b", source))
    assert {"DLQ_ADD", "EXECUTOR_EVICT", "SUBMIT_REJECT",
            "JOURNAL_COMMIT", "JOURNAL_COMPACT"} <= names
    # Task transitions are recorded once, as span events; the flight
    # view shows them under these kinds.
    names |= {"QUEUE_ENQUEUE", "QUEUE_CLAIM", "QUEUE_REQUEUE", "TASK_SETTLE",
              "DLQ_RETRY"}
    assert names <= set(fl.__all__)
    docs = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "docs", "OBSERVABILITY.md")
    with open(docs, encoding="utf-8") as fh:
        table = fh.read()
    for name in names:
        assert f"`{getattr(fl, name)}`" in table, name
