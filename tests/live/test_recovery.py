"""Restart recovery, dead-letter quarantine and admission control.

The durability acceptance bar: a dispatcher killed mid-run (in-process
crash points or a real ``kill -9``) comes back from its journal with
exactly-once-*visible* completion — every client future resolves with
one result, nothing is lost, nothing double-completes.  Poison tasks
quarantine instead of cycling, and a bounded queue pushes back with
SUBMIT_REJECT until clients converge.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from repro.live import (
    FaultPlan,
    Journal,
    LiveClient,
    LiveDispatcher,
    LiveExecutor,
    LocalFalkon,
)
from repro.live.journal import read_journal_tail
from repro.live.protocol import result_from_dict, task_from_dict, task_to_dict
from repro.net.message import Message, MessageType
from repro.net.wire import HEADER_BYTES
from repro.types import TaskSpec

from tests.live.util import RawPeer, wait_until


def specs(n, seconds=0.05, prefix="rec"):
    return [
        TaskSpec(task_id=f"{prefix}-{i:04d}", command="sleep", args=(str(seconds),))
        for i in range(n)
    ]


# ---------------------------------------------------------------- restart
def test_restart_recovers_queue_and_results(tmp_path):
    """Kill a dispatcher cleanly mid-queue; the successor re-enqueues
    the unfinished tail and keeps finished results queryable."""
    journal_dir = str(tmp_path)
    disp = LiveDispatcher(journal_dir=journal_dir)
    client = LiveClient(disp.endpoint, max_reconnects=0)
    client.submit(specs(4, prefix="rq"))
    # No executor: everything is still queued when the dispatcher dies.
    client.close()
    disp.close()

    disp2 = LiveDispatcher(journal_dir=journal_dir)
    try:
        assert disp2.recovered_tasks == 4
        stats = disp2.stats()
        assert stats.queued == 4 and stats.recovered == 4
    finally:
        disp2.close()


def test_bundle_acked_after_a_torn_tail_survives_the_next_crash(tmp_path):
    """Crash, power-cut-style torn last line, restart: what the second
    incarnation acknowledges must reach the third.  (It used to append
    behind the torn line, where recovery never reads.)"""
    journal_dir = str(tmp_path)
    disp = LiveDispatcher(journal_dir=journal_dir)
    client = LiveClient(disp.endpoint, max_reconnects=0)
    client.submit(specs(2, prefix="one"))
    client.submit(specs(2, prefix="torn"))
    client.close()
    disp.simulate_crash()
    tail = tmp_path / "journal.jsonl"
    os.truncate(tail, os.path.getsize(tail) - 15)

    disp2 = LiveDispatcher(journal_dir=journal_dir)
    try:
        assert disp2.recovered_tasks == 2  # the torn bundle is gone
        client = LiveClient(disp2.endpoint, max_reconnects=0)
        client.submit(specs(3, prefix="two"))  # returns once acknowledged
        client.close()
    finally:
        disp2.simulate_crash()

    disp3 = LiveDispatcher(journal_dir=journal_dir)
    try:
        assert disp3.recovered_tasks == 5
        assert disp3.stats().queued == 5
    finally:
        disp3.close()


@pytest.mark.chaos
def test_seeded_crash_between_dispatch_and_result_ack(tmp_path, monkeypatch):
    """Seeded chaos: the dispatcher dies with a RESULT frame in hand
    (between DISPATCH and RESULT_ACK — the executor did the work, but
    no settle was journalled).  A successor on the same port recovers;
    every future resolves exactly once."""
    n = 8
    journal_dir = str(tmp_path)
    plan = FaultPlan(seed=20070607, crash_points={"before-result": 1})
    disp = LiveDispatcher(journal_dir=journal_dir, fault_plan=plan)
    port = disp.address[1]
    monkeypatch.setattr("repro.live.executor.RECONNECT_ATTEMPTS", 100)
    executor = LiveExecutor(disp.endpoint).start()
    executor.wait_registered()
    client = LiveClient(disp.endpoint, max_reconnects=100)
    disp2 = None
    try:
        futures = client.submit(specs(n, prefix="cr"))
        assert wait_until(lambda: plan.counters["crashes_fired"] == 1, timeout=30.0)
        # The crash abandons the journal before it closes the listener,
        # so the journal's flag is no sign the port is free: wait for
        # the listening socket itself to be closed.
        assert wait_until(lambda: disp._server.fileno() == -1, timeout=10.0)
        disp2 = LiveDispatcher(journal_dir=journal_dir, port=port)
        results = [f.result(timeout=60.0) for f in futures]
        assert all(r.ok for r in results)
        assert {r.task_id for r in results} == {s.task_id for s in specs(n, prefix="cr")}
        # Exactly-once-visible: the successor's ledger holds one
        # completion per task — recovered settles and replayed attempts
        # never double-count.
        assert disp2.stats().completed == n
    finally:
        client.close()
        executor.stop()
        if disp2 is not None:
            disp2.close()
        disp.close()


@pytest.mark.chaos
def test_kill_dash_nine_survives_with_exactly_once_visibility(tmp_path, monkeypatch):
    """The real thing: SIGKILL the dispatcher *process* mid-run, then
    restart against the same journal directory and port."""
    n = 12
    journal_dir = str(tmp_path)
    child_src = (
        "import sys, time\n"
        "from repro.live import LiveDispatcher\n"
        "disp = LiveDispatcher(journal_dir=sys.argv[1])\n"
        "print(disp.address[1], flush=True)\n"
        "while True:\n"
        "    time.sleep(1)\n"
    )
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", child_src, journal_dir],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    disp2 = None
    executor = client = None
    try:
        port = int(child.stdout.readline())
        address = f"127.0.0.1:{port}"
        monkeypatch.setattr("repro.live.executor.RECONNECT_ATTEMPTS", 200)
        executor = LiveExecutor(address).start()
        executor.wait_registered()
        client = LiveClient(address, max_reconnects=200)
        futures = client.submit(specs(n, seconds=0.1, prefix="k9"))
        # Let the run get genuinely mid-flight before pulling the plug.
        assert wait_until(lambda: sum(f.done() for f in futures) >= 2, timeout=30.0)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)
        disp2 = LiveDispatcher(journal_dir=journal_dir, port=port)
        results = [f.result(timeout=60.0) for f in futures]
        assert all(r.ok for r in results)
        assert len({r.task_id for r in results}) == n
        assert disp2.stats().completed == n
    finally:
        if client is not None:
            client.close()
        if executor is not None:
            executor.stop()
        if disp2 is not None:
            disp2.close()
        if child.poll() is None:
            child.kill()
        child.stdout.close()


def test_recovery_tolerates_malformed_result_record(tmp_path):
    """One malformed journalled result (version skew, corruption that
    passed the CRC) must degrade to a synthesized failure for that
    task, not abort the whole dispatcher boot."""
    with Journal(str(tmp_path)) as journal:
        journal.append("submit", "bad-1",
                       spec={"task_id": "bad-1", "command": "sleep", "args": ["0"]},
                       client="c-1")
        # A result payload that is not a wire dict at all.
        journal.append("result", "bad-1", outcome="fail", result="corrupt")
        journal.append("submit", "ok-1",
                       spec={"task_id": "ok-1", "command": "sleep", "args": ["0"]},
                       client="c-1")
        journal.commit()
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    try:
        assert disp.recovered_tasks == 2
        stats = disp.stats()
        assert stats.failed == 1  # bad-1, with a synthesized failure result
        assert stats.queued == 1  # ok-1 re-enqueued normally
    finally:
        disp.close()


#: One history — lg-1 settled ok and acked, lg-2 failed into the DLQ,
#: lg-3 dispatched when the dispatcher stopped — in the WAL shapes of
#: older writers: ``spec`` always names its ``command`` and ``result``
#: its ``executor_id`` (the parent commit's default-stripped rows), and
#: lg-3's spec has every key (rows from before any stripping).
LEGACY_ROWS = [
    {"k": "submit", "id": "lg-1", "client": "client-0001",
     "spec": {"command": "sleep", "args": ["0"]}},
    {"k": "submit", "id": "lg-2", "client": "client-0001",
     "spec": {"command": "echo", "args": ["hi"], "env": [["A", "1"]],
              "runtime_estimate": 0.5, "stage": "s-7"}},
    {"k": "submit", "id": "lg-3", "client": "client-0001",
     "spec": {"task_id": "lg-3", "command": "sleep", "args": ["0"],
              "working_dir": ".", "env": [], "duration": 2.0, "reads": [],
              "writes": [], "runtime_estimate": None, "stage": ""}},
    {"k": "dispatch", "id": "lg-1", "attempt": 1, "executor": "e-1"},
    {"k": "result", "id": "lg-1", "outcome": "ok",
     "result": {"executor_id": "e-1"}},
    {"k": "dispatch", "id": "lg-2", "attempt": 1, "executor": "e-1"},
    {"k": "acked", "id": "", "ids": ["lg-1"]},
    {"k": "result", "id": "lg-2", "outcome": "fail",
     "result": {"return_code": 3, "stdout": "", "stderr": "x",
                "executor_id": "e-1", "error": "boom", "attempts": 1}},
    {"k": "dlq", "id": "lg-2", "error": "boom"},
    {"k": "dispatch", "id": "lg-3", "attempt": 1, "executor": "e-1"},
    {"k": "acked", "id": "", "ids": ["lg-2"]},
]
LEGACY_SPECS = [
    TaskSpec(task_id="lg-1", command="sleep", args=("0",)),
    TaskSpec(task_id="lg-2", command="echo", args=("hi",), env=(("A", "1"),),
             runtime_estimate=0.5, stage="s-7"),
    TaskSpec(task_id="lg-3", command="sleep", args=("0",), duration=2.0),
]


def recovered_view(journal_dir):
    """What a dispatcher booted on *journal_dir* rebuilt, minus clocks.
    A kept spec or result dict is shown parsed: older rows name more
    defaults."""
    disp = LiveDispatcher(journal_dir=journal_dir)
    try:
        records = {}
        for task_id, record in disp._records.items():
            records[task_id] = (
                record.spec_dict and task_from_dict(record.spec_dict),
                record.state, record.attempts, record.client_id,
                record.acked,
                record.result and result_from_dict(record.result),
            )
        return records, [e["task_id"] for e in disp.dlq_list()], list(disp._queue)
    finally:
        disp.close()


def test_recovery_reads_older_journal_shapes_like_its_own(tmp_path):
    """The WAL ``spec`` / ``result`` is now the sparse wire object; a
    journal whose rows name every default (or merely more of them)
    must recover to exactly the records this writer's own rows give."""
    legacy_dir = str(tmp_path / "legacy")
    with Journal(legacy_dir) as journal:
        journal.append_many(LEGACY_ROWS)
        assert journal.commit()

    # The same history, driven through a live dispatcher by hand.
    own_dir = str(tmp_path / "own")
    disp = LiveDispatcher(journal_dir=own_dir, max_retries=0)
    client = RawPeer(disp.address)
    executor = RawPeer(disp.address)
    try:
        client.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        client.recv_until(MessageType.INSTANCE_CREATED)
        executor.register("e-1")
        client.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [task_to_dict(spec) for spec in LEGACY_SPECS]}))
        client.recv_until(MessageType.SUBMIT_ACK)
        # The first task is pushed to the idle depth-1 executor.
        (entry,) = executor.recv_work()
        for outcome in ({}, {"return_code": 3, "stderr": "x", "error": "boom"}):
            executor.send(Message(MessageType.RESULT, sender="e-1", payload={
                "results": [{"result": {"task_id": entry["task"]["task_id"],
                                        **outcome},
                             "attempt": entry["attempt"]}]}))
            # The ack piggy-backs the next task onto the depth-1 executor.
            (entry,) = executor.recv_until(
                MessageType.RESULT_ACK).payload["tasks"]
            client.recv_until(MessageType.CLIENT_NOTIFY)
        assert entry["task"]["task_id"] == "lg-3"
        # Stop with lg-3 in flight: a clean close would fail it over.
        assert wait_until(
            lambda: disp.journal.stats()["records"] == len(LEGACY_ROWS))
        assert disp.journal.commit()
        disp.simulate_crash()
    finally:
        client.close()
        executor.close()
        disp.close()
    rows, _ = read_journal_tail(os.path.join(own_dir, "journal.jsonl"))
    assert [(r["k"], r["id"]) for r in rows] == [
        (r["k"], r["id"]) for r in LEGACY_ROWS]
    # This writer's rows: the wire object minus task_id, defaults omitted.
    assert rows[0]["spec"] == {"args": ["0"]}
    assert rows[4]["result"] == {"executor_id": "e-1"}
    assert rows[7]["result"] == {"return_code": 3, "stderr": "x",
                                 "executor_id": "e-1", "error": "boom"}

    assert recovered_view(legacy_dir) == recovered_view(own_dir)
    records, dlq, queue = recovered_view(own_dir)
    # The settled ok task keeps no spec; the quarantined and the
    # in-flight one keep theirs.
    assert [records[spec.task_id][0] for spec in LEGACY_SPECS] == [
        None, *LEGACY_SPECS[1:]]
    assert dlq == ["lg-2"] and queue == ["lg-3"]


def test_renotified_recovered_result_is_strict_json(tmp_path):
    """A result recovered from the journal has no timeline; re-pushed
    on a duplicate SUBMIT, its CLIENT_NOTIFY must omit the unknown
    stamps — bare ``NaN`` tokens are not JSON, and only Python's
    parser reads them."""
    journal_dir = str(tmp_path)
    with LocalFalkon(executors=1, journal_dir=journal_dir) as falkon:
        assert falkon.run(specs(1, seconds=0.0, prefix="nan"), timeout=10)[0].ok
    disp = LiveDispatcher(journal_dir=journal_dir)
    peer = RawPeer(disp.address)
    client = None
    try:
        peer.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        peer.recv_until(MessageType.INSTANCE_CREATED)
        peer.send(Message(MessageType.SUBMIT, sender="c", payload={
            "tasks": [{"task_id": "nan-0000", "args": ["0.0"]}]}))
        # Read the raw bytes: SUBMIT_ACK, then the re-pushed CLIENT_NOTIFY.
        raw = b""
        frames = []
        while len(frames) < 2:
            raw += peer.sock.recv(65536)
            while len(raw) >= HEADER_BYTES:
                (body_len,) = struct.unpack_from(">I", raw, 4)
                if len(raw) < HEADER_BYTES + body_len:
                    break
                frames.append(raw[HEADER_BYTES + 4:HEADER_BYTES + body_len])
                raw = raw[HEADER_BYTES + body_len:]

        def reject(token):
            raise AssertionError(f"non-JSON constant {token} on the wire")

        notify = json.loads(frames[1], parse_constant=reject)
        (result,) = notify["payload"]["results"]
        assert result["task_id"] == "nan-0000" and "timeline" not in result

        # A real client still fills the unknown stamps with NaN.
        client = LiveClient(disp.endpoint)
        renotified = client.submit(
            specs(1, seconds=0.0, prefix="nan")[0]).result(timeout=10.0)
        assert renotified.ok
        timeline = renotified.timeline
        assert all(stamp != stamp for stamp in (
            timeline.submitted, timeline.dispatched, timeline.completed))
    finally:
        if client is not None:
            client.close()
        peer.close()
        disp.close()


def test_submit_rejected_when_journal_cannot_commit(tmp_path):
    """If the group commit cannot confirm durability, the dispatcher
    must refuse the bundle instead of acking a promise it cannot keep
    — and must not enqueue anything."""
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    # Model a stalled/failed WAL: commit can no longer confirm.
    disp.journal.commit = lambda timeout=5.0: False
    client = LiveClient(disp.endpoint, max_submit_retries=0)
    try:
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            client.submit(specs(2, prefix="jf"))
        assert client.submit_rejects == 1
        stats = disp.stats()
        assert stats.submit_rejects == 1
        assert stats.queued == 0 and stats.accepted == 0
    finally:
        client.close()
        disp.close()


# ---------------------------------------------------------------- adoption
def _seed_journal(journal_dir, task_id, attempts=1):
    """A journal whose one task was dispatched (attempt N) pre-crash."""
    with Journal(journal_dir) as journal:
        journal.append("submit", task_id,
                       spec={"task_id": task_id, "command": "sleep", "args": ["0"]},
                       client="c-1")
        journal.append("dispatch", task_id, attempt=attempts, executor="e-1")
        journal.commit()


def test_register_inflight_echo_adopts_matching_attempt(tmp_path):
    """An executor that survived the crash echoes its in-flight task on
    REGISTER; the recovering dispatcher adopts the dispatch instead of
    re-running it, then accepts the resent result."""
    _seed_journal(str(tmp_path), "adopt-1")
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    peer = RawPeer(disp.address)
    try:
        peer.send(Message(MessageType.REGISTER, sender="e-1",
                          payload={"executor_id": "e-1",
                                   "inflight": [{"task_id": "adopt-1", "attempt": 1}]}))
        peer.recv_until(MessageType.REGISTER_ACK)
        assert wait_until(lambda: disp.stats().inflight_adopted == 1, timeout=5.0)
        assert disp.stats().queued == 0  # not re-dispatched elsewhere
        peer.send(Message(MessageType.RESULT, sender="e-1",
                          payload={"results": [{
                              "result": {"task_id": "adopt-1", "return_code": 0},
                              "attempt": 1}]}))
        peer.recv_until(MessageType.RESULT_ACK)
        assert wait_until(lambda: disp.stats().completed == 1, timeout=5.0)
    finally:
        peer.close()
        disp.close()


def test_register_inflight_echo_mismatched_attempt_not_adopted(tmp_path):
    """A stale echo (superseded attempt) is refused: the task stays
    queued for a fresh dispatch and the stale result is dropped."""
    _seed_journal(str(tmp_path), "stale-1", attempts=2)
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    peer = RawPeer(disp.address)
    try:
        peer.send(Message(MessageType.REGISTER, sender="e-1",
                          payload={"executor_id": "e-1",
                                   "inflight": [{"task_id": "stale-1", "attempt": 1}]}))
        peer.recv_until(MessageType.REGISTER_ACK)
        stats = disp.stats()
        assert stats.inflight_adopted == 0
        peer.send(Message(MessageType.RESULT, sender="e-1",
                          payload={"results": [{
                              "result": {"task_id": "stale-1", "return_code": 0},
                              "attempt": 1}]}))
        peer.recv_until(MessageType.RESULT_ACK)
        assert wait_until(lambda: disp.stats().stale_results == 1, timeout=5.0)
        assert disp.stats().completed == 0
    finally:
        peer.close()
        disp.close()


def test_executor_stash_resends_unreported_results(tmp_path, monkeypatch):
    """The executor-side half of adoption: results that could not be
    sent are stashed, echoed on REGISTER, and resent after the ack."""
    _seed_journal(str(tmp_path), "stash-1")
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    monkeypatch.setattr("repro.live.executor.RECONNECT_ATTEMPTS", 10)
    executor = LiveExecutor(disp.endpoint)
    executor._unreported.append(
        {"result": {"task_id": "stash-1", "return_code": 0}, "attempt": 1,
         "exec": {"seconds": 0.0}}
    )
    executor.start()
    try:
        executor.wait_registered()
        assert wait_until(lambda: disp.stats().completed == 1, timeout=10.0)
        stats = disp.stats()
        assert stats.inflight_adopted == 1
        assert executor._unreported == []
    finally:
        executor.stop()
        disp.close()


# ---------------------------------------------------------------- DLQ
def test_poison_task_lands_in_dlq_and_is_retryable(tmp_path):
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] <= 4:
            raise RuntimeError("poison until the operator intervenes")
        return "recovered"

    with LocalFalkon(
        executors=1, max_retries=3, journal_dir=str(tmp_path),
        python_registry={"flaky": flaky},
    ) as falkon:
        future = falkon.client.submit(TaskSpec(task_id="poison-1", command="python:flaky"))
        result = future.result(timeout=30.0)
        assert not result.ok
        assert result.attempts == 4  # initial + max_retries
        entries = falkon.dispatcher.dlq_list()
        assert [e["task_id"] for e in entries] == ["poison-1"]
        assert entries[0]["attempts"] == 4
        assert falkon.dispatcher.stats().dlq_size == 1

        # Operator retry: budget reset, task re-queued; the fifth
        # attempt succeeds and the DLQ drains.
        assert falkon.dispatcher.dlq_retry("poison-1") is True
        assert wait_until(lambda: falkon.dispatcher.stats().completed == 1, timeout=30.0)
        assert falkon.dispatcher.dlq_list() == []
        assert falkon.dispatcher.stats().dlq_size == 0
        # The client saw the terminal failure (no hanging future); the
        # post-retry success is visible through the polling path.
        assert falkon.dispatcher.dlq_retry("poison-1") is False  # not quarantined now


def test_dlq_survives_restart(tmp_path):
    with LocalFalkon(executors=1, max_retries=0, journal_dir=str(tmp_path)) as falkon:
        result = falkon.run([TaskSpec(task_id="dead-1", command="false")], timeout=30)[0]
        assert not result.ok
        assert [e["task_id"] for e in falkon.dispatcher.dlq_list()] == ["dead-1"]
    disp = LiveDispatcher(journal_dir=str(tmp_path))
    try:
        entries = disp.dlq_list()
        assert [e["task_id"] for e in entries] == ["dead-1"]
        assert disp.stats().dlq_size == 1
    finally:
        disp.close()


def test_dlq_retry_unknown_task_is_false():
    with LocalFalkon(executors=1) as falkon:
        assert falkon.dispatcher.dlq_retry("never-heard-of-it") is False


# ---------------------------------------------------------------- admission
def test_overflow_rejected_then_converges(monkeypatch):
    monkeypatch.setattr("repro.live.protocol.RECONNECT_CAP", 0.2)
    with LocalFalkon(executors=1, queue_limit=8, bundle_size=4) as falkon:
        futures = falkon.client.submit(specs(16, seconds=0.02, prefix="adm"))
        results = [f.result(timeout=60.0) for f in futures]
        assert all(r.ok for r in results)
        assert falkon.client.submit_rejects >= 1
        assert falkon.dispatcher.stats().submit_rejects == falkon.client.submit_rejects


def test_reject_carries_retry_after_hint():
    from repro.live.dispatcher import REJECT_RETRY_AFTER

    disp = LiveDispatcher(queue_limit=2)
    peer = RawPeer(disp.address)
    try:
        peer.send(Message(MessageType.CREATE_INSTANCE, sender="c"))
        peer.recv_until(MessageType.INSTANCE_CREATED)

        def submit(batch):
            peer.send(Message(MessageType.SUBMIT, sender="c", payload={
                "tasks": [task_to_dict(spec) for spec in batch]}))

        submit(specs(2, prefix="fill"))  # fills the queue (no executors)
        peer.recv_until(MessageType.SUBMIT_ACK)
        submit(specs(4, prefix="over"))
        reject = peer.recv_until(MessageType.SUBMIT_REJECT)
        assert reject.payload == {
            "retry_after": REJECT_RETRY_AFTER, "queued": 2, "limit": 2}
        assert disp.stats().submit_rejects == 1
    finally:
        peer.close()
        disp.close()


def test_resubmission_is_idempotent_per_task_id():
    """A client retrying a SUBMIT whose ack was lost must not
    double-enqueue: the dispatcher dedupes by task id."""
    disp = LiveDispatcher()
    peer_client = LiveClient(disp.endpoint)
    try:
        peer_client.submit(specs(3, prefix="dup"))
        # Re-send the same bundle straight over the wire (the client
        # API would refuse the duplicate ids locally).
        peer_client._send_bundle(*peer_client._encode_bundle(specs(3, prefix="dup")))
        assert disp.stats().queued == 3
    finally:
        peer_client.close()
        disp.close()


def test_duplicate_task_id_inside_one_bundle_is_accepted_once(tmp_path):
    """A hand-written peer repeating an id inside one SUBMIT bundle
    (LiveClient refuses to) gets one record, one queue entry, one
    journal row and one span chain — first occurrence wins — while the
    ack still counts the bundle, as for any idempotent resubmission."""
    from repro.scenarios.oracles import OracleReport, check_conservation

    first = TaskSpec(task_id="twin", command="sleep", args=("0",), stage="first")
    second = TaskSpec(task_id="twin", command="sleep", args=("0",), stage="second")
    other = TaskSpec(task_id="single", command="sleep", args=("0",))
    with LocalFalkon(executors=1, journal_dir=str(tmp_path)) as falkon:
        disp = falkon.dispatcher
        peer = RawPeer(disp.address)
        try:
            peer.send(Message(MessageType.CREATE_INSTANCE, sender="raw"))
            peer.recv_until(MessageType.INSTANCE_CREATED)
            peer.send(Message(MessageType.SUBMIT, sender="raw", payload={
                "tasks": [task_to_dict(t) for t in (first, second, other)]}))
            assert peer.recv_until(MessageType.SUBMIT_ACK).payload["accepted"] == 3
            assert wait_until(lambda: disp.stats().completed == 2, timeout=10.0)
        finally:
            peer.close()
        report = OracleReport()
        check_conservation(report, submitted=2, stats=disp.stats())
        assert report.ok, report.summary()
        assert wait_until(lambda: disp.spans.chain_errors("twin") == [], timeout=5.0)
        assert [s.name for s in disp.trace("twin")].count("submit") == 1
        assert disp.stats().queued == 0
    rows, _ = read_journal_tail(os.path.join(str(tmp_path), "journal.jsonl"))
    assert sorted(r["id"] for r in rows if r["k"] == "submit") == ["single", "twin"]
    (twin,) = [r for r in rows if r["k"] == "submit" and r["id"] == "twin"]
    assert twin["spec"]["stage"] == "first"


def test_duplicate_submit_of_settled_task_renotifies():
    """Submitting a task id that already settled (reused journal dir,
    resubmission after a lost ack) converges instead of hanging: the
    dispatcher re-pushes the stored result and does not re-execute."""
    with LocalFalkon(executors=1) as falkon:
        first = falkon.client.submit(specs(1, seconds=0.0, prefix="dup2")[0])
        assert first.result(timeout=10.0).ok
        late = LiveClient(falkon.dispatcher.endpoint)
        try:
            future = late.submit(specs(1, seconds=0.0, prefix="dup2")[0])
            assert future.result(timeout=10.0).ok
        finally:
            late.close()
        # The stored result was replayed — the task ran exactly once.
        assert falkon.dispatcher.stats().completed == 1


def test_queue_limit_validation():
    with pytest.raises(ValueError):
        LiveDispatcher(queue_limit=0)
