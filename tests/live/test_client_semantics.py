"""Client-side contracts: bundle-atomic validation and future semantics.

``LiveClient.submit`` must validate a whole bundle before registering
any future (a duplicate mid-bundle must not strand earlier tasks), and
:class:`TaskFuture` must keep the ``concurrent.futures`` contract for
``cancel`` / ``result`` / ``exception`` timeouts.
"""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.live import LiveDispatcher, LiveClient, LocalFalkon
from repro.live.client import TaskFuture
from repro.types import TaskSpec

from tests.live.util import wait_until


def spec(task_id):
    return TaskSpec(task_id=task_id, command="sleep", args=("0",))


# ---------------------------------------------------------------- bundles
def test_duplicate_within_bundle_registers_nothing():
    disp = LiveDispatcher()
    client = LiveClient(disp.endpoint)
    try:
        with pytest.raises(ValueError, match="duplicate task id"):
            client.submit([spec("a"), spec("b"), spec("a")])
        # Nothing half-registered: the same ids submit cleanly now.
        futures = client.submit([spec("a"), spec("b")])
        assert [f.task_id for f in futures] == ["a", "b"]
    finally:
        client.close()
        disp.close()


def test_duplicate_against_prior_submission_rejected_atomically():
    disp = LiveDispatcher()
    client = LiveClient(disp.endpoint)
    try:
        client.submit(spec("a"))
        with pytest.raises(ValueError, match="already submitted"):
            client.submit([spec("fresh"), spec("a")])
        # The fresh id from the rejected bundle was not registered
        # either — the whole bundle failed atomically.
        futures = client.submit(spec("fresh"))
        assert futures.task_id == "fresh"
    finally:
        client.close()
        disp.close()


def test_rejected_bundle_reaches_dispatcher_never():
    disp = LiveDispatcher()
    client = LiveClient(disp.endpoint)
    try:
        with pytest.raises(ValueError):
            client.submit([spec("x"), spec("x")])
        # A later valid bundle's ack on the same connection: anything
        # sent before it would have been admitted by now.
        client.submit(spec("y"))
        assert disp.stats().accepted == 1  # "y" alone
    finally:
        client.close()
        disp.close()


# ---------------------------------------------------------------- futures
def test_cancel_pending_future():
    future = TaskFuture("t-1")
    assert future.cancel() is True
    assert future.cancelled() and future.done()
    with pytest.raises(CancelledError):
        future.result(timeout=0)
    with pytest.raises(CancelledError):
        future.exception(timeout=0)


def test_cancel_is_idempotent():
    future = TaskFuture("t-1")
    assert future.cancel() is True
    assert future.cancel() is True  # like concurrent.futures: still cancelled


def test_cancel_after_result_is_too_late():
    from repro.types import TaskResult

    future = TaskFuture("t-1")
    future._fulfill(TaskResult(task_id="t-1"))
    assert future.cancel() is False
    assert not future.cancelled()
    assert future.result(timeout=0).task_id == "t-1"


def test_result_after_cancel_is_ignored():
    from repro.types import TaskResult

    future = TaskFuture("t-1")
    future.cancel()
    future._fulfill(TaskResult(task_id="t-1"))  # late notify: first wins
    with pytest.raises(CancelledError):
        future.result(timeout=0)


def test_result_timeout_raises_timeouterror():
    future = TaskFuture("t-1")
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        future.result(timeout=0.05)
    assert time.monotonic() - started < 5.0
    with pytest.raises(TimeoutError):
        future.exception(timeout=0.05)
    assert not future.done()


def test_callbacks_fire_on_cancel():
    future = TaskFuture("t-1")
    fired = []
    future.add_done_callback(lambda f: fired.append(f.cancelled()))
    future.cancel()
    assert fired == [True]
    # and immediately when already settled
    future.add_done_callback(lambda f: fired.append("late"))
    assert fired == [True, "late"]


def test_cancelled_task_still_runs_server_side():
    """Local-abandon semantics: cancel voids the claim check, not the
    work — the dispatcher still settles the task."""
    with LocalFalkon(executors=1) as falkon:
        future = falkon.client.submit(
            TaskSpec(task_id="c-1", command="sleep", args=("0.2",))
        )
        assert future.cancel() is True
        with pytest.raises(CancelledError):
            future.result(timeout=5.0)
        assert wait_until(lambda: falkon.dispatcher.stats().completed == 1, timeout=10.0)


def test_concurrent_result_waiters_all_release():
    from repro.types import TaskResult

    future = TaskFuture("t-1")
    seen = []
    threads = [
        threading.Thread(target=lambda: seen.append(future.result(timeout=10.0)))
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    future._fulfill(TaskResult(task_id="t-1"))
    for t in threads:
        t.join(timeout=10.0)
    assert len(seen) == 4
