"""Bytes on the wire per task, pinned on the three hot frames.

Every byte of a frame is serialiser CPU at both ends (the paper's
ceiling, §3.4), so the frames are budgeted like memory is
(``test_task_memory``).  The frames are the ones the real client,
dispatcher and executor put on their sockets during a 500-task sleep-0
run at pipeline depth 32, captured at ``Connection.send_encoded``; the
two things in them that vary run to run — the process-wide ``msg_id``
and the executor-measured ``exec.seconds`` — are pinned before
counting, so the byte counts repeat exactly and the gate can fail
without flaking.

Readings (bytes per task; budget = 1.1 x the last column):

===========  ==================  ===========  ================
frame        all-keys wire form  sparse form  no trace context
===========  ==================  ===========  ================
SUBMIT x500  179.1               61.1         61.1
WORK x32     274.1               156.1        84.1
RESULT x32   269.3               205.3        133.3
===========  ==================  ===========  ================

The all-keys column is ``task_to_dict`` / ``result_to_dict`` emitting
every field, defaults included; the sparse column omits defaults but
still carries a ``{"tid", "sid"}`` trace context on every WORK entry
and its echo on every RESULT entry; the last column is the attempt
echo alone.

The wake path is pinned by frame count: a bundle arriving at idle
executors costs one pushed WORK, where the paper's hybrid exchange paid
a NOTIFY per idle executor, their GET_WORKs, and a NO_WORK for every
one that lost the race.
"""

from collections import Counter

from repro.live import LocalFalkon
from repro.live.protocol import Connection
from repro.net.message import CODE_TO_TYPE, Message, MessageType
from repro.net.wire import decode_frame, encode_message_v4
from repro.types import TaskSpec

TASKS = 500
DEPTH = 32

#: 1.1 x the no-trace-context readings above, in bytes per task.
SUBMIT_BUDGET = 67.2
WORK_BUDGET = 92.5
RESULT_BUDGET = 146.6


def pinned_size(message: Message) -> int:
    """Frame bytes with the run-dependent fields pinned."""
    for entry in message.payload.get("results", ()):
        entry["exec"]["seconds"] = 1.25e-05
    return len(encode_message_v4(
        Message(message.type, message.sender, message.payload, msg_id=0)))


def test_hot_frames_stay_within_their_byte_budgets(monkeypatch):
    frames = []
    send_encoded = Connection.send_encoded

    def recording(self, frame):
        frames.append(frame)
        send_encoded(self, frame)

    monkeypatch.setattr(Connection, "send_encoded", recording)
    tasks = [TaskSpec.sleep(0, task_id=f"burst_sleep0-0123456789ab-{i:07d}")
             for i in range(TASKS)]
    with LocalFalkon(executors=1, pipeline_depth=DEPTH,
                     bundle_size=TASKS) as falkon:
        assert all(r.ok for r in falkon.run(tasks, timeout=60))

    by_type: dict[MessageType, list[Message]] = {}
    for frame in frames:
        message = decode_frame(frame)
        by_type.setdefault(message.type, []).append(message)

    (submit,) = by_type[MessageType.SUBMIT]
    assert len(submit.payload["tasks"]) == TASKS
    assert submit.payload["tasks"][0] == {
        "task_id": tasks[0].task_id, "args": ["0"]}
    # Full-depth frames only: the first push and every piggy-backed ack
    # carry 32 entries; a RESULT batch split by the executor's 20 ms
    # flush window is skipped, not counted.
    work = next(m for m in by_type[MessageType.WORK]
                if len(m.payload["tasks"]) == DEPTH)
    result = next(m for m in by_type[MessageType.RESULT]
                  if len(m.payload["results"]) == DEPTH)
    assert set(result.payload["results"][0]["result"]) == {
        "task_id", "executor_id"}

    assert pinned_size(submit) / TASKS <= SUBMIT_BUDGET
    assert pinned_size(work) / DEPTH <= WORK_BUDGET
    assert pinned_size(result) / DEPTH <= RESULT_BUDGET


def test_bundles_into_idle_executors_cost_one_work_frame_each(monkeypatch):
    """Four idle depth-32 executors, three 5-task bundles (the
    ``paced_durable`` steady state): exactly one WORK per bundle and no
    NOTIFY / GET_WORK / NO_WORK.  The NOTIFY → GET_WORK exchange cost
    3 / 12 / 12 / 9 of them."""
    sent = Counter()
    transmit = Connection._transmit

    def counting(self, frame):
        sent[CODE_TO_TYPE[frame[2]]] += 1
        transmit(self, frame)

    monkeypatch.setattr(Connection, "_transmit", counting)
    with LocalFalkon(executors=4, pipeline_depth=DEPTH) as falkon:
        sent.clear()
        for bundle in range(3):
            tasks = [TaskSpec.sleep(0, task_id=f"wake-{bundle}-{i}")
                     for i in range(5)]
            assert all(r.ok for r in falkon.run(tasks, timeout=30))
    wake_frames = {kind: sent[kind] for kind in (
        MessageType.WORK, MessageType.NOTIFY, MessageType.GET_WORK,
        MessageType.NO_WORK)}
    assert wake_frames == {MessageType.WORK: 3, MessageType.NOTIFY: 0,
                           MessageType.GET_WORK: 0, MessageType.NO_WORK: 0}
