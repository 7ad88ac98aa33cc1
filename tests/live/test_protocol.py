"""Unit tests for live-plane serialisation and connections, plus
seeded fuzzing of the frame parser: truncated, corrupted, oversized and
garbage frames must surface as :class:`ProtocolError` — never as a
hang, another exception type, or a dead server thread."""

import math
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, SecurityError
from repro.live import (
    Connection,
    LiveClient,
    LiveDispatcher,
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.live.protocol import spec_task_id, stats_from_payload
from repro.net.message import Message, MessageType
from repro.net.wire import MAX_FRAME_BYTES, V4_MAGIC, FrameReader, encode_message_v4
from repro.types import DataLocation, DataRef, TaskResult, TaskSpec


def test_task_roundtrip_full():
    task = TaskSpec(
        task_id="t1",
        command="convert",
        args=("-size", "10"),
        working_dir="/tmp",
        env=(("A", "1"), ("B", "2")),
        duration=2.5,
        reads=(DataRef("in", 100, DataLocation.LOCAL),),
        writes=(DataRef("out", 50),),
        runtime_estimate=3.0,
        stage="project",
    )
    assert task_from_dict(task_to_dict(task)) == task


def test_task_roundtrip_defaults():
    task = TaskSpec.sleep(0, task_id="s")
    assert task_from_dict(task_to_dict(task)) == task


# -- the one judge of a spec dict ---------------------------------------------------
SPEC_KEYS = ["task_id", "command", "args", "working_dir", "env", "duration",
             "reads", "writes", "runtime_estimate", "stage", "not-a-field"]
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
#: Values close to what each key takes, so near-valid specs are drawn
#: as often as junk: a data ref with each of its keys maybe missing or
#: off, env pairs, stamps and sizes at the edges of their ranges.
REFS = st.lists(st.dictionaries(
    st.sampled_from(["name", "size", "location"]),
    st.sampled_from(["x", "shared", "local", 0, -1, 2.5, None, [1]]),
    max_size=3), max_size=2)
NEAR_VALID = {
    "task_id": st.sampled_from(["t", "", 7, None, True, ["t"], {"t": 1}, 0.5]),
    "args": st.lists(st.text(max_size=3), max_size=2) | JSON_VALUES,
    "env": st.lists(st.lists(st.text(max_size=2), max_size=2) | JSON_LEAVES,
                    max_size=2),
    "duration": st.floats() | st.integers(min_value=-2, max_value=2**1100),
    "reads": REFS,
    "writes": REFS,
}
SPEC_VALUES = st.sampled_from(SPEC_KEYS).flatmap(
    lambda key: st.tuples(st.just(key),
                          (NEAR_VALID.get(key, JSON_VALUES) | JSON_VALUES)))
SPECS = (st.lists(SPEC_VALUES, max_size=6).map(dict)
         | st.lists(SPEC_VALUES, max_size=5).map(
             lambda items: dict([("task_id", "t"), *items]))
         | JSON_VALUES)


def _verdict(judge, data):
    try:
        return ("ok", judge(data))
    except Exception as exc:  # the class is the verdict
        return ("raise", type(exc))


@settings(max_examples=1500, deadline=None)
@given(SPECS)
def test_spec_task_id_refuses_exactly_what_task_from_dict_refuses(data):
    assert _verdict(spec_task_id, data) == _verdict(
        lambda d: task_from_dict(d).task_id, data)


@pytest.mark.parametrize("data, error", [
    ({"task_id": 7}, TypeError),
    ({"task_id": None, "args": ["0"]}, TypeError),
    ({"task_id": ["t"]}, TypeError),
    ({"args": ["0"]}, KeyError),
    ({"task_id": ""}, ValueError),
    ({"task_id": "t", "duration": -1.0}, ValueError),
    ({"task_id": "t", "duration": float("nan")}, ValueError),
    ({"task_id": "t", "duration": 2**1100}, OverflowError),
    ({"task_id": "t", "command": None}, TypeError),
    ({"task_id": "t", "args": 3}, TypeError),
    ({"task_id": "t", "reads": [{"name": "x", "size": 1}]}, KeyError),
    ({"task_id": "t", "reads": [{"name": "x", "size": 1, "location": "disk"}]},
     ValueError),
    (["task_id", "t"], TypeError),
    ("t", TypeError),
    (None, TypeError),
])
def test_the_judge_and_the_parser_refuse_alike(data, error):
    with pytest.raises(error):
        task_from_dict(data)
    with pytest.raises(error):
        spec_task_id(data)


@pytest.mark.parametrize("data", [
    {"task_id": "t"},
    {"task_id": "t", "args": ["0"]},
    {"task_id": "t", "args": ["0.005"], "duration": 0.005},
    {"task_id": "t", "runtime_estimate": "anything", "unknown": [1, {}]},
    {"task_id": "t", "env": [["A", "1"]], "duration": 3,
     "reads": [{"name": "in", "size": 10, "location": "local"}]},
    {"task_id": "t", "args": "ab", "env": {"k": 1}, "duration": False},
])
def test_the_judge_returns_the_parsers_id(data):
    assert spec_task_id(data) == task_from_dict(data).task_id == "t"


def test_task_spec_refuses_a_non_string_id():
    with pytest.raises(TypeError):
        TaskSpec(task_id=7)
    with pytest.raises(ValueError):
        TaskSpec(task_id="")


def test_result_roundtrip():
    result = TaskResult(
        "t1", return_code=3, stdout="out", stderr="err",
        executor_id="e9", error="boom", attempts=2,
    )
    parsed = result_from_dict(result_to_dict(result))
    assert parsed.task_id == "t1"
    assert parsed.return_code == 3
    assert parsed.stdout == "out" and parsed.stderr == "err"
    assert parsed.executor_id == "e9"
    assert parsed.error == "boom"
    assert parsed.attempts == 2


def _socket_pair():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    left = socket.create_connection(("127.0.0.1", port))
    right, _ = server.accept()
    server.close()
    return left, right


@pytest.mark.parametrize("key", [None, b"secret"])
def test_connection_roundtrip(key):
    left_sock, right_sock = _socket_pair()
    received = []
    got = threading.Event()

    def handler(msg):
        received.append(msg)
        got.set()

    left = Connection(left_sock, handler=lambda m: None, key=key, name="L").start()
    right = Connection(right_sock, handler=handler, key=key, name="R").start()
    left.send(Message(MessageType.NOTIFY, sender="test", payload={"n": 1}))
    assert got.wait(5.0)
    assert received[0].type is MessageType.NOTIFY
    assert received[0].payload == {"n": 1}
    left.close()
    right.join(5.0)
    assert right.closed


def test_connection_key_mismatch_drops_stream():
    left_sock, right_sock = _socket_pair()
    received = []
    left = Connection(left_sock, handler=lambda m: None, key=b"k1", name="L").start()
    right = Connection(right_sock, handler=received.append, key=b"k2", name="R").start()
    left.send(Message(MessageType.NOTIFY))
    right.join(5.0)
    assert right.closed
    assert received == []


def test_connection_on_close_fires_once():
    left_sock, right_sock = _socket_pair()
    closes = []
    left = Connection(left_sock, handler=lambda m: None, name="L").start()
    right = Connection(
        right_sock, handler=lambda m: None, on_close=lambda: closes.append(1), name="R"
    ).start()
    right.close()
    right.close()
    right.join(5.0)
    assert closes == [1]
    left.close()


def test_send_after_close_raises():
    left_sock, right_sock = _socket_pair()
    left = Connection(left_sock, handler=lambda m: None, name="L").start()
    left.close()
    with pytest.raises(ProtocolError):
        left.send(Message(MessageType.NOTIFY))
    right_sock.close()


# ---------------------------------------------------------------------------
# parser fuzzing
# ---------------------------------------------------------------------------
def _sample_frame(key=None) -> bytes:
    msg = Message(MessageType.NOTIFY, sender="fuzz", payload={"n": 17, "s": "abc"})
    return encode_message_v4(msg, key=key)


def _header(code: int, flags: int, body_len: int, version: int = 4) -> bytes:
    return struct.pack(">BBBBI", V4_MAGIC, version, code, flags, body_len)


def test_fuzz_mutated_signed_frames_always_raise_protocol_error():
    # Any single-byte mutation of a signed frame changes content under
    # the signature (or the signature itself): the reader must reject
    # every one of them.  Only the body-length field (bytes 4-7) is
    # spared — lengthening it just leaves the reader waiting.
    rng = random.Random(0xFA1C07)
    frame = _sample_frame(key=b"secret")
    indices = [i for i in range(len(frame)) if not 4 <= i < 8]
    for _ in range(300):
        mutated = bytearray(frame)
        mutated[rng.choice(indices)] ^= rng.randrange(1, 256)
        reader = FrameReader(key=b"secret")
        with pytest.raises(ProtocolError):
            list(reader.feed(bytes(mutated)))


def test_fuzz_mutations_never_escape_the_protocol_error_contract():
    # Unsigned frames: a mutation may survive as different-but-valid
    # JSON, but the only exception the parser is ever allowed to raise
    # is ProtocolError (UnicodeDecodeError from non-UTF-8 bytes was a
    # real escape here).
    rng = random.Random(0xB0DE)
    frame = _sample_frame()
    for _ in range(300):
        mutated = bytearray(frame)
        index = rng.randrange(len(frame))
        mutated[index] ^= rng.randrange(1, 256)
        reader = FrameReader()
        try:
            list(reader.feed(bytes(mutated)))
        except ProtocolError:
            pass


def test_truncated_frames_are_inert_and_resumable():
    frame = _sample_frame(key=b"secret")
    for cut in range(len(frame)):
        reader = FrameReader(key=b"secret")
        assert list(reader.feed(frame[:cut])) == []
        assert reader.pending_bytes == cut
        # The rest of the bytes arriving later completes the frame.
        assert len(list(reader.feed(frame[cut:]))) == 1
        assert reader.pending_bytes == 0


def test_corrupted_hmac_signature_raises_security_error():
    frame = _sample_frame(key=b"secret")
    forged = frame[:-32] + b"\0" * 32
    reader = FrameReader(key=b"secret")
    with pytest.raises(SecurityError):
        list(reader.feed(forged))


def test_oversized_advertised_length_rejected():
    reader = FrameReader()
    with pytest.raises(ProtocolError):
        list(reader.feed(_header(14, 0, MAX_FRAME_BYTES + 1) + b"junk"))


#: A well-formed REGISTER in the retired framing (4-byte length, then a
#: JSON envelope): the first byte is not 0xFB, so it is not a frame.
_LEGACY_JSON_REGISTER = (
    b'{"msg_id":1,"payload":{"executor_id":"old-exec"},'
    b'"sender":"old-exec","type":"register","v":3}'
)


def _assert_dispatcher_still_serves(dispatcher: LiveDispatcher) -> None:
    client = LiveClient(dispatcher.endpoint)
    try:
        assert client.epr is not None
    finally:
        client.close()


@pytest.mark.parametrize(
    "hostile_bytes",
    [
        _header(14, 0, MAX_FRAME_BYTES + 1) + b"junk",  # oversized header
        _header(14, 0, 12) + struct.pack(">I", 8) + b"\xff" * 8,  # invalid UTF-8 head
        _header(14, 0, 8) + struct.pack(">I", 4) + b"}{!(",  # invalid JSON head
        struct.pack(">I", len(_LEGACY_JSON_REGISTER)) + _LEGACY_JSON_REGISTER,
    ],
    ids=["oversized", "non-utf8", "bad-json", "length-prefixed-json"],
)
def test_hostile_frames_drop_session_but_not_server(hostile_bytes):
    # A garbage stream must cost its own session only: the reader
    # thread drops the connection and the dispatcher keeps serving.
    dispatcher = LiveDispatcher()
    try:
        hostile = socket.create_connection(dispatcher.address, timeout=5.0)
        hostile.sendall(hostile_bytes)
        hostile.settimeout(10.0)
        assert hostile.recv(1) == b""  # server closed us, didn't hang
        hostile.close()
        # The refused stream minted no session of either kind.
        assert dispatcher.stats().registered == 0
        assert not dispatcher._clients
        _assert_dispatcher_still_serves(dispatcher)
    finally:
        dispatcher.close()


def test_stats_from_payload_keeps_only_finite_numbers_under_string_keys():
    stats = stats_from_payload({"stats": {
        "ok": 3, "string": "nope", "nan": math.nan, "inf": math.inf,
        "bool": True, "list": [1, 2], 42: 7}})
    assert stats == {"ok": 3.0}


def test_stats_from_payload_of_all_junk_is_none():
    assert stats_from_payload({"stats": {"a": "x", "b": math.nan}}) is None
    assert stats_from_payload({"stats": "not a mapping"}) is None
    assert stats_from_payload({}) is None


def test_stats_from_payload_keeps_at_most_32_keys():
    """The junk-peer bound sits with the other guards: a 40-key field
    keeps 32, and junk entries do not use the bound up."""
    stats = stats_from_payload({"stats": {
        "junk": "x", **{f"k{i:02d}": i for i in range(40)}}})
    assert stats == {f"k{i:02d}": float(i) for i in range(32)}
