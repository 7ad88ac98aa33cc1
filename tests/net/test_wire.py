"""Unit and property tests for the wire codec and message vocabulary."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, SecurityError
from repro.net import FrameReader, Message, MessageType, decode_frame, encode_message_v4
from repro.net.wire import MAX_FRAME_BYTES, V4_MAGIC

KEY = b"shared-secret"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**31), 2**31) | st.text(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)
payloads = st.dictionaries(st.text(max_size=10), json_values, max_size=4)


def _msg(payload, mtype=MessageType.SUBMIT) -> Message:
    return Message(mtype, sender="peer-1", payload=payload)


def _header(code: int, flags: int, body_len: int, version: int = 4) -> bytes:
    return struct.pack(">BBBBI", V4_MAGIC, version, code, flags, body_len)


def test_roundtrip_plain():
    msg = _msg({"tasks": [1, 2, 3]})
    assert decode_frame(encode_message_v4(msg)) == msg


def test_roundtrip_signed():
    msg = _msg({"hello": "world"})
    assert decode_frame(encode_message_v4(msg, key=KEY), key=KEY) == msg


def test_tampered_signed_frame_rejected():
    frame = bytearray(encode_message_v4(_msg({"amount": 1}), key=KEY))
    # Flip a byte inside the JSON head (before the 32-byte HMAC trailer).
    frame[-34] ^= 0x01
    with pytest.raises(SecurityError):
        decode_frame(bytes(frame), key=KEY)


def test_wrong_key_rejected():
    frame = encode_message_v4(_msg({"x": 1}), key=KEY)
    with pytest.raises(SecurityError):
        decode_frame(frame, key=b"other-key")


def test_frame_reader_handles_fragmentation():
    messages = [_msg({"n": i}) for i in range(5)]
    stream = b"".join(encode_message_v4(m) for m in messages)
    reader = FrameReader()
    got = []
    # Feed one byte at a time: worst-case TCP fragmentation.
    for i in range(len(stream)):
        got.extend(reader.feed(stream[i : i + 1]))
    assert got == messages
    assert reader.pending_bytes == 0


def test_frame_reader_handles_coalescing():
    messages = [_msg({"n": i}) for i in range(10)]
    stream = b"".join(encode_message_v4(m) for m in messages)
    assert list(FrameReader().feed(stream)) == messages


def test_frame_reader_rejects_oversized_header():
    reader = FrameReader()
    with pytest.raises(ProtocolError):
        list(reader.feed(_header(4, 0, 2**31)))


def test_frame_reader_oversized_frame_does_not_poison_stream():
    before, after = _msg({"n": "before"}), _msg({"n": "after"})
    oversized_len = MAX_FRAME_BYTES + 1
    reader = FrameReader()
    assert list(reader.feed(encode_message_v4(before))) == [before]
    with pytest.raises(ProtocolError):
        list(reader.feed(_header(4, 0, oversized_len)))
    # Stream the advertised-but-bogus body in chunks, with the next
    # good frame appended mid-way: the reader must discard exactly the
    # oversized body, then resynchronise and parse the good frame.
    junk = b"x" * oversized_len
    got = []
    got.extend(reader.feed(junk[: oversized_len // 2]))
    got.extend(reader.feed(junk[oversized_len // 2 :] + encode_message_v4(after)))
    assert got == [after]
    assert reader.pending_bytes == 0


def test_frame_reader_rejects_bad_json():
    head = b"{not json"
    body = struct.pack(">I", len(head)) + head
    with pytest.raises(ProtocolError):
        list(FrameReader().feed(_header(4, 0, len(body)) + body))


def test_length_prefixed_json_frame_is_rejected():
    # The retired framing: 4-byte big-endian length, then a JSON body.
    body = b'{"type":"register","payload":{}}'
    reader = FrameReader()
    with pytest.raises(ProtocolError):
        list(reader.feed(struct.pack(">I", len(body)) + body))
    assert reader.pending_bytes == 0  # nothing to resynchronise on


def test_decode_frame_rejects_partial():
    frame = encode_message_v4(_msg({"a": 1}))
    with pytest.raises(ProtocolError):
        decode_frame(frame[:-1])
    with pytest.raises(ProtocolError):
        decode_frame(frame + frame)


@given(payloads)
def test_roundtrip_property_plain(payload):
    msg = _msg(payload)
    assert decode_frame(encode_message_v4(msg)) == msg


@given(payloads)
def test_roundtrip_property_signed(payload):
    msg = _msg(payload)
    assert decode_frame(encode_message_v4(msg, key=KEY), key=KEY) == msg


@given(st.lists(payloads, min_size=1, max_size=8), st.integers(1, 64))
def test_fragmented_stream_property(payload_list, chunk):
    messages = [_msg(p) for p in payload_list]
    stream = b"".join(encode_message_v4(m) for m in messages)
    reader = FrameReader()
    got = []
    for i in range(0, len(stream), chunk):
        got.extend(reader.feed(stream[i : i + chunk]))
    assert got == messages


def test_message_roundtrip():
    msg = Message(MessageType.SUBMIT, sender="client-1", payload={"tasks": []})
    parsed = decode_frame(encode_message_v4(msg))
    assert parsed.type is MessageType.SUBMIT
    assert parsed.sender == "client-1"
    assert parsed.msg_id == msg.msg_id


def test_message_ids_increase():
    a = Message(MessageType.NOTIFY)
    b = Message(MessageType.NOTIFY)
    assert b.msg_id > a.msg_id


def test_unknown_type_code_rejected():
    frame = bytearray(encode_message_v4(Message(MessageType.NOTIFY)))
    frame[2] = 0xEE
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))
