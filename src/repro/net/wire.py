"""Wire codec for the live TCP plane.

One framing, one version.  Every frame is::

    header   ">BBBBI" — magic 0xFB, version 4, type code, flags, body_len
    body     u32 head_len || head JSON
    trailer  32-byte HMAC-SHA256(key, header || body)  when FLAG_SIGNED

The head is ``{"sender", "msg_id", "payload"}`` as UTF-8 JSON: the
message type lives only in the header code, and the head is *not*
canonicalised (no sorted keys) — signing covers the transmitted
header+body bytes directly, so neither side re-serialises to sign or
verify.  The HMAC is our stand-in for GSISecureConversation's
per-message authentication (the paper treats security purely as
per-message overhead, §4.1).

:func:`dumps` and :func:`loads` are the live plane's one JSON codec
(``orjson``): frames, journal lines and HTTP replies all go through
them.  Strings must be valid Unicode and integers fit in 64 bits —
:func:`dumps` raises ``TypeError`` otherwise; non-finite floats are
written as ``null``, and :func:`loads` refuses ``NaN``/``Infinity``
tokens.

The codec is deliberately socket-free: :func:`encode_message_v4`
returns bytes and :class:`FrameReader` is an incremental push parser,
so the protocol is unit-testable without I/O and reusable over any
byte stream.
"""

from __future__ import annotations

import hashlib
import hmac
import re
import struct
from typing import Any, Iterator, Optional, Union

import orjson

from repro.errors import ProtocolError, SecurityError
from repro.net.message import CODE_TO_TYPE, PROTOCOL_VERSION, Message, WIRE_CODES

__all__ = [
    "MAX_FRAME_BYTES",
    "V4_MAGIC",
    "HEADER_BYTES",
    "decode_frame",
    "dumps",
    "encode_message_v4",
    "FrameReader",
    "loads",
    "replace_surrogates",
]

#: Upper bound on a single frame; a 300-task bundle of sleep tasks is
#: ~60 KB, so 64 MiB leaves ample headroom while bounding memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First byte of every frame.
V4_MAGIC = 0xFB

#: Fixed header: magic, version, message-type code, flags, body length.
_V4_HEADER = struct.Struct(">BBBBI")
#: Size of the fixed header; its byte 2 is the message-type code.
HEADER_BYTES = _V4_HEADER.size
_V4_U32 = struct.Struct(">I")
#: Body carries a trailing raw HMAC-SHA256 over header+body.
_V4_FLAG_SIGNED = 0x01
_V4_KNOWN_FLAGS = _V4_FLAG_SIGNED
_V4_DIGEST_BYTES = 32

#: The code points UTF-8 cannot carry: the surrogate range.
_SURROGATE = re.compile("[\ud800-\udfff]")


def dumps(obj: Any, sort_keys: bool = False) -> bytes:
    """Encode *obj* as compact UTF-8 JSON (see the module docstring)."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS if sort_keys else None)


def loads(data: Union[bytes, bytearray, memoryview]) -> Any:
    """Decode UTF-8 JSON; ``ValueError`` on anything else."""
    return orjson.loads(data)


def replace_surrogates(text: str) -> str:
    """*text* with every surrogate code point replaced by U+FFFD — the
    one rule for making a Python string encodable (``PROTOCOL.md``)."""
    return _SURROGATE.sub("\ufffd", text)


#: Sentinel: the buffer does not yet hold a complete frame.
_INCOMPLETE = object()


def decode_frame(frame: bytes, key: Optional[bytes] = None) -> Message:
    """Inverse of :func:`encode_message_v4` for one complete frame."""
    reader = FrameReader(key=key)
    messages = list(reader.feed(frame))
    if len(messages) != 1 or reader.pending_bytes:
        raise ProtocolError(f"expected exactly one complete frame, got {len(messages)}")
    return messages[0]


def encode_message_v4(message: Message, key: Optional[bytes] = None) -> bytes:
    """Serialise *message* into one frame (layout in the module docstring)."""
    head_bytes = dumps({"sender": message.sender, "msg_id": message.msg_id,
                        "payload": message.payload})
    body_len = _V4_U32.size + len(head_bytes)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {body_len} bytes exceeds limit {MAX_FRAME_BYTES}")
    try:
        code = WIRE_CODES[message.type]
    except KeyError:
        raise ProtocolError(f"message type {message.type!r} has no wire code") from None
    flags = _V4_FLAG_SIGNED if key is not None else 0
    frame = (_V4_HEADER.pack(V4_MAGIC, PROTOCOL_VERSION, code, flags, body_len)
             + _V4_U32.pack(len(head_bytes)) + head_bytes)
    if key is not None:
        frame += hmac.new(key, frame, hashlib.sha256).digest()
    return frame


def _decode_v4_body(code: int, body: memoryview) -> Message:
    """Parse one complete body (signature already checked) into a Message."""
    try:
        msg_type = CODE_TO_TYPE[code]
    except KeyError:
        raise ProtocolError(f"unknown wire message code {code}") from None
    if len(body) < _V4_U32.size:
        raise ProtocolError("frame body truncated before head length")
    (head_len,) = _V4_U32.unpack_from(body, 0)
    if _V4_U32.size + head_len != len(body):
        raise ProtocolError("frame head length disagrees with body length")
    try:
        head = loads(body[_V4_U32.size:])
    except ValueError as exc:
        # Invalid UTF-8, a lone surrogate escape and a NaN token all
        # raise JSONDecodeError (a ValueError): a fuzzed frame must
        # never escape the ProtocolError contract and kill the I/O loop.
        raise ProtocolError(f"frame head is not valid JSON: {exc}") from exc
    if not isinstance(head, dict):
        raise ProtocolError("frame head is not an object")
    payload = head.get("payload")
    if not isinstance(payload, dict):
        raise ProtocolError("frame head lacks a payload object")
    return Message(
        type=msg_type,
        sender=head.get("sender", ""),
        payload=payload,
        msg_id=head.get("msg_id", 0),
    )


class FrameReader:
    """Incremental frame parser.

    Feed it arbitrary byte chunks; it yields each completed frame as a
    :class:`Message`.  TCP gives no message boundaries, so the event
    loop pushes ``recv()`` chunks through one of these.

    A frame with a bad version, unknown flag bits or an oversized body
    raises :class:`ProtocolError` once, then the reader discards
    exactly the advertised body and resynchronises on the next frame
    boundary — a caller that chooses to keep the stream alive loses
    only the offending frame, never the frames behind it.  A first
    byte other than ``0xFB`` has no boundary to resynchronise on: the
    buffer is dropped and the error raised.  (The live plane drops the
    connection on any ProtocolError; resynchronisation is for
    embedders with their own policy.)
    """

    def __init__(self, key: Optional[bytes] = None) -> None:
        self._key = key
        self._buffer = bytearray()
        self._skip = 0  # bytes of a rejected body still to discard

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer) + self._skip

    def feed(self, chunk: bytes) -> Iterator[Message]:
        """Consume *chunk*; yield every message completed by it."""
        self._buffer.extend(chunk)
        while True:
            if self._skip:
                drop = min(self._skip, len(self._buffer))
                del self._buffer[:drop]
                self._skip -= drop
                if self._skip:
                    return
            if not self._buffer:
                return
            if self._buffer[0] != V4_MAGIC:
                first = self._buffer[0]
                self._buffer.clear()
                raise ProtocolError(f"not a wire frame: first byte 0x{first:02x}")
            frame = self._next_frame()
            if frame is _INCOMPLETE:
                return
            yield frame

    def _next_frame(self):
        """Parse one frame off the buffer, or ``_INCOMPLETE``."""
        if len(self._buffer) < _V4_HEADER.size:
            return _INCOMPLETE
        _magic, version, code, flags, body_len = _V4_HEADER.unpack_from(self._buffer, 0)
        trailer = _V4_DIGEST_BYTES if flags & _V4_FLAG_SIGNED else 0
        if version != PROTOCOL_VERSION or flags & ~_V4_KNOWN_FLAGS:
            # Resync past the advertised body: a corrupt header from a
            # future or broken peer must not poison the frames behind it.
            del self._buffer[: _V4_HEADER.size]
            self._skip = min(body_len, MAX_FRAME_BYTES) + trailer
            if version != PROTOCOL_VERSION:
                raise ProtocolError(f"unsupported wire version {version}")
            raise ProtocolError(f"unknown wire flags 0x{flags:02x}")
        if body_len > MAX_FRAME_BYTES:
            del self._buffer[: _V4_HEADER.size]
            self._skip = body_len + trailer
            raise ProtocolError(f"advertised frame length {body_len} exceeds limit")
        end = _V4_HEADER.size + body_len + trailer
        if len(self._buffer) < end:
            return _INCOMPLETE
        frame = bytes(self._buffer[:end])
        del self._buffer[:end]
        if self._key is not None:
            if not trailer:
                raise SecurityError("unsigned frame on a keyed channel")
            signed = frame[: _V4_HEADER.size + body_len]
            digest = hmac.new(self._key, signed, hashlib.sha256).digest()
            if not hmac.compare_digest(digest, frame[-_V4_DIGEST_BYTES:]):
                raise SecurityError("frame signature mismatch")
        elif trailer:
            raise SecurityError("signed frame on an unkeyed channel")
        body = memoryview(frame)[_V4_HEADER.size : _V4_HEADER.size + body_len]
        return _decode_v4_body(code, body)
