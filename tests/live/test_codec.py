"""The live plane's one JSON codec and the inputs it refuses.

``repro.net.wire.dumps`` refuses strings holding unpaired surrogates
and integers beyond 64 bits; ``loads`` refuses ``NaN`` / ``Infinity``
tokens and lone-surrogate escapes.  Each place such an input can come
from is handled where it enters: the client refuses the bundle before
registering anything, the executor makes task output valid Unicode,
and the journal refuses, naming file and line, the lines older commits
wrote with stdlib ``json`` that hold either.
"""

import json
import os
import re
import struct
import zlib

import pytest

from repro.errors import ProtocolError
from repro.live import LiveDispatcher, LiveClient, LocalFalkon
from repro.live.journal import Journal, recover
from repro.net.message import MessageType, PROTOCOL_VERSION, WIRE_CODES
from repro.net.wire import FrameReader, V4_MAGIC, dumps, loads, replace_surrogates
from repro.types import TaskSpec


def sleep0(task_id, **fields):
    return TaskSpec(task_id=task_id, command="sleep", args=("0",), **fields)


# ------------------------------------------------------------------ codec
def test_non_finite_floats_encode_as_null():
    assert dumps({"a": float("nan"), "b": [float("inf"), -float("inf")]}) \
        == b'{"a":null,"b":[null,null]}'


def test_surrogate_rule_replaces_each_surrogate_once():
    assert replace_surrogates("x\ud800y\udfffz") == "x\ufffdy\ufffdz"
    assert replace_surrogates("plain ünïcode") == "plain ünïcode"
    assert loads(dumps(replace_surrogates("a\udc80"))) == "a\ufffd"


def _frame(head: bytes) -> bytes:
    body = struct.pack(">I", len(head)) + head
    return struct.pack(">BBBBI", V4_MAGIC, PROTOCOL_VERSION,
                       WIRE_CODES[MessageType.HEARTBEAT], 0, len(body)) + body


@pytest.mark.parametrize("head", [
    b'{"sender":"e","msg_id":1,"payload":{"x":NaN}}',
    b'{"sender":"e","msg_id":1,"payload":{"x":Infinity}}',
    b'{"sender":"e\\ud800","msg_id":1,"payload":{}}',
    b'{"sender":"\xff","msg_id":1,"payload":{}}',
])
def test_frame_heads_the_codec_refuses_raise_protocol_error(head):
    with pytest.raises(ProtocolError, match="not valid JSON"):
        list(FrameReader().feed(_frame(head)))


# ----------------------------------------------------------------- client
@pytest.mark.parametrize("bad", [
    TaskSpec(task_id="bad-\ud800", command="sleep", args=("0",)),
    TaskSpec(task_id="bad-big", command="sleep", args=("0",), duration=2**70),
])
def test_unencodable_bundle_registers_nothing(bad):
    disp = LiveDispatcher()
    # bundle_size 2 puts the bad task in the second SUBMIT: the first
    # must not be sent, nor its futures registered, either.
    client = LiveClient(disp.endpoint, bundle_size=2)
    try:
        with pytest.raises(ValueError, match="cannot be encoded") as excinfo:
            client.submit([sleep0("ok-1"), sleep0("ok-2"), bad])
        assert repr(bad.task_id) in str(excinfo.value)
        assert client._futures == {}
        assert disp.stats().accepted == 0
        # The corrected id, and the good ones, submit cleanly now.
        futures = client.submit([sleep0("ok-1"), sleep0("ok-2"), sleep0("bad-fixed")])
        assert [f.task_id for f in futures] == ["ok-1", "ok-2", "bad-fixed"]
    finally:
        client.close()
        disp.close()


# --------------------------------------------------------------- executor
def _surrogate_output():
    return "x\ud800y"


def _surrogate_error():
    raise RuntimeError("bad \udcff byte")


def test_task_output_that_is_not_valid_unicode_still_settles():
    registry = {"surrogate-out": _surrogate_output, "surrogate-err": _surrogate_error}
    with LocalFalkon(executors=1, python_registry=registry, max_retries=2) as falkon:
        out, err, after = falkon.run([
            TaskSpec(task_id="out", command="python:surrogate-out"),
            TaskSpec(task_id="err", command="python:surrogate-err"),
            sleep0("after"),
        ], timeout=30)
        stats = falkon.dispatcher.stats()
    assert out.ok and out.stdout == "x\ufffdy" and out.attempts == 1
    assert not err.ok and err.error == "RuntimeError: bad \ufffd byte"
    assert after.ok  # the executor kept serving
    assert stats.completed == 2 and stats.retries == 2  # err's own retries only


# ---------------------------------------------------------------- journal
def parent_line(rows) -> bytes:
    """A journal line exactly as commits before the C codec wrote it:
    stdlib ``json``, ASCII escapes, CRC over the str's UTF-8."""
    body = json.dumps(rows, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n".encode()


def _legacy_tail(directory, nan=True):
    estimate = float("nan") if nan else 0.5
    tail = b"".join([
        parent_line([
            {"k": "submit", "id": "a", "spec": {"args": ["0"],
                                                "runtime_estimate": estimate},
             "client": "c"},
            {"k": "submit", "id": "b", "spec": {"command": "python:x"}, "client": "c"}]),
        parent_line([{"k": "dispatch", "id": "a", "attempt": 1, "executor": "e"},
                     {"k": "dispatch", "id": "b", "attempt": 1, "executor": "e"}]),
        parent_line([{"k": "result", "id": "b", "outcome": "ok",
                      "result": {"stdout": "x\ud800y"}}]),
    ])
    assert b"\\ud800" in tail and (b"NaN" in tail) == nan
    path = os.path.join(directory, "journal.jsonl")
    with open(path, "wb") as fh:
        fh.write(tail)
    return path, tail


@pytest.mark.parametrize("nan, line", [(True, 1), (False, 3)])
def test_legacy_lines_are_refused_naming_file_and_line(tmp_path, nan, line):
    """A CRC-valid line the codec refuses — a ``NaN`` token (line 1),
    a lone-surrogate escape (line 3) — fails the boot loudly with the
    file and line to look at, and is left on disk as it was."""
    path, tail = _legacy_tail(tmp_path, nan=nan)
    where = rf"^{re.escape(path)} line {line}: journal line with a valid CRC"
    with pytest.raises(ValueError, match=where):
        recover(tmp_path)
    with pytest.raises(ValueError, match=where):
        Journal(tmp_path, prune_settled=True)
    with open(path, "rb") as fh:
        assert fh.read() == tail  # a CRC-valid line is never cut


def test_crc_valid_line_that_does_not_decode_fails_loudly(tmp_path):
    good = parent_line({"k": "submit", "id": "a", "spec": {}, "client": "c"})
    body = b'{"k":"submit","id":'
    bad = b"%08x %b\n" % (zlib.crc32(body), body)
    path = tmp_path / "journal.jsonl"
    path.write_bytes(good + bad)
    where = rf"^{re.escape(str(path))} line 2: journal line with a valid CRC"
    with pytest.raises(ValueError, match=where):
        recover(tmp_path)
    with pytest.raises(ValueError, match=where):
        Journal(tmp_path)
    assert path.read_bytes() == good + bad
