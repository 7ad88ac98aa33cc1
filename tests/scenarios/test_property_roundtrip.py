"""Seeded property tests for the two persistence codecs.

Stdlib-only fuzzing (``random.Random`` with fixed seeds — no hypothesis
dependency): generate adversarial specs/results/payloads and assert the
round-trip laws the journal and the wire rely on:

* ``parse_journal_line(journal_line(x)) == x`` for records and batches,
  and any single-byte corruption is detected (CRC), never
  mis-parsed.
* ``strip_defaults`` + the wire parsers reconstruct the exact
  ``TaskSpec`` / ``TaskResult``, including unicode, large blobs, and
  defaults-stripped forms.
* ``FrameReader`` re-assembles signed frames fed in arbitrary chunkings,
  rejects any tampered signed body, and resynchronises past rejected
  headers.

The sparse wire form adds two ``hypothesis`` laws on generated specs and
results: ``from_dict(to_dict(x)) == x`` with no default ever emitted,
and the all-keys dict of older writers decodes to the same object.
"""

import dataclasses
import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SecurityError
from repro.live.journal import (
    RESULT_DEFAULTS,
    SPEC_DEFAULTS,
    journal_line,
    parse_journal_line,
    strip_defaults,
)
from repro.live.protocol import (
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.net.message import Message, MessageType, WIRE_CODES
from repro.net.wire import (
    MAX_FRAME_BYTES,
    V4_MAGIC,
    FrameReader,
    decode_frame,
    encode_message_v4,
)
from repro.types import DataLocation, DataRef, TaskResult, TaskSpec

ROUNDS = 60

# Deliberately nasty strings: unicode planes, JSON metacharacters,
# newlines (the journal is line-framed), and long runs.
NASTY = [
    "",
    "plain",
    "späce-ü-ß",
    "日本語のタスク",
    "emoji-🧪🔥",
    'quote-"-and-\\backslash',
    "newline-\n-embedded",
    "tab-\t-and-\r",
    "null-\x00-byte" if False else "ctrl-\x1f",
    "x" * 2048,
]


def rand_text(rng: random.Random) -> str:
    base = rng.choice(NASTY)
    if rng.random() < 0.3:
        base += "".join(chr(rng.randrange(32, 0x2FA0)) for _ in range(rng.randrange(0, 16)))
    return base


def rand_spec(rng: random.Random) -> TaskSpec:
    refs = tuple(
        DataRef(f"ref-{i}-{rand_text(rng)[:8]}", rng.randrange(0, 10**9),
                rng.choice(list(DataLocation)))
        for i in range(rng.randrange(0, 3))
    )
    return TaskSpec(
        task_id=f"t-{rng.randrange(10**9)}",
        command=rng.choice(["sleep", "echo", "python:job", rand_text(rng) or "x"]),
        args=tuple(rand_text(rng) for _ in range(rng.randrange(0, 4))),
        working_dir=rng.choice([".", "/tmp", "rel/dir", rand_text(rng) or "."]),
        env=tuple((f"K{i}", rand_text(rng)) for i in range(rng.randrange(0, 3))),
        duration=rng.choice([0.0, rng.random() * 100]),
        reads=refs,
        writes=refs[:1],
        runtime_estimate=rng.choice([None, rng.random() * 10]),
        stage=rng.choice(["", "stage-1", rand_text(rng)]),
    )


def rand_result(rng: random.Random):
    from repro.types import TaskResult

    return TaskResult(
        task_id=f"t-{rng.randrange(10**9)}",
        return_code=rng.choice([0, 1, -9, 137]),
        stdout=rand_text(rng),
        stderr=rand_text(rng),
        executor_id=rng.choice(["", f"exec-{rng.randrange(100):04d}"]),
        error=rng.choice(["", rand_text(rng)]),
        attempts=rng.randrange(1, 20),
    )


# ---------------------------------------------------------------------------
# journal record codec
# ---------------------------------------------------------------------------
def test_journal_line_round_trips_single_records_and_batches():
    rng = random.Random(0xFA15E)
    for _ in range(ROUNDS):
        record = {
            "kind": rng.choice(["submit", "result", "acked", "dlq"]),
            "task_id": rand_text(rng),
            "n": rng.randrange(-(10**9), 10**9),
            "nested": {"unicode": rand_text(rng), "list": [1, None, True]},
        }
        assert parse_journal_line(journal_line(record)) == [record]
        batch = [dict(record, i=i) for i in range(rng.randrange(1, 6))]
        assert parse_journal_line(journal_line(batch)) == batch


def test_journal_line_detects_any_single_character_corruption():
    rng = random.Random(0xC0FFEE)
    line = journal_line({"kind": "submit", "task_id": "t-ünïcode-1", "a": [1, 2]})
    for _ in range(ROUNDS):
        pos = rng.randrange(len(line))
        flipped = (line[pos] + rng.randrange(1, 64)) % 0x7F or 0x21
        corrupted = line[:pos] + bytes([flipped]) + line[pos + 1:]
        parsed = parse_journal_line(corrupted)
        # Either rejected outright, or (CRC-digit flip that still
        # matches? impossible: body unchanged ⇒ crc mismatch) — so:
        assert parsed is None or corrupted == line


def test_journal_line_rejects_torn_and_non_record_lines():
    line = journal_line({"kind": "submit"})
    for torn in (line[: len(line) // 2], line[9:], b"", b"zz", b"0" * 8):
        assert parse_journal_line(torn) is None
    # Valid CRC over a non-object body must not produce records.
    import zlib

    body = json.dumps(["not-a-dict", 3]).encode()
    assert parse_journal_line(b"%08x %b" % (zlib.crc32(body), body)) is None


def test_defaults_stripped_specs_round_trip_exactly():
    rng = random.Random(0x5EED)
    for _ in range(ROUNDS):
        spec = rand_spec(rng)
        wire = strip_defaults(task_to_dict(spec), SPEC_DEFAULTS)
        via_journal = parse_journal_line(journal_line(wire))[0]
        assert task_from_dict(via_journal) == spec


def test_defaults_stripped_results_round_trip_exactly():
    rng = random.Random(0xBEEF)
    for _ in range(ROUNDS):
        result = rand_result(rng)
        wire = strip_defaults(result_to_dict(result), RESULT_DEFAULTS)
        parsed = result_from_dict(parse_journal_line(journal_line(wire))[0])
        # timeline is dispatcher-side state, excluded from the codec
        assert result_to_dict(parsed) == result_to_dict(result)


# ---------------------------------------------------------------------------
# the sparse wire form
# ---------------------------------------------------------------------------
_text = st.text(max_size=12)
_refs = st.lists(
    st.builds(DataRef, _text, st.integers(0, 10**9),
              st.sampled_from(list(DataLocation))),
    max_size=2).map(tuple)
_seconds = st.floats(0, 1e6, allow_nan=False)
#: Each field draws its dataclass default about as often as anything else.
_specs = st.builds(
    TaskSpec,
    task_id=st.text(min_size=1, max_size=12),
    command=st.sampled_from(["sleep", "echo", "python:job", "späce-ü", "日本語"]),
    args=st.lists(_text, max_size=3).map(tuple),
    working_dir=st.sampled_from([".", "/tmp", "rel/dïr"]),
    env=st.lists(st.tuples(_text, _text), max_size=2).map(tuple),
    duration=st.one_of(st.just(0.0), _seconds),
    reads=_refs,
    writes=_refs,
    runtime_estimate=st.one_of(st.none(), st.just(0.0), _seconds),
    stage=st.sampled_from(["", "stage-1", "étape"]),
)
_results = st.builds(
    TaskResult,
    task_id=st.text(min_size=1, max_size=12),
    return_code=st.sampled_from([0, 1, -9, 137]),
    stdout=_text,
    stderr=_text,
    executor_id=st.sampled_from(["", "exec-0001"]),
    error=st.sampled_from(["", "boom", "ünïcode"]),
    attempts=st.integers(1, 20),
)

def _dense_ref(ref: DataRef) -> dict:
    return {"name": ref.name, "size": ref.size_bytes,
            "location": ref.location.value}


def dense_spec(spec: TaskSpec) -> dict:
    """The wire dict older writers emitted: every key, always."""
    return {
        "task_id": spec.task_id, "command": spec.command,
        "args": list(spec.args), "working_dir": spec.working_dir,
        "env": [list(pair) for pair in spec.env], "duration": spec.duration,
        "reads": [_dense_ref(r) for r in spec.reads],
        "writes": [_dense_ref(r) for r in spec.writes],
        "runtime_estimate": spec.runtime_estimate, "stage": spec.stage,
    }


def dense_result(result: TaskResult) -> dict:
    return {
        "task_id": result.task_id, "return_code": result.return_code,
        "stdout": result.stdout, "stderr": result.stderr,
        "executor_id": result.executor_id, "error": result.error,
        "attempts": result.attempts,
    }


def assert_sparse(wire: dict, obj, cls) -> None:
    """*wire* names exactly the fields of *obj* that differ from the
    dataclass defaults (plus ``task_id``, which has none)."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    differing = {name for name, default in defaults.items()
                 if getattr(obj, name) != default}
    assert set(wire) == differing | {"task_id"}


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_sparse_spec_round_trips_and_no_default_travels(spec):
    wire = task_to_dict(spec)
    assert_sparse(wire, spec, TaskSpec)
    assert task_from_dict(json.loads(json.dumps(wire))) == spec
    assert task_from_dict(dense_spec(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(_results)
def test_sparse_result_round_trips_and_no_default_travels(result):
    wire = result_to_dict(result)
    assert_sparse(wire, result, TaskResult)
    # The timeline is dispatcher-side state, excluded from the codec.
    timeline = result.timeline
    assert result_from_dict(json.loads(json.dumps(wire)), timeline) == result
    assert result_from_dict(dense_result(result), timeline) == result


def test_decoders_reject_non_objects_and_missing_ids():
    """What recovery catches: ``TypeError`` for a value that is not a
    wire object at all, ``KeyError`` for one without its id."""
    for decode in (task_from_dict, result_from_dict):
        for junk in ("corrupt", ["task_id"], None, 7):
            with pytest.raises(TypeError):
                decode(junk)
        with pytest.raises(KeyError):
            decode({"command": "sleep"})


# ---------------------------------------------------------------------------
# wire frame codec
# ---------------------------------------------------------------------------
KEY = b"property-test-shared-key"


def rand_message(rng: random.Random) -> Message:
    msg_type = rng.choice(list(WIRE_CODES))
    payload: dict = {"s": rand_text(rng), "n": rng.randrange(-(10**6), 10**6)}
    if rng.random() < 0.5:
        payload["tasks"] = [task_to_dict(rand_spec(rng))
                            for _ in range(rng.randrange(1, 3))]
    return Message(msg_type, sender=f"peer-{rng.randrange(100)}",
                   payload=payload, msg_id=rng.randrange(1, 10**9))


def test_signed_frames_round_trip_through_chunked_reader():
    rng = random.Random(0xF00D)
    messages = [rand_message(rng) for _ in range(20)]
    stream = b"".join(encode_message_v4(m, key=KEY) for m in messages)
    for _ in range(10):
        reader = FrameReader(key=KEY)
        out = []
        i = 0
        while i < len(stream):
            step = rng.randrange(1, 97)
            out.extend(reader.feed(stream[i : i + step]))
            i += step
        assert out == messages
        assert reader.pending_bytes == 0


def test_unsigned_frames_round_trip():
    rng = random.Random(0xD00D)
    for _ in range(ROUNDS):
        message = rand_message(rng)
        message.payload["f"] = rng.random()
        assert decode_frame(encode_message_v4(message)) == message


def test_tampered_signed_body_is_rejected():
    rng = random.Random(0xBAD)
    message = Message(MessageType.WORK, sender="disp",
                      payload={"task_id": "t-42", "secret": "ünïcode"})
    frame = encode_message_v4(message, key=KEY)
    for _ in range(ROUNDS):
        pos = rng.randrange(8, len(frame))  # keep the header intact
        delta = rng.randrange(1, 255)
        tampered = frame[:pos] + bytes([(frame[pos] + delta) % 256]) + frame[pos + 1 :]
        with pytest.raises(SecurityError):
            list(FrameReader(key=KEY).feed(tampered))


def test_wrong_key_never_verifies():
    frame = encode_message_v4(Message(MessageType.NOTIFY, payload={"a": 1}), key=KEY)
    reader = FrameReader(key=b"some-other-key")
    with pytest.raises(SecurityError):
        list(reader.feed(frame))


def test_v4_frames_reassemble_from_one_byte_chunks():
    rng = random.Random(0xB17E)
    messages = [rand_message(rng) for _ in range(12)]
    stream = b"".join(encode_message_v4(m, key=KEY) for m in messages)
    reader = FrameReader(key=KEY)
    out = []
    for i in range(len(stream)):  # worst-case TCP fragmentation: 1 byte/feed
        out.extend(reader.feed(stream[i : i + 1]))
    assert out == messages
    assert reader.pending_bytes == 0


def test_v4_header_corruption_never_yields_a_forged_message():
    rng = random.Random(0xDEAD)
    message = rand_message(rng)
    frame = encode_message_v4(message, key=KEY)
    for _ in range(ROUNDS * 2):
        pos = rng.randrange(len(frame))
        delta = rng.randrange(1, 255)
        corrupted = frame[:pos] + bytes([(frame[pos] + delta) % 256]) + frame[pos + 1 :]
        reader = FrameReader(key=KEY)
        try:
            out = list(reader.feed(corrupted))
        except Exception:
            continue  # ProtocolError or SecurityError: rejected loudly, fine
        # No exception: the reader may be waiting for more bytes of a
        # (corrupt) longer frame, but it must never deliver a message
        # that differs from what was signed.
        assert all(m == message for m in out)
        assert not out or corrupted == frame


def test_v4_wrong_key_and_unsigned_on_keyed_channel_rejected():
    message = rand_message(random.Random(0x4242))
    signed = encode_message_v4(message, key=KEY)
    with pytest.raises(SecurityError):
        list(FrameReader(key=b"not-the-key").feed(signed))
    unsigned = encode_message_v4(message)
    with pytest.raises(SecurityError):
        list(FrameReader(key=KEY).feed(unsigned))
    # And the inverse: a signed frame on an unkeyed channel is an error,
    # not silently-trusted data.
    with pytest.raises(SecurityError):
        list(FrameReader().feed(signed))


def test_v4_oversized_frame_resyncs_at_the_next_boundary():
    oversized = MAX_FRAME_BYTES + 1
    bad_header = struct.pack(">BBBBI", V4_MAGIC, 4, 1, 0, oversized)
    reader = FrameReader()
    with pytest.raises(Exception):
        list(reader.feed(bad_header))
    # Discard exactly the advertised body (fed in reused 8 MiB chunks so
    # the test never holds the full 64 MiB) ...
    junk = bytes(8 * 1024 * 1024)
    remaining = oversized
    while remaining > 0:
        chunk = junk if remaining >= len(junk) else junk[:remaining]
        assert list(reader.feed(chunk)) == []
        remaining -= len(chunk)
    # ... then the very next frame parses cleanly.
    message = rand_message(random.Random(0x0F))
    assert list(reader.feed(encode_message_v4(message))) == [message]
    assert reader.pending_bytes == 0


def _assert_flags_rejected_then_resynced(flags: int) -> None:
    body = b"\x00" * 10
    bad = struct.pack(">BBBBI", V4_MAGIC, 4, 1, flags, len(body)) + body
    good = rand_message(random.Random(0x77))
    reader = FrameReader()
    with pytest.raises(ProtocolError, match="unknown wire flags"):
        list(reader.feed(bad + encode_message_v4(good)))
    assert list(reader.feed(b"")) == [good]


def test_v4_unknown_flags_resync_preserves_following_frames():
    _assert_flags_rejected_then_resynced(0x80)


def test_v4_retired_blob_flag_is_an_unknown_flag():
    _assert_flags_rejected_then_resynced(0x02)
