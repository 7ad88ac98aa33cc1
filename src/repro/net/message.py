"""Protocol message vocabulary.

Message types follow Figure 2's exchange sequence:

=================  ====================================================
{1,2}  SUBMIT      client → dispatcher (bundle of tasks) + SUBMIT_ACK
{3}    NOTIFY      dispatcher → executor: work available (push half)
{4}    GET_WORK    executor → dispatcher (pull half)
{5}    WORK        dispatcher → executor: the task(s)
{6}    RESULT      executor → dispatcher: return code + outputs
{7}    RESULT_ACK  dispatcher → executor; may piggy-back the next task
{8}    CLIENT_NOTIFY  dispatcher → client: results available
{9,10} GET_RESULTS client → dispatcher + RESULTS reply
=================  ====================================================

plus executor lifecycle (REGISTER / REGISTER_ACK / DEREGISTER), the
factory/instance pattern (CREATE_INSTANCE / INSTANCE_CREATED /
DESTROY_INSTANCE) and the provisioner's state poll (STATUS / STATUS_REPLY).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["PROTOCOL_VERSION", "MessageType", "Message", "WIRE_CODES", "CODE_TO_TYPE"]

#: Wire protocol version, carried in byte 1 of every frame header
#: (``docs/PROTOCOL.md``).  A frame with any other version is rejected.
PROTOCOL_VERSION = 4

_msg_counter = itertools.count(1)


class MessageType(Enum):
    """All message kinds exchanged between Falkon components."""

    # factory/instance pattern (§3.2)
    CREATE_INSTANCE = "create-instance"
    INSTANCE_CREATED = "instance-created"
    DESTROY_INSTANCE = "destroy-instance"

    # client <-> dispatcher
    SUBMIT = "submit"
    SUBMIT_ACK = "submit-ack"
    #: Admission control (overload): the dispatcher's bounded queue is
    #: full; the payload carries a ``retry_after`` hint in seconds.
    SUBMIT_REJECT = "submit-reject"
    CLIENT_NOTIFY = "client-notify"
    GET_RESULTS = "get-results"
    RESULTS = "results"

    # executor lifecycle
    REGISTER = "register"
    REGISTER_ACK = "register-ack"
    DEREGISTER = "deregister"
    HEARTBEAT = "heartbeat"

    # dispatcher <-> executor work cycle
    NOTIFY = "notify"
    GET_WORK = "get-work"
    WORK = "work"
    NO_WORK = "no-work"
    RESULT = "result"
    RESULT_ACK = "result-ack"

    # provisioner poll {POLL}
    STATUS = "status"
    STATUS_REPLY = "status-reply"

    # dispatcher <-> dispatcher federation (gated on the "steal" capability)
    #: An idle shard asks a deeper peer for up to ``want`` queued tasks.
    STEAL_REQUEST = "steal-request"
    #: The donor's answer: ``tasks`` entries (task + attempt echo),
    #: possibly empty when the donor has no surplus.
    STEAL_GRANT = "steal-grant"

    # transport control
    SHUTDOWN = "shutdown"
    ERROR = "error"


#: Stable numeric codes for the frame header.  Codes are part of the
#: protocol: once assigned they are never renumbered, and new message
#: kinds append at the end.  A frame whose code is absent here is a
#: :class:`repro.errors.ProtocolError` at the decoder.
WIRE_CODES: dict[MessageType, int] = {
    MessageType.CREATE_INSTANCE: 1,
    MessageType.INSTANCE_CREATED: 2,
    MessageType.DESTROY_INSTANCE: 3,
    MessageType.SUBMIT: 4,
    MessageType.SUBMIT_ACK: 5,
    MessageType.SUBMIT_REJECT: 6,
    MessageType.CLIENT_NOTIFY: 7,
    MessageType.GET_RESULTS: 8,
    MessageType.RESULTS: 9,
    MessageType.REGISTER: 10,
    MessageType.REGISTER_ACK: 11,
    MessageType.DEREGISTER: 12,
    MessageType.HEARTBEAT: 13,
    MessageType.NOTIFY: 14,
    MessageType.GET_WORK: 15,
    MessageType.WORK: 16,
    MessageType.NO_WORK: 17,
    MessageType.RESULT: 18,
    MessageType.RESULT_ACK: 19,
    MessageType.STATUS: 20,
    MessageType.STATUS_REPLY: 21,
    MessageType.STEAL_REQUEST: 22,
    MessageType.STEAL_GRANT: 23,
    MessageType.SHUTDOWN: 24,
    MessageType.ERROR: 25,
}

#: Inverse of :data:`WIRE_CODES` (decoder side).
CODE_TO_TYPE: dict[int, MessageType] = {code: t for t, code in WIRE_CODES.items()}


@dataclass
class Message:
    """One protocol message.

    ``payload`` is a JSON-serialisable dict; the wire codec
    (:mod:`repro.net.wire`) handles framing and signing.
    """

    type: MessageType
    sender: str = ""
    payload: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
