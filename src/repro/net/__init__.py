"""Communication substrate.

Three pieces:

* :mod:`repro.net.costs` — the calibrated cost model of GT4 Web-Service
  messaging used by the simulation plane (per-call CPU, security
  overheads, the Axis grow-able-array bundling term).
* :mod:`repro.net.message` — protocol message vocabulary shared by both
  planes (register / notify / get-work / result / piggy-backed ack).
* :mod:`repro.net.wire` — binary frame codec with optional HMAC
  signing, used by the live TCP plane.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WSCostModel",
    "BundlingCostModel",
    "NetworkModel",
    "Message",
    "MessageType",
    "FrameReader",
    "decode_frame",
    "encode_message_v4",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.costs": ("WSCostModel", "BundlingCostModel", "NetworkModel"),
    "repro.net.message": ("Message", "MessageType"),
    "repro.net.wire": ("FrameReader", "decode_frame", "encode_message_v4"),
})
