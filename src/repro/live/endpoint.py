"""Unified addressing for the live plane.

Every live component used to take a bare ``(host, port)`` tuple; the
federation work multiplies the number of addresses flying around
(N shards, peer meshes, router target lists), so addresses become a
first-class value: :class:`Endpoint` parses and prints the
``falkon://host:port`` form, and :func:`Endpoint.parse_list` handles
the comma-separated shard lists the :class:`~repro.live.federation.ShardRouter`
takes.

Every entry point — constructors through :func:`as_endpoint`, shard
lists and peers through :meth:`Endpoint.parse` — takes an
:class:`Endpoint` or a URL/``host:port`` string and refuses the legacy
``(host, port)`` tuple with the same message.  Read ``.host`` /
``.port``, or ``.address`` for the socket address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

__all__ = ["Endpoint", "EndpointLike", "as_endpoint"]

SCHEME = "falkon"


@dataclass(frozen=True, order=True)
class Endpoint:
    """One live-plane address, canonically ``falkon://host:port``."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("endpoint host must be non-empty")
        if not isinstance(self.port, int) or isinstance(self.port, bool):
            raise ValueError(f"endpoint port must be an int, got {self.port!r}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"endpoint port out of range: {self.port}")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def parse(cls, text: Union[str, "Endpoint"]) -> "Endpoint":
        """Parse ``falkon://host:port`` or bare ``host:port``; an
        :class:`Endpoint` is returned as-is and anything else refused
        as :func:`as_endpoint` refuses it."""
        if not isinstance(text, str):
            return as_endpoint(text)
        spec = text.strip()
        if "://" in spec:
            scheme, _, rest = spec.partition("://")
            if scheme != SCHEME:
                raise ValueError(
                    f"unsupported scheme {scheme!r} in {text!r} (want {SCHEME}://)")
            spec = rest
        spec = spec.rstrip("/")
        host, sep, port_text = spec.rpartition(":")
        if not sep or not host:
            raise ValueError(f"endpoint {text!r} must be host:port")
        # Bracketed IPv6 literals: [::1]:9000.
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"endpoint {text!r} has a non-numeric port") from None
        return cls(host, port)

    @classmethod
    def parse_list(
        cls, text: Union[str, Iterable[Union[str, "Endpoint"]]]
    ) -> list["Endpoint"]:
        """Parse a comma-separated shard list (or any iterable of
        endpoint-likes) into endpoints, order preserved."""
        if isinstance(text, str):
            parts: Iterable = [p for p in (s.strip() for s in text.split(",")) if p]
        else:
            parts = text
        endpoints = [cls.parse(part) for part in parts]
        if not endpoints:
            raise ValueError(f"no endpoints in {text!r}")
        return endpoints

    # -- views ----------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"{SCHEME}://{self.host}:{self.port}"

    @property
    def address(self) -> tuple[str, int]:
        """The socket address."""
        return (self.host, self.port)

    def __str__(self) -> str:
        return self.url


EndpointLike = Union[Endpoint, str]


def as_endpoint(value: EndpointLike, owner: str = "this constructor") -> Endpoint:
    """Coerce an address argument to an :class:`Endpoint`.

    Accepts an :class:`Endpoint` or a ``falkon://host:port`` /
    ``host:port`` string.  The legacy ``(host, port)`` tuple spelling
    completed its one-release deprecation and is rejected with a
    pointed error so stragglers get a migration hint, not a confusing
    parse failure.
    """
    if isinstance(value, Endpoint):
        return value
    if isinstance(value, str):
        return Endpoint.parse(value)
    if isinstance(value, (tuple, list)):
        raise TypeError(
            f"passing a (host, port) tuple to {owner} is no longer "
            "supported; pass an Endpoint or a 'falkon://host:port' string")
    raise TypeError(
        f"cannot use {value!r} as an endpoint (want Endpoint or "
        "'falkon://host:port')")
