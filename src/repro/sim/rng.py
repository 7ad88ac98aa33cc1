"""Deterministic named random streams.

Every stochastic model component (PBS queue delays, executor overhead
jitter, GC pause timing) draws from its own named stream so that adding
a new consumer of randomness never perturbs the draws seen by existing
components — runs stay reproducible experiment-to-experiment.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A factory of independent, reproducibly-seeded NumPy generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The per-stream seed mixes the root seed with a stable hash of
        the name, so streams are independent of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Imported on first use: the live plane builds an RngStreams
            # per FaultPlan but most processes never draw from one, and
            # numpy is ~170 ms and ~17 MB they should not pay for.
            import numpy as np

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            gen = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"<RngStreams seed={self.seed} streams={sorted(self._streams)}>"
