"""Configuration of the simulation plane.

:class:`FalkonConfig` holds the paper's policy settings that the
simulated dispatcher, system and provisioner (``repro.core``) read:
the replay (retry) policy, the five resource acquisition policies, the
release policies with their idle-time settings, the bundling and
piggy-backing switches, and the security mode.  The live plane
(``repro.live``) takes its settings as constructor arguments instead;
only :class:`SecurityMode` is shared by both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.errors import ConfigError

__all__ = [
    "SecurityMode",
    "AcquisitionPolicyName",
    "ReleasePolicyName",
    "FalkonConfig",
]


class SecurityMode(Enum):
    """WS security settings compared in §4.1.

    ``NONE`` corresponds to the 487 tasks/s configuration;
    ``GSI_SECURE_CONVERSATION`` (authentication + encryption) to the
    204 tasks/s configuration.  The live plane implements the secure
    mode as HMAC-signed frames (see DESIGN.md substitution table).
    """

    NONE = "none"
    GSI_SECURE_CONVERSATION = "gsi-secure-conversation"


class AcquisitionPolicyName(Enum):
    """§3.1: the five implemented resource acquisition strategies."""

    ALL_AT_ONCE = "all-at-once"          # one request for n resources
    ONE_AT_A_TIME = "one-at-a-time"      # n requests for one resource
    ADDITIVE = "additive"                # arithmetically growing requests
    EXPONENTIAL = "exponential"          # exponentially growing requests
    AVAILABLE = "available"              # sized by LRM-reported free nodes


class ReleasePolicyName(Enum):
    """§3.1: when to give resources back to the LRM."""

    DISTRIBUTED_IDLE = "distributed-idle"    # executor releases itself when idle
    CENTRALIZED_QUEUE = "centralized-queue"  # dispatcher releases on queue state
    NEVER = "never"                          # Falkon-∞: hold until teardown


@dataclass
class FalkonConfig:
    """The simulation plane's policy and tuning parameters.

    Defaults reproduce the paper's headline configuration: no security,
    client–dispatcher bundling and piggy-backing enabled, all-at-once
    acquisition, distributed idle release.  Dispatch is always
    next-available (§3.1), the policy the paper evaluates.
    """

    # --- replay policy (§3.1) ---
    max_retries: int = 3
    replay_timeout: Optional[float] = None  # None: no re-dispatch timer

    # --- communication optimisations (§3.4) ---
    client_bundling: bool = True
    bundle_size: int = 300  # peak of Figure 5
    piggyback: bool = True
    executor_bundling: bool = False  # needs runtime estimates; off as in paper

    # --- security (§4.1) ---
    security: SecurityMode = SecurityMode.NONE

    # --- provisioning (§3.1, §4.6) ---
    acquisition_policy: AcquisitionPolicyName = AcquisitionPolicyName.ALL_AT_ONCE
    min_executors: int = 0
    max_executors: int = 32
    executors_per_node: int = 1
    release_policy: ReleasePolicyName = ReleasePolicyName.DISTRIBUTED_IDLE
    idle_release_time: float = 60.0        # the "Falkon-60" knob
    allocation_lease: float = 3600.0       # max time resources are held
    provisioner_poll_interval: float = 1.0  # dispatcher-state polling {POLL}
    centralized_queue_threshold: int = 0   # release when queued < q

    def validate(self) -> "FalkonConfig":
        """Raise :class:`ConfigError` on inconsistent settings; return self."""
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.replay_timeout is not None and self.replay_timeout <= 0:
            raise ConfigError("replay_timeout must be positive when set")
        if self.bundle_size <= 0:
            raise ConfigError("bundle_size must be positive")
        if not 0 <= self.min_executors <= self.max_executors:
            raise ConfigError(
                f"need 0 <= min_executors <= max_executors, got "
                f"{self.min_executors}..{self.max_executors}"
            )
        if self.executors_per_node <= 0:
            raise ConfigError("executors_per_node must be positive")
        if self.idle_release_time <= 0 and not math.isinf(self.idle_release_time):
            raise ConfigError("idle_release_time must be positive (or inf)")
        if self.allocation_lease <= 0:
            raise ConfigError("allocation_lease must be positive")
        if self.provisioner_poll_interval <= 0:
            raise ConfigError("provisioner_poll_interval must be positive")
        if self.executor_bundling and not self.client_bundling:
            raise ConfigError("executor_bundling requires client_bundling")
        return self

    @classmethod
    def paper_defaults(cls, **overrides) -> "FalkonConfig":
        """The configuration used by the paper's headline experiments."""
        return cls(**overrides).validate()

    @classmethod
    def falkon_idle(cls, idle_seconds: float, max_executors: int = 32, **overrides) -> "FalkonConfig":
        """The §4.6 'Falkon-N' configurations (N = idle release time).

        ``idle_seconds=math.inf`` gives Falkon-∞ (retain resources).
        """
        if math.isinf(idle_seconds):
            return cls(
                release_policy=ReleasePolicyName.NEVER,
                idle_release_time=math.inf,
                min_executors=max_executors,
                max_executors=max_executors,
                **overrides,
            ).validate()
        return cls(
            release_policy=ReleasePolicyName.DISTRIBUTED_IDLE,
            idle_release_time=float(idle_seconds),
            max_executors=max_executors,
            **overrides,
        ).validate()
