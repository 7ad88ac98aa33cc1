"""Unit tests for FalkonConfig validation and presets."""

import math

import pytest

from repro.config import (
    AcquisitionPolicyName,
    FalkonConfig,
    ReleasePolicyName,
    SecurityMode,
)
from repro.errors import ConfigError


def test_paper_defaults_valid():
    cfg = FalkonConfig.paper_defaults()
    assert cfg.security is SecurityMode.NONE
    assert cfg.client_bundling and cfg.piggyback
    assert cfg.acquisition_policy is AcquisitionPolicyName.ALL_AT_ONCE
    assert cfg.bundle_size == 300


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_retries=-1),
        dict(replay_timeout=0.0),
        dict(bundle_size=0),
        dict(min_executors=5, max_executors=2),
        dict(min_executors=-1),
        dict(executors_per_node=0),
        dict(idle_release_time=0.0),
        dict(allocation_lease=-5),
        dict(provisioner_poll_interval=0),
        dict(max_executors=-1),
        dict(executor_bundling=True, client_bundling=False),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        FalkonConfig(**kwargs).validate()


def test_falkon_idle_preset_finite():
    cfg = FalkonConfig.falkon_idle(60.0)
    assert cfg.idle_release_time == 60.0
    assert cfg.release_policy is ReleasePolicyName.DISTRIBUTED_IDLE
    assert cfg.max_executors == 32


def test_falkon_idle_preset_infinite_pins_executors():
    cfg = FalkonConfig.falkon_idle(math.inf, max_executors=32)
    assert cfg.release_policy is ReleasePolicyName.NEVER
    assert cfg.min_executors == 32
    assert math.isinf(cfg.idle_release_time)


def test_validate_returns_self():
    cfg = FalkonConfig()
    assert cfg.validate() is cfg
