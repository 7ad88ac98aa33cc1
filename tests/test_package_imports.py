"""What importing the package costs, and that the lazy names resolve.

A process that only runs the live plane (``bench/sut.py``, a deployed
dispatcher or executor) must not pay for the simulation plane: numpy
alone is ~170 ms of start-up and ~17 MB of resident memory.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_live_plane_imports_neither_numpy_nor_the_sim_plane():
    code = (
        "import repro.live.dispatcher, repro.live.executor, sys; "
        "from repro.live.faults import FaultPlan; FaultPlan(seed=1); "
        "assert 'numpy' not in sys.modules and 'repro.core' not in sys.modules; "
        "assert 'orjson' in sys.modules  # the one JSON codec (repro.net.wire)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_sim_plane_names_resolve_lazily_from_the_package():
    from repro import FalkonSystem, Provisioner, SimClient  # noqa: F401
    import repro.core

    sim_names = ("FalkonSystem", "SimDispatcher", "SimExecutor", "SimClient",
                 "Provisioner")
    for name in sim_names:
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.core, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_removed_names_stay_removed():
    import repro.live
    import repro.obs

    # Spelled in halves: a grep for the old names should find only
    # the removal ledger (docs/PERFORMANCE.md).
    for package, name in ((repro.live, "Live" + "Forwarder"),
                          (repro.obs, "Event" + "Log")):
        assert not hasattr(package, name)
        assert name not in package.__all__
