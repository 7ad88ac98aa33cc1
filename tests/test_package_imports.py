"""What importing the package costs, and that the lazy names resolve.

A process that only runs the live plane (``bench/sut.py``, a deployed
dispatcher or executor) must not pay for the simulation plane (numpy
alone is ~170 ms of start-up and ~17 MB of resident memory) nor for
the HTTP surface it does not serve; every module it imports is compiled
again on each spawn when bytecode is not written.  No module under
``src/`` imports a name it never uses (a stdlib ``ast`` stand-in for
ruff's F401, which runs without ruff installed).
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


#: Each package's ``__all__``, in order: lazy exports change when a
#: name is loaded, never which names there are.
EXPORTS = {
    "repro": """FalkonClient connect as_completed Endpoint FalkonConfig
        SecurityMode AcquisitionPolicyName ReleasePolicyName FalkonSystem
        SimDispatcher SimExecutor SimClient Provisioner TaskSpec TaskResult
        TaskState Bundle DataRef DataLocation __version__""",
    "repro.live": """Connection task_to_dict task_from_dict result_to_dict
        result_from_dict FaultAction FaultPlan FaultyConnection Journal
        RecoveredState RecoveredTask recover LiveDispatcher LiveExecutor
        LiveClient TaskFuture LocalProvisioner LocalFalkon Endpoint
        as_endpoint HashRing ShardRouter FederationStats aggregate_stats
        LocalFederation""",
    "repro.obs": """Counter Gauge Histogram MetricsRegistry
        DEFAULT_LATENCY_BUCKETS quantile_from_values SPAN_ORDER Span
        SpanCollector StatsSnapshot DispatcherStats ExecutorStats
        ProvisionerStats atomic_writer render_prometheus write_prometheus
        write_spans_jsonl write_metrics_jsonl read_spans_jsonl
        dump_observability StatusServer read_events_jsonl replay_summary
        FLIGHT_DUMP_VERSION FlightRecorder flight_dump_path load_flight_dumps
        read_flight_dump StallDetector WatchdogPanel analyze render_report""",
    "repro.net": """WSCostModel BundlingCostModel NetworkModel Message
        MessageType FrameReader decode_frame encode_message_v4""",
    "repro.sim": """Environment Event Process Interrupt StopSimulation Timeout
        AllOf AnyOf Condition Resource PriorityResource Container Store
        FilterStore PriorityStore TimeSeries Gauge Counter moving_average
        RngStreams TraceEvent Tracer""",
}

#: What a dispatcher-and-executor process must not load: the sim plane,
#: the client side, the federation, the sim-only cost model and the HTTP
#: surface (imported by ``serve_http`` when it is called).
LIVE_PLANE_NEVER_LOADS = (
    "repro.sim", "repro.api", "repro.live.client", "repro.live.federation",
    "repro.live.faults", "repro.net.costs", "repro.obs.httpd",
    "repro.obs.exporters", "repro.obs.doctor", "http.server",
)


def _modules_after(code):
    """The modules a fresh interpreter holds after running *code*."""
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_live_plane_imports_neither_numpy_nor_the_sim_plane():
    loaded = _modules_after(
        "import repro.live.dispatcher, repro.live.executor\n"
        "from repro.live.faults import FaultPlan; FaultPlan(seed=1)")
    assert not loaded & {"numpy", "repro.core", "repro.sim.core"}
    assert "orjson" in loaded  # the one JSON codec (repro.net.wire)


def _source_lines(module):
    path = os.path.join(SRC, *module.split("."))
    path = path + ".py" if os.path.isfile(path + ".py") else os.path.join(path, "__init__.py")
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def test_live_plane_loads_only_the_live_plane():
    loaded = _modules_after("import repro.live.dispatcher, repro.live.executor")
    assert sorted(loaded.intersection(LIVE_PLANE_NEVER_LOADS)) == []
    ours = sorted(m for m in loaded if m == "repro" or m.startswith("repro."))
    assert len(ours) <= 20, ours
    # Every spawn compiles these when no bytecode is written.
    assert sum(map(_source_lines, ours)) <= 6_850


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_package_exports_resolve_lazily_to_their_defining_modules(package):
    module = importlib.import_module(package)
    assert module.__all__ == EXPORTS[package].split()
    star = {}
    exec(f"from {package} import *", star)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value and name in listed
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            assert getattr(sys.modules[home], name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


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


def _annotation_names(node):
    """Names inside the quoted parts of an annotation (``"FaultPlan"``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _unused_imports(path):
    """``(line, name)`` for each module-level import *path* never reads.

    Exempt: ``__future__`` imports, names listed in ``__all__`` and
    lines marked ``# noqa: F401``.  Imports under a module-level
    ``if`` / ``try`` (``TYPE_CHECKING`` blocks) count as module-level.
    """
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse
            pending += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                pending += handler.body
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("noqa: F401" in lines[n - 1]
                   for n in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_under_src_imports_a_name_it_never_uses():
    unused = []
    for directory, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(directory, name)
                unused += [f"{os.path.relpath(path, SRC)}:{line}: {imported}"
                           for line, imported in _unused_imports(path)]
    assert unused == []


def test_unused_import_check_sees_what_ruff_would(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import json  # noqa: F401\n"
        "from typing import Optional, TYPE_CHECKING\n"
        "from os import path, sep\n"
        "if TYPE_CHECKING:\n"
        "    from queue import Queue\n"
        "__all__ = [\"sep\"]\n"
        "def f(q: \"Queue\") -> None:\n"
        "    return path.join(\"a\")\n"
    )
    assert _unused_imports(str(module)) == [(2, "math"), (4, "Optional")]
