"""CLI tests (direct invocation of repro.cli.main)."""

import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "falkon-repro" in out
    assert "repro.core" in out


def test_throughput_small(capsys):
    assert main(["throughput", "--executors", "8", "--tasks", "300"]) == 0
    out = capsys.readouterr().out
    assert "tasks/s" in out


def test_throughput_secure(capsys):
    assert main(["throughput", "--executors", "8", "--tasks", "200", "--security"]) == 0
    assert "(secure)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["18stage", "fmri", "montage", "trace"])
def test_workload_descriptions(name, capsys):
    assert main(["workload", name]) == 0
    out = capsys.readouterr().out
    assert "total" in out or "tasks" in out


def test_provision_small(capsys):
    assert main(["provision", "--idle", "120", "--max-executors", "8"]) == 0
    out = capsys.readouterr().out
    assert "resource utilization" in out
    assert "resource allocations" in out


def test_live_small(capsys):
    assert main(["live", "--executors", "2", "--tasks", "50"]) == 0
    out = capsys.readouterr().out
    assert "50/50 tasks ok" in out


def test_export_writes_files(tmp_path, capsys, monkeypatch):
    # Patch the heavyweight exporters to keep this a unit test.
    import repro.experiments.export as export_mod

    def tiny_fig8(directory, result=None, n_tasks=0):
        return [export_mod.write_csv(os.path.join(directory, "fig8.csv"), ["a"], [(1,)])]

    def tiny_fig9(directory, result=None, executors=0):
        return [export_mod.write_csv(os.path.join(directory, "fig9.csv"), ["a"], [(1,)])]

    monkeypatch.setattr(export_mod, "export_fig8", tiny_fig8)
    monkeypatch.setattr(export_mod, "export_fig9", tiny_fig9)
    monkeypatch.setattr(
        export_mod, "export_fig6",
        lambda d, result=None: export_mod.write_csv(
            os.path.join(d, "fig6.csv"), ["a"], [(1,)]
        ),
    )

    out_dir = str(tmp_path / "results")
    assert main(["export", "--out", out_dir, "--quick"]) == 0
    written = os.listdir(out_dir)
    assert "fig3_throughput.csv" in written
    assert "table4_utilization.csv" in written
    assert "fig14_fmri.csv" in written


@pytest.mark.parametrize("name", ["fig5", "fig11"])
def test_figure_fast_variants(name, capsys):
    assert main(["figure", name]) == 0
    out = capsys.readouterr().out
    assert "==" in out and "|" in out  # a rendered canvas


def test_figure_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


# -- surface pins: what left stays gone -----------------------------------------
def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--quick"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert "bench" not in build_parser().format_help()


@pytest.mark.parametrize("kwarg", [
    {"steal_batch_max": 1}, {"reject_retry_after": 1.0}, {"event_log": None},
    {"steal_min_queue": 0}, {"flight": False}, {"stall_after": 1.0},
])
def test_dispatcher_constants_are_not_constructor_kwargs(kwarg):
    from repro.live import LiveDispatcher

    with pytest.raises(TypeError):
        LiveDispatcher(**kwarg)


def test_dispatcher_constructor_surface_only_shrinks():
    import dataclasses
    import inspect

    from repro.config import FalkonConfig
    from repro.live import (
        Journal,
        LiveClient,
        LiveDispatcher,
        LiveExecutor,
        LocalFalkon,
        LocalFederation,
        LocalProvisioner,
        ShardRouter,
    )
    from repro.live.federation import PeerLink

    # LiveDispatcher: 21 before the second removal round, 17 before the
    # third; ROADMAP item 3 targets 12.  The others as the knob census
    # left them: 123 settable values across these ten, now 93.
    most = {LiveDispatcher: 15, LiveExecutor: 7, LiveClient: 5,
            LocalProvisioner: 5, PeerLink: 3, ShardRouter: 3,
            LocalFederation: 15, Journal: 3, LocalFalkon: 20}
    for cls, count in most.items():
        assert len(inspect.signature(cls.__init__).parameters) - 1 <= count, cls
    assert len(dataclasses.fields(FalkonConfig)) <= 16


@pytest.mark.parametrize(("owner", "kwarg"), [
    ("executor.LiveExecutor", "subprocess_timeout"),
    ("executor.LiveExecutor", "backoff_base"),
    ("executor.LiveExecutor", "fault_plan"),
    ("client.LiveClient", "backoff_cap"),
    ("provisioner.LocalProvisioner", "min_executors"),
    ("provisioner.LocalProvisioner", "poll_interval"),
    ("federation.PeerLink", "steal_timeout"),
    ("federation.ShardRouter", "down_ttl"),
    ("federation.LocalFederation", "retain_settled"),
    ("journal.Journal", "flush_window"),
])
def test_census_settings_are_constants_not_kwargs(owner, kwarg):
    import importlib

    module, name = owner.split(".")
    cls = getattr(importlib.import_module(f"repro.live.{module}"), name)
    with pytest.raises(TypeError, match=kwarg):
        cls(None, **{kwarg: 1})


@pytest.mark.parametrize("field", ["dispatch_policy", "heartbeat_interval",
                                   "notification_threads", "seed"])
def test_config_fields_nothing_read_are_gone(field):
    from repro.config import FalkonConfig

    with pytest.raises(TypeError, match=field):
        FalkonConfig(**{field: 1})


def test_telemetry_is_read_where_it_is_kept():
    import repro.obs
    from repro.live import LiveDispatcher

    for name in ("TimeSeriesStore", "RingSeries"):
        assert name not in repro.obs.__all__ and not hasattr(repro.obs, name)
    with LiveDispatcher() as dispatcher:
        assert not hasattr(dispatcher, "timeseries")


def test_dispatcher_state_has_one_owner_and_no_locks():
    from repro.live import LiveDispatcher
    from repro.live.dispatcher import _ExecutorSession, _LiveRecord

    from tests.live.util import wait_until

    def locks(owner):
        return [name for name in vars(owner) if name.endswith("_lock")]

    with LiveDispatcher() as dispatcher:
        assert not locks(dispatcher)
    assert "lock" not in _LiveRecord.__slots__
    assert not hasattr(_ExecutorSession("e", conn=None), "lock")
    # A shard: neither its federation plane nor its peer links lock.
    with LiveDispatcher(shard_id="a", monitor_interval=0.05) as donor, \
            LiveDispatcher(shard_id="b", monitor_interval=0.05) as thief:
        donor.add_peer("b", thief.endpoint)
        thief.add_peer("a", donor.endpoint)
        plane = donor._federation
        assert wait_until(lambda: [peer.connected for peer in plane.peers.values()]
                          == [True])
        for owner in (donor, plane, *plane.peers.values()):
            assert not locks(owner), owner


def test_no_trace_context_rides_the_wire():
    import repro.obs
    from repro.live.dispatcher import LiveDispatcher, _LiveRecord
    from repro.obs import SpanCollector

    assert "TraceContext" not in repro.obs.__all__
    assert not hasattr(repro.obs, "TraceContext")
    assert "trace_wire" not in _LiveRecord.__slots__
    for name in ("record_stamped", "record_wire", "context"):
        assert not hasattr(SpanCollector, name)
    assert not hasattr(LiveDispatcher, "_flush_notify_spans")
