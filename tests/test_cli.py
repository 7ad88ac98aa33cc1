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
    {"steal_min_queue": 0},
])
def test_dispatcher_constants_are_not_constructor_kwargs(kwarg):
    from repro.live import LiveDispatcher

    with pytest.raises(TypeError):
        LiveDispatcher(**kwarg)


def test_dispatcher_constructor_surface_only_shrinks():
    import inspect

    from repro.live import LiveDispatcher

    # 21 before the second removal round; ROADMAP item 3 targets 12.
    assert len(inspect.signature(LiveDispatcher.__init__).parameters) - 1 <= 17


def test_dispatcher_state_has_one_owner_and_no_locks():
    from repro.live import LiveDispatcher
    from repro.live.dispatcher import _ExecutorSession, _LiveRecord

    with LiveDispatcher() as dispatcher:
        assert not [name for name in vars(dispatcher) if name.endswith("_lock")]
    assert "lock" not in _LiveRecord.__slots__
    assert not hasattr(_ExecutorSession("e", conn=None), "lock")
