"""F3 — Figure 3: throughput as a function of executor count.

Paper: GT4 bare WS bound 500 calls/s; Falkon peaks at 487 tasks/s
without security and 204 tasks/s with GSISecureConversation; one
executor sustains 28 / 12 tasks/s.
"""

import pytest

from repro.experiments import run_fig3
from repro.experiments.fig3_throughput import PAPER_ANCHORS_FIG3
from repro.metrics import Table


def test_fig3_throughput(benchmark, show):
    result = benchmark.pedantic(run_fig3, rounds=1, iterations=1)

    table = Table(
        "Figure 3: throughput vs executor count (tasks/s)",
        ["Executors", "Falkon (none)", "Falkon (GSI)", "GT4 bound"],
    )
    for row in result.rows:
        table.add_row(row.executors, row.throughput_none, row.throughput_gsi, row.gt4_bound)
    table.add_row("paper peak", PAPER_ANCHORS_FIG3["falkon_none_peak"],
                  PAPER_ANCHORS_FIG3["falkon_gsi_peak"], PAPER_ANCHORS_FIG3["gt4_bound"])
    show(table)

    # Peaks match the paper within a few percent.
    assert result.peak("none") == pytest.approx(487.0, rel=0.06)
    assert result.peak("gsi") == pytest.approx(204.0, rel=0.06)
    # Single-executor anchors.
    single = result.at(1)
    assert single.throughput_none == pytest.approx(28.0, rel=0.06)
    assert single.throughput_gsi == pytest.approx(12.0, rel=0.06)
    # Shape: linear scaling region then saturation below the GT4 bound.
    assert result.at(2).throughput_none == pytest.approx(2 * 28.0, rel=0.1)
    assert result.peak("none") < PAPER_ANCHORS_FIG3["gt4_bound"]
    series = [row.throughput_none for row in result.rows]
    assert all(b >= a * 0.98 for a, b in zip(series, series[1:]))  # non-decreasing
