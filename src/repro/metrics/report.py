"""Plain-text table rendering for the benchmark harness.

Every benchmark prints the rows/series its paper table or figure
reports, usually with a *paper* column next to the *measured* column.
The renderer is dependency-free and aligns on plain monospace.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from repro.obs import quantile_from_values

__all__ = ["Table", "format_si", "timeline_summary"]


def format_si(value: float, digits: int = 3) -> str:
    """Human-friendly magnitude formatting: 2_000_000 → '2.00M'."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "—"
    magnitude = abs(value)
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if magnitude >= threshold:
            return f"{value / threshold:.{max(digits - 1, 0)}g}{suffix}"
    if magnitude >= 100 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.{digits}g}"


class Table:
    """A fixed-width text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append a row; cells are str()-ed, floats get 4 significant
        digits, None renders as an em-dash."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        rendered = []
        for cell in cells:
            if cell is None or (isinstance(cell, float) and math.isnan(cell)):
                rendered.append("—")
            elif isinstance(cell, float):
                rendered.append(f"{cell:.4g}")
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        parts = [f"== {self.title} ==", line(self.columns), rule]
        parts.extend(line(row) for row in self.rows)
        return "\n".join(parts)

    def print(self) -> None:
        """Print with surrounding blank lines (bench output hygiene)."""
        print("\n" + self.render() + "\n")


def timeline_summary(results: Iterable[Any], title: str = "Task latency summary") -> Table:
    """Percentile table over settled task timelines.

    *results* is any iterable of objects with a ``timeline`` attribute
    (``TaskResult`` from either plane).  Quantiles come from
    :func:`repro.obs.quantile_from_values`, the same definition the
    live registries report, so sim and live tables agree.
    """
    waits: list[float] = []
    e2es: list[float] = []
    for result in results:
        timeline = getattr(result, "timeline", None)
        if timeline is None:
            continue
        wait = timeline.dispatched - timeline.submitted
        e2e = timeline.completed - timeline.submitted
        if not math.isnan(wait):
            waits.append(wait)
        if not math.isnan(e2e):
            e2es.append(e2e)
    table = Table(title, ["latency (s)", "p50", "p90", "p99", "n"])
    for label, values in (("dispatch wait", waits), ("end-to-end", e2es)):
        table.add_row(
            label,
            quantile_from_values(values, 0.50),
            quantile_from_values(values, 0.90),
            quantile_from_values(values, 0.99),
            len(values),
        )
    return table
