"""Terminal plotting for figure regeneration.

Dependency-free ASCII line/scatter plots so ``python -m repro figure
fig8`` can *draw* the paper's figures, not just tabulate them.  Multiple
series share one canvas, each with its own glyph; axes support log
scale (Figures 4–7 are log-log or semilog).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["Series", "AsciiPlot"]


@dataclass
class Series:
    """One plotted series."""

    name: str
    xs: Sequence[float]
    ys: Sequence[float]
    glyph: str = "*"

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if len(self.glyph) != 1:
            raise ValueError("glyph must be a single character")


class AsciiPlot:
    """A fixed-size character canvas with axes and a legend."""

    GLYPHS = "*o+x#@%&"

    def __init__(
        self,
        title: str,
        width: int = 72,
        height: int = 20,
        x_label: str = "x",
        y_label: str = "y",
        log_x: bool = False,
        log_y: bool = False,
    ) -> None:
        if width < 20 or height < 5:
            raise ValueError("canvas too small")
        self.title = title
        self.width = width
        self.height = height
        self.x_label = x_label
        self.y_label = y_label
        self.log_x = log_x
        self.log_y = log_y
        self.series: list[Series] = []

    def add_series(
        self,
        name: str,
        xs: Sequence[float],
        ys: Sequence[float],
        glyph: Optional[str] = None,
    ) -> None:
        """Add one series; glyphs auto-rotate when not given."""
        if glyph is None:
            glyph = self.GLYPHS[len(self.series) % len(self.GLYPHS)]
        self.series.append(Series(name, list(xs), list(ys), glyph))

    # -- internals ----------------------------------------------------------
    def _transform(self, value: float, log: bool) -> float:
        if log:
            if value <= 0:
                raise ValueError("log-scaled axes need positive values")
            return math.log10(value)
        return value

    def _bounds(self):
        xs = [self._transform(x, self.log_x) for s in self.series for x in s.xs]
        ys = [self._transform(y, self.log_y) for s in self.series for y in s.ys]
        if not xs:
            raise ValueError("nothing to plot")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        return x0, x1, y0, y1

    def render(self) -> str:
        """Render the canvas to a string."""
        x0, x1, y0, y1 = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]
        for series in self.series:
            for x, y in zip(series.xs, series.ys):
                tx = self._transform(x, self.log_x)
                ty = self._transform(y, self.log_y)
                col = round((tx - x0) / (x1 - x0) * (self.width - 1))
                row = round((ty - y0) / (y1 - y0) * (self.height - 1))
                grid[self.height - 1 - row][col] = series.glyph

        def fmt(value: float, log: bool) -> str:
            real = 10**value if log else value
            if abs(real) >= 10000 or (0 < abs(real) < 0.01):
                return f"{real:.1e}"
            return f"{real:g}"

        lines = [f"== {self.title} =="]
        top_label = fmt(y1, self.log_y)
        bottom_label = fmt(y0, self.log_y)
        pad = max(len(top_label), len(bottom_label))
        for i, row in enumerate(grid):
            if i == 0:
                label = top_label
            elif i == self.height - 1:
                label = bottom_label
            else:
                label = ""
            lines.append(f"{label:>{pad}} |{''.join(row)}")
        lines.append(f"{'':>{pad}} +{'-' * self.width}")
        left = fmt(x0, self.log_x)
        right = fmt(x1, self.log_x)
        axis = f"{left}{' ' * max(1, self.width - len(left) - len(right))}{right}"
        lines.append(f"{'':>{pad}}  {axis}")
        scale = []
        if self.log_x:
            scale.append("log x")
        if self.log_y:
            scale.append("log y")
        suffix = f"  [{', '.join(scale)}]" if scale else ""
        lines.append(f"{'':>{pad}}  {self.x_label} vs {self.y_label}{suffix}")
        for series in self.series:
            lines.append(f"{'':>{pad}}  {series.glyph} = {series.name}")
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render() + "\n")
