"""Plain-text rendering of experiment results (tables and series).

The paper's figures are line charts (cost or runtime vs query-load
cardinality); we render the same data as aligned text series so the
harness works anywhere and diffs cleanly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A simple aligned ASCII table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            columns[index].append(_fmt(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip([str(h) for h in headers], widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row_index in range(len(rows)):
        lines.append(
            "  ".join(
                columns[col][row_index + 1].rjust(widths[col])
                for col in range(len(headers))
            )
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or value == int(value):
            return f"{value:,.0f}"
        return f"{value:.3g}"
    if value is None:
        return "-"
    return str(value)


class Series:
    """One line of a figure: a name and (x, y) points."""

    def __init__(self, name: str, points: Sequence[Tuple[float, float]]):
        self.name = name
        self.points = list(points)

    def ys(self) -> List[float]:
        return [y for _x, y in self.points]

    def xs(self) -> List[float]:
        return [x for x, _y in self.points]


def cache_hit_table(x_label: str, series: Sequence["Series"]) -> str:
    """Per-run solution-cache hit rates as an extra aligned table.

    Returns the empty string when no run reported cache telemetry (the
    sweep ran uncached), so callers can attach the result to a figure's
    ``notes`` unconditionally.
    """
    populated = [s for s in series if s.points]
    if not populated:
        return ""
    xs = sorted({x for s in populated for x, _ in s.points})
    value_of: Dict[str, Dict[float, float]] = {
        s.name: dict(s.points) for s in populated
    }
    rows: List[List[object]] = []
    for x in xs:
        row: List[object] = [int(x) if float(x).is_integer() else x]
        for s in populated:
            rate = value_of[s.name].get(x)
            row.append("-" if rate is None else f"{rate:.0%}")
        rows.append(row)
    headers = [x_label] + [s.name for s in populated]
    return "cache hit rate per run:\n" + render_table(headers, rows)


class FigureResult:
    """A reproduced figure panel: shared x axis, one series per line."""

    def __init__(
        self,
        figure_id: str,
        title: str,
        x_label: str,
        y_label: str,
        series: Sequence[Series],
        notes: str = "",
    ):
        self.figure_id = figure_id
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series = list(series)
        self.notes = notes

    def series_by_name(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def render(self) -> str:
        """Aligned text: one row per x value, one column per series."""
        xs = sorted({x for s in self.series for x, _ in s.points})
        headers = [self.x_label] + [s.name for s in self.series]
        value_of: Dict[str, Dict[float, float]] = {
            s.name: dict(s.points) for s in self.series
        }
        rows = []
        for x in xs:
            row: List[object] = [int(x) if float(x).is_integer() else x]
            for s in self.series:
                row.append(value_of[s.name].get(x))
            rows.append(row)
        out = [f"== {self.figure_id}: {self.title} ==", f"(y = {self.y_label})"]
        out.append(render_table(headers, rows))
        if self.notes:
            out.append(self.notes)
        return "\n".join(out)


def average_figures(figures: Sequence[FigureResult]) -> FigureResult:
    """Average same-shaped figures over seeds.

    The paper regenerates the synthetic dataset "for each separate
    experiment"; averaging several seeded runs reports the stable shape
    rather than a single draw.  Series are matched by name and points by
    x; a point must be present in every run to appear in the average.
    """
    if not figures:
        raise ValueError("need at least one figure to average")
    first = figures[0]
    names = [s.name for s in first.series]
    for other in figures[1:]:
        if [s.name for s in other.series] != names:
            raise ValueError("figures have mismatched series")
    averaged: List[Series] = []
    for name in names:
        maps = [dict(f.series_by_name(name).points) for f in figures]
        common = set(maps[0])
        for m in maps[1:]:
            common &= set(m)
        points = [
            (x, sum(m[x] for m in maps) / len(maps)) for x in sorted(common)
        ]
        averaged.append(Series(name, points))
    return FigureResult(
        first.figure_id,
        f"{first.title} (mean of {len(figures)} seeds)",
        first.x_label,
        first.y_label,
        averaged,
        notes=first.notes,
    )
