"""Result containers for the figure-reproduction harness.

A paper figure is a set of labelled series over a shared x-axis.  The
containers here are deliberately dumb — benchmarks print them, tests assert
on them, examples plot them as ASCII — so every figure runner returns plain
data instead of side effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.records import JsonRecord

__all__ = ["Series", "FigureResult"]


@dataclass
class Series(JsonRecord):
    """One labelled curve: ``y[i]`` measured at ``x[i]``.

    ``errors`` optionally carries Monte-Carlo standard errors (same length
    as ``y``) for simulated curves.
    """

    label: str
    x: list[float]
    y: list[float]
    errors: list[float] | None = None
    #: Monte-Carlo replications actually spent per point (adaptive runs
    #: stop early, so this is measured output, not an input echo).
    replications: list[int] | None = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x has {len(self.x)} points, "
                f"y has {len(self.y)}"
            )
        if self.errors is not None and len(self.errors) != len(self.y):
            raise ValueError(f"series {self.label!r}: errors length mismatch")
        if self.replications is not None and len(self.replications) != len(
            self.y
        ):
            raise ValueError(
                f"series {self.label!r}: replications length mismatch"
            )

    def value_at(self, x: float) -> float:
        """The y value measured at exactly ``x`` (KeyError style lookup)."""
        for xi, yi in zip(self.x, self.y):
            if xi == x:
                return yi
        raise KeyError(f"series {self.label!r} has no point at x={x}")

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class FigureResult(JsonRecord):
    """A reproduced figure: metadata plus its series.

    Campaign journals persist figures as JSON, so a resumed campaign
    rebuilds results without re-running them.
    """

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        available = [s.label for s in self.series]
        raise KeyError(f"no series {label!r}; available: {available}")

    @property
    def labels(self) -> list[str]:
        return [series.label for series in self.series]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict]:
        """Long-format rows, one per (series, point): for CSV/printing."""
        rows = []
        for series in self.series:
            errors = series.errors or [math.nan] * len(series)
            replications = series.replications or [None] * len(series)
            for xi, yi, ei, ri in zip(series.x, series.y, errors, replications):
                row = {
                    "figure": self.figure_id,
                    "series": series.label,
                    "x": xi,
                    "y": yi,
                    "stderr": ei,
                }
                # only sharded/adaptive MC points carry a measured spend;
                # plain rows keep their legacy shape
                if ri is not None:
                    row["replications"] = ri
                rows.append(row)
        return rows

    def to_csv(self) -> str:
        # the replications column only appears when a series measured it
        # (sharded/adaptive MC runs) so analytic-only figures keep the
        # legacy 5-column layout byte for byte
        with_reps = any(s.replications is not None for s in self.series)
        header = "figure,series,x,y,stderr"
        if with_reps:
            header += ",replications"
        lines = [header]
        for row in self.to_rows():
            stderr = "" if math.isnan(row["stderr"]) else f"{row['stderr']:.6g}"
            line = (
                f"{row['figure']},{row['series']},{row['x']:.6g},"
                f"{row['y']:.6g},{stderr}"
            )
            if with_reps:
                reps = row.get("replications")
                line += f",{'' if reps is None else reps}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def render_table(self, float_format: str = "{:.3f}") -> str:
        """Wide-format text table: one row per x, one column per series."""
        xs: list[float] = sorted({xi for s in self.series for xi in s.x})
        header = [self.x_label] + self.labels
        rows = [header]
        for xi in xs:
            row = [f"{xi:g}"]
            for series in self.series:
                try:
                    row.append(float_format.format(series.value_at(xi)))
                except KeyError:
                    row.append("-")
            rows.append(row)
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(header))
        ]
        lines = [
            f"{self.figure_id}: {self.title}",
            f"(y = {self.y_label})",
        ]
        for i, row in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
