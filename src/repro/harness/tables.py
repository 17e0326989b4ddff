"""Plain-text table / series rendering for the experiment harness.

The thesis reports results as tables (6.1–6.3) and bar-chart figures
(6.1–6.4).  We render tables with fixed-width columns and figures as
labeled numeric series plus a coarse ASCII bar per value, so the
output is diffable and the "shape" claims are visible at a glance.
:func:`render_table` lives with the exploration reports
(:mod:`repro.explore.report`), which a sweep formats without loading
the harness.
"""

from __future__ import annotations

from typing import Sequence

from repro.explore.report import render_table

__all__ = ["render_table", "render_series", "render_timeline"]


def render_series(title: str, labels: Sequence[str],
                  series: dict[str, Sequence[float]],
                  bar_width: int = 30, fmt: str = "{:.2f}") -> str:
    """Render named series (one per kernel) over variant labels with bars."""
    out = [title]
    peak = max((v for vals in series.values() for v in vals), default=1.0)
    peak = peak or 1.0
    for name, vals in series.items():
        out.append(f"  {name}")
        for label, v in zip(labels, vals):
            bar = "#" * max(1, round(bar_width * v / peak)) if v > 0 else ""
            out.append(f"    {label:<12}{fmt.format(v):>9}  {bar}")
    return "\n".join(out) + "\n"


def render_timeline(title: str, timeline: dict[str, list[int]],
                    max_cols: int = 64) -> str:
    """Render an operator-occupancy timeline (thesis Fig. 2.4).

    Each row is one operator; each column one cycle; digits identify the
    data set / iteration occupying the operator, '.' marks idle.
    """
    out = [title]
    for label, cells in timeline.items():
        cells = cells[:max_cols]
        text = "".join("." if c < 0 else str(c % 10) for c in cells)
        out.append(f"  {label:<14}|{text}|")
    return "\n".join(out) + "\n"
