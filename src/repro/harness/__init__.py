"""Experiment harness: runners + formatters for every thesis table/figure."""

from repro.harness.tables import render_series, render_table, render_timeline  # noqa: F401
from repro.harness.experiments import (  # noqa: F401
    VARIANT_LABELS, figure_series, format_fig_2_4, format_figure,
    format_table_1_1, format_table_6_1, format_table_6_2, format_table_6_3,
    run_fig_2_4, run_table_1_1, run_table_6_1, run_table_6_2, run_table_6_3,
)
