"""Tests for the experiment harness (rendering + runners)."""

import pytest

from repro import clear_caches
from repro.harness import (
    figure_series, format_fig_2_4, format_figure, format_table_6_1,
    format_table_6_2, format_table_6_3, render_series, render_table,
    render_timeline, run_fig_2_4, run_table_6_1, run_table_6_2, run_table_6_3,
)
from repro.nimble import decode_target


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["name", "v"], [["alpha", 1], ["b", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[:3])) == 1  # aligned

    def test_render_table_title(self):
        text = render_table(["a"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_render_series_bars(self):
        text = render_series("fig", ["x", "y"], {"k": [1.0, 2.0]})
        assert text.count("#") > 0
        assert "k" in text and "2.00" in text

    def test_render_timeline(self):
        text = render_timeline("t", {"op": [0, -1, 1, -1]})
        assert "|0.1.|" in text


class TestTargetSpecs:
    def test_plain(self):
        assert decode_target("acev").mem_ports == 2

    def test_ports_modifier(self):
        assert decode_target("acev::ports=1").mem_ports == 1

    def test_reg_rows_modifier(self):
        t = decode_target("acev::reg_rows=0.5")
        assert t.library.reg_rows == 0.5

    def test_combined_modifiers(self):
        t = decode_target("acev::ports=4,reg_rows=0.25")
        assert t.mem_ports == 4 and t.library.reg_rows == 0.25


class TestRunners:
    @pytest.fixture(scope="class")
    def sweep(self):
        # small factor set: fast, still exercises every code path
        return run_table_6_2(factors=(2,))

    def test_sweep_covers_all_kernels(self, sweep):
        assert set(sweep) == {"skipjack-mem", "skipjack-hw", "des-mem",
                              "des-hw", "iir"}

    def test_sweep_cached(self, sweep):
        again = run_table_6_2(factors=(2,))
        assert again is sweep

    def test_format_table_6_2(self, sweep):
        text = format_table_6_2(sweep)
        assert "II (cycles)" in text and "skipjack-mem" in text

    def test_table_6_3_normalization(self, sweep):
        norm = run_table_6_3(sweep)
        for kernel, pts in norm.items():
            assert pts[0].speedup == pytest.approx(1.0)
            assert pts[0].area_factor == pytest.approx(1.0)
        text = format_table_6_3(norm)
        assert "Speedup/Area" in text

    def test_figure_series_labels(self, sweep):
        norm = run_table_6_3(sweep)
        title, labels, series = figure_series("6.3", norm)
        assert labels[0] == "original" and "squash(2)" in labels
        assert set(series) == set(sweep)
        for fig in ("6.1", "6.2", "6.4"):
            assert format_figure(fig, norm)

    def test_table_6_1(self):
        text = format_table_6_1(run_table_6_1())
        assert "Skipjack" in text and "IIR" in text

    def test_fig_2_4(self):
        data = run_fig_2_4(ds=2, horizon=12)
        text = format_fig_2_4(data)
        assert "jam" in text and "squash" in text
        assert data["squash"][0].ii == 1


class TestSweepCaching:
    """The persistent-cache rewiring of the Table 6.2 sweep."""

    def test_clear_caches_forces_recompute_same_artifact(self):
        s1 = run_table_6_2(factors=(2,))
        clear_caches()
        s2 = run_table_6_2(factors=(2,))
        assert s2 is not s1  # memo really dropped
        assert format_table_6_2(s2) == format_table_6_2(s1)

    def test_persistent_cache_survives_memo_clear(self):
        from repro.harness import experiments
        run_table_6_2(factors=(2,))
        experiments._SWEEP_MEMO.clear()  # simulate a fresh process
        from repro.explore import ResultCache
        assert len(ResultCache()) > 0
        s2 = run_table_6_2(factors=(2,))
        assert set(s2) == {"skipjack-mem", "skipjack-hw", "des-mem",
                           "des-hw", "iir"}
