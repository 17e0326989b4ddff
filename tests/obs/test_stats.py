"""``repro stats`` rendering and the registered-knob contract."""

import pathlib
import re

from repro.env import KNOBS, registered_knobs
from repro.obs.stats import format_knobs, format_stats, summarize_events

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _snapshot():
    return {
        "counters": {
            "analysis_mem_hits": 8, "analysis_mem_misses": 2,
            "explore.cache.hits": 5, "explore.cache.misses": 5,
            "sched.ii_attempts": 40, "sched.ii_memo_skips": 12,
            "sched.exact_nodes": 1234,
            "supervise.batches": 6, "supervise.retries": 2,
            "faults.injected": 3,
        },
        "gauges": {"explore.jobs": 4},
        "histograms": {
            "stage.schedule": {"count": 4, "sum": 2.0, "min": 0.25,
                               "max": 1.0, "samples": [0.25, 0.5, 0.25,
                                                       1.0]},
            "kernel.iir": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0,
                           "samples": [1.0, 2.0]},
        },
    }


class TestFormatStats:
    def test_renders_every_populated_section(self):
        text = format_stats(_snapshot())
        assert "Pipeline stages" in text
        assert "schedule" in text
        assert "Per-kernel compile time" in text
        assert "iir" in text
        assert "Caches" in text
        assert "80.0%" in text   # analysis mem hit rate
        assert "50.0%" in text   # results hit rate
        assert "Scheduler search effort" in text
        assert "1234" in text
        assert "Supervision" in text
        assert "injected faults seen" in text

    def test_memory_tiers_show_their_evictions(self):
        snap = {"counters": {"squash_analysis_mem_hits": 3,
                             "squash_analysis_mem_misses": 75,
                             "squash_analysis_mem_evictions": 11,
                             "analysis_disk_hits": 2,
                             "analysis_disk_misses": 1},
                "histograms": {}}
        text = format_stats(snap)
        assert re.search(r"^cache\s+hits\s+misses\s+hit rate\s+evicted$",
                         text, re.M)
        assert re.search(r"^squash_analysis \(mem\)\s+3\s+75\s+3\.8%\s+11$",
                         text, re.M), text
        assert re.search(r"^analysis \(disk\)\s+2\s+1\s+66\.7%\s+-$",
                         text, re.M), text

    def test_empty_snapshot_says_so(self):
        text = format_stats({"counters": {}, "histograms": {}})
        assert "no recorded metrics" in text

    def test_zero_valued_series_are_suppressed(self):
        snap = {"counters": {"supervise.retries": 0,
                             "sched.ii_attempts": 1},
                "histograms": {}}
        text = format_stats(snap)
        assert "retries" not in text
        assert "II candidates tried" in text


class TestStatsCommand:
    def test_modulo_sweep_reports_repair_rounds(self, tmp_path, capsys):
        """Every placement pass of the array core is one repair round,
        so a sweep that modulo-schedules anything shows a nonzero row."""
        from repro.cli import main
        from repro.obs import reset_metrics

        reset_metrics()
        trace = tmp_path / "sweep.json"
        assert main(["explore", "--kernel", "iir", "--factors", "2",
                     "--variants", "pipelined", "squash", "--jobs", "1",
                     "--no-cache", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        text = capsys.readouterr().out
        row = re.search(r"^repair rounds\s+(\d+)$", text, re.M)
        assert row and int(row.group(1)) > 0, text


class TestSummarizeEvents:
    def test_counts_by_category_and_name(self):
        events = [
            {"name": "flow", "cat": "pipeline", "ph": "X", "ts": 0,
             "dur": 2_000_000, "pid": 1, "tid": 1},
            {"name": "flow", "cat": "pipeline", "ph": "X", "ts": 5,
             "dur": 1_000_000, "pid": 2, "tid": 1},
            {"name": "retry", "cat": "supervise", "ph": "i", "s": "p",
             "ts": 9, "pid": 1, "tid": 1},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "supervisor"}},
        ]
        text = summarize_events(events)
        assert "3 events from 2 process(es)" in text
        assert re.search(r"pipeline\s+flow\s+2\s+3.00s", text)
        assert re.search(r"supervise\s+retry\s+1\s+-", text)


class TestKnobRegistry:
    def test_every_env_read_in_src_is_registered(self):
        """Grep ``src/`` for REPRO_* reads; each must be a declared knob.

        The knob table in :mod:`repro.env` is what ``repro stats
        --knobs`` and the README present as the complete configuration
        surface — an unregistered knob is invisible configuration.
        """
        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read |= set(re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text()))
        # test-only infrastructure knobs live outside src by design
        read.discard("REPRO_TEST_TIMEOUT")
        registered = set(registered_knobs())
        unregistered = sorted(read - registered)
        assert not unregistered, (
            f"REPRO_* variables read in src/ but missing from "
            f"repro.env.KNOBS: {unregistered}")

    def test_every_registered_knob_is_read_somewhere(self):
        source = "\n".join(p.read_text()
                           for p in (ROOT / "src").rglob("*.py"))
        dead = [k.name for k in KNOBS if k.name not in source]
        assert not dead, f"knobs registered but never read: {dead}"

    def test_every_knob_is_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text()
        missing = [k.name for k in KNOBS if k.name not in readme]
        assert not missing, f"knobs missing from README.md: {missing}"

    def test_format_knobs_lists_every_knob_with_defaults(self):
        text = format_knobs()
        for knob in KNOBS:
            assert knob.name in text
            assert knob.default in text
