"""``repro stats`` rendering and the registered-knob contract."""

import json
import pathlib
import re

import pytest

from repro.env import KNOBS
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

    def test_replayed_designs_row(self):
        snap = {"counters": {"sched.ii_attempts": 2, "sched.replays": 3},
                "histograms": {}}
        text = format_stats(snap)
        assert re.search(r"^designs replayed\s+3$", text, re.M), text


class TestStatsCommand:
    @pytest.fixture(scope="class")
    def sweep_trace(self, tmp_path_factory):
        """The export of a traced ``explore --kernel iir --jobs 1`` run."""
        from repro.cli import main
        from repro.obs import reset_metrics

        reset_metrics()
        trace = tmp_path_factory.mktemp("stats") / "sweep.json"
        assert main(["explore", "--kernel", "iir", "--factors", "2",
                     "--variants", "pipelined", "squash", "--jobs", "1",
                     "--no-cache", "--trace", str(trace)]) == 0
        return trace

    def test_modulo_sweep_reports_repair_rounds(self, sweep_trace, capsys):
        """Every placement pass of the array core is one repair round,
        so a sweep that modulo-schedules anything shows a nonzero row."""
        from repro.cli import main

        assert main(["stats", str(sweep_trace)]) == 0
        text = capsys.readouterr().out
        row = re.search(r"^repair rounds\s+(\d+)$", text, re.M)
        assert row and int(row.group(1)) > 0, text

    def test_prints_the_event_summary_then_the_metrics(self, sweep_trace,
                                                        capsys):
        from repro.cli import main

        assert main(["stats", str(sweep_trace)]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"{sweep_trace}: valid Chrome trace_event "
                               f"JSON\n")
        events = re.search(r"^\d+ events from \d+ process\(es\)$", text,
                           re.M)
        stages = text.find("Pipeline stages")
        assert events and 0 < events.start() < stages, text

    def test_malformed_event_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        doc = {"traceEvents": [{"name": "flow", "cat": "pipeline",
                                "ph": "X", "ts": 0, "pid": 1, "tid": 1}],
               "reproMetrics": {"counters": {}, "histograms": {}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "traceEvents[0]: 'dur' must be a number >= 0" in err
        assert f"{path}: INVALID (1 problem(s))" in err


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
        """Grep ``src/``, ``README.md`` and the CI workflow for REPRO_*
        names; each must be a declared knob.

        The knob table in :mod:`repro.env` is what ``repro stats
        --knobs`` and the README present as the complete configuration
        surface — an unregistered knob is invisible configuration, and
        a retired one that CI still sets or the README still documents
        silently does nothing.
        """
        paths = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md",
                 ROOT / ".github" / "workflows" / "ci.yml"]
        named = set()
        for path in paths:
            named |= set(re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text()))
        # the suite's own per-test watchdog (tests/conftest.py), which
        # the README documents, is no program knob
        named.discard("REPRO_TEST_TIMEOUT")
        registered = {k.name for k in KNOBS}
        unregistered = sorted(named - registered)
        assert not unregistered, (
            f"REPRO_* variables named in src/, README.md or ci.yml but "
            f"missing from repro.env.KNOBS: {unregistered}")

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
