"""Observability end to end: worker payloads, merged sweeps, goldens.

The contracts under test:

* workers ship their trace events and metrics deltas with each batch
  payload and the engine merges them, so a parallel sweep ends with one
  sweep-wide event list and one global counter set;
* tracing never changes results — the Table 6.2/6.3 goldens are
  byte-identical with the tracer off and in ``full`` mode;
* under injected worker crashes the merged trace still records the
  supervision story (retries, respawns) alongside the compile spans.
"""

import pathlib

import pytest

from repro.explore import DesignSpace, NullCache, evaluate
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

FAST = DesignSpace(kernels=("iir",), variants=("original", "squash"),
                   factors=(2, 4))


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs_trace.reset_trace()
    yield
    obs_trace.reset_trace()


class TestWorkerPayload:
    def test_untraced_payload_has_no_trace_key(self):
        from repro.explore.space import DesignQuery
        from repro.nimble.compiler import compile_query_batch
        payload = compile_query_batch([DesignQuery("iir", "original")])
        assert "trace" not in payload
        assert "metrics" in payload

    def test_traced_payload_ships_drained_events(self, monkeypatch):
        from repro.explore.space import DesignQuery
        from repro.nimble.compiler import compile_query_batch
        monkeypatch.setenv("REPRO_TRACE", "1")
        payload = compile_query_batch([DesignQuery("iir", "original")])
        names = {e["name"] for e in payload["trace"]}
        assert "flow" in names
        assert "batch" in names
        # drained into the payload, not left behind in the buffer
        assert obs_trace.drain() == []

    def test_metrics_delta_covers_batch_work_only(self):
        from repro.explore.space import DesignQuery
        from repro.nimble.compiler import compile_query_batch
        compile_query_batch([DesignQuery("iir", "original")])
        payload = compile_query_batch([DesignQuery("iir", "pipelined")])
        counters = payload["metrics"]["counters"]
        # one flow in this batch: per-batch counters are deltas, not
        # process totals
        assert payload["metrics"]["histograms"]["kernel.iir"]["count"] == 1
        assert counters.get("sched.ii_attempts", 0) >= 1


class TestMergedSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_merges_every_workers_events(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_TRACE", "1")
        obs_trace.drain()
        result = evaluate(FAST.enumerate(), jobs=jobs, cache=NullCache())
        assert not result.fails()
        events = obs_trace.drain()
        flows = [e for e in events if e["name"] == "flow"]
        assert len(flows) == len(FAST.enumerate())
        cats = {e["cat"] for e in events}
        assert {"pipeline", "pipeline.stage", "explore",
                "supervise"} <= cats
        doc = obs_trace.trace_header(events)
        assert obs_trace.validate_trace(doc) == []

    def test_parallel_sweep_counters_match_serial(self, monkeypatch):
        reg = obs_metrics.registry()

        def attempts():
            return reg.counter_values().get("sched.ii_attempts", 0)

        before = attempts()
        evaluate(FAST.enumerate(), jobs=1, cache=NullCache())
        serial = attempts() - before

        before = attempts()
        evaluate(FAST.enumerate(), jobs=2, cache=NullCache())
        parallel = attempts() - before
        # worker deltas merge into the parent registry: the pooled sweep
        # reports the same global search effort as the inline one
        assert serial > 0
        assert parallel == serial

    def test_untraced_sweep_buffers_nothing(self):
        evaluate(FAST.enumerate(), jobs=1, cache=NullCache())
        assert obs_trace.drain() == []


class TestByteIdentity:
    def _formatted_tables(self):
        from repro import clear_caches
        from repro.harness import (
            format_table_6_2, format_table_6_3, run_table_6_2, run_table_6_3,
        )
        clear_caches()
        sweep = run_table_6_2(factors=(2,))
        return (format_table_6_2(sweep),
                format_table_6_3(run_table_6_3(sweep)))

    def test_goldens_byte_identical_with_tracer_in_full_mode(
            self, monkeypatch):
        g62 = (DATA / "golden_table_6_2_f2.txt").read_text()
        g63 = (DATA / "golden_table_6_3_f2.txt").read_text()
        monkeypatch.setenv("REPRO_TRACE", "full")
        t62, t63 = self._formatted_tables()
        assert t62 == g62
        assert t63 == g63
        obs_trace.drain()


class TestChaosTracing:
    def test_crash_chaos_sweep_still_yields_a_complete_trace(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_FAULTS", "crash@worker:0.3")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        obs_trace.drain()
        retries = obs_metrics.counter("supervise.retries")
        before = retries.value
        queries = FAST.enumerate()
        result = evaluate(queries, jobs=2, cache=NullCache(), retries=40)
        assert not result.fails()
        events = obs_trace.drain()
        flows = [e for e in events if e["name"] == "flow"]
        # every design compiled exactly once in the merged trace, even
        # though some workers died mid-batch and were re-dispatched
        assert len(flows) >= len(queries)
        assert retries.value > before
        assert any(e["name"] == "retry" for e in events)
        assert obs_trace.validate_trace(obs_trace.trace_header(events)) \
            == []
