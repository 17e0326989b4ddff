"""Engine behavior: parallel == serial, skip capture, cache wiring,
and equivalence with the legacy serial compilation path."""

import pytest

from repro.explore import (
    DesignQuery, DesignSpace, ExploreResult, ResultCache, SkipRecord,
    best_designs, evaluate, format_best, format_pareto, format_skips,
    format_summary,
)
from repro.hw.report import DesignPoint

FAST = DesignSpace(kernels=("iir",), factors=(2,))


@pytest.fixture(scope="module")
def iir_result():
    return evaluate(FAST.enumerate(), jobs=1)


class TestEvaluate:
    def test_results_align_with_queries(self, iir_result):
        assert len(iir_result.results) == len(iir_result.queries) == 4
        for q, r in iir_result.pairs():
            assert isinstance(r, DesignPoint)
            assert r.kernel == "iir" and r.variant == q.variant

    def test_parallel_matches_serial(self):
        # two fresh runs: immune to other tests mutating shared fixtures
        ser = evaluate(FAST.enumerate(), jobs=1)
        par = evaluate(FAST.enumerate(), jobs=2)
        assert par.results == ser.results

    def test_skips_are_captured_not_raised(self):
        qs = [DesignQuery("wavelet", "squash", ds=4),
              DesignQuery("iir", "original")]
        res = evaluate(qs, jobs=1)
        assert isinstance(res.results[0], SkipRecord)
        assert res.results[0].phase == "legality"
        assert isinstance(res.results[1], DesignPoint)
        assert format_skips(res)  # renders a table

    def test_skip_reasons_render_without_provenance(self):
        """The reason column drops the ``kernel/label [target=...,
        scheduler=...]: `` prefix (it repeats the kernel and design
        columns), even for long labels and ``lang:`` kernel names; the
        records themselves are not touched."""
        q = DesignQuery("lang:kernels/k.lang#0123456789ab", "jam+squash",
                        ds=16, jam=2, target_spec="vliw4",
                        scheduler="backtrack")
        reason = (f"{q.kernel}/jam(2)+squash(16) [target=vliw4, "
                  "scheduler=backtrack]: register pressure >= 99 exceeds "
                  "the 64-entry register file at every II >= 40 "
                  "(recurrence cycles alone)")
        skip = SkipRecord(q, "schedule", reason)
        text = format_skips(ExploreResult(queries=[q], results=[skip]))
        assert "register pressure >= 99 exceeds the 64-entry" in text
        assert "[target=" not in text
        assert skip.reason == reason

    def test_skips_survive_the_pool(self):
        qs = [DesignQuery("wavelet", "squash", ds=4),
              DesignQuery("mpeg2", "squash", ds=4)]
        res = evaluate(qs, jobs=2)
        assert all(isinstance(r, SkipRecord) for r in res.results)

    def test_attach_base_ii(self, iir_result):
        iir_result.attach_base_ii()
        orig = next(r for q, r in iir_result.pairs()
                    if q.variant == "original")
        for q, r in iir_result.pairs():
            if q.variant in ("original", "pipelined"):
                assert r.base_ii is None  # serial path leaves these unset
            else:
                assert r.base_ii == orig.ii

    def test_unknown_kernel_is_quarantined(self):
        # unclassified exceptions no longer abort the sweep: the
        # supervised engine retries, then quarantines the culprit with
        # provenance, and the neighbor still evaluates
        from repro.explore import FailRecord, format_fails
        from repro.obs import metrics as obs_metrics
        quarantined = obs_metrics.counter("supervise.quarantined")
        before = quarantined.value
        res = evaluate([DesignQuery("nope", "original"),
                        DesignQuery("iir", "original")],
                       jobs=1, retries=1)
        fail = res.results[0]
        assert isinstance(fail, FailRecord)
        assert fail.kind == "exception"
        assert "KeyError" in fail.reason and "nope" in fail.reason
        assert fail.attempts == 2  # initial dispatch + one retry
        assert isinstance(res.results[1], DesignPoint)
        assert quarantined.value - before == 1
        assert "Quarantined" in format_fails(res)
        assert "1 failed (quarantined)" in format_summary(res)

    def test_quarantined_queries_are_never_cached(self, tmp_path):
        q = DesignQuery("nope", "original")
        cache = ResultCache(tmp_path)
        evaluate([q], jobs=1, retries=0, cache=cache)
        assert cache.stats.stores == 0
        warm = evaluate([q], jobs=1, retries=0, cache=ResultCache(tmp_path))
        assert warm.cache_stats.hits == 0  # the re-run retried it

    def test_duplicate_queries_cost_one_compile(self, tmp_path):
        q = DesignQuery("iir", "original")
        res = evaluate([q, q, q], jobs=1, cache=ResultCache(tmp_path))
        assert res.cache_stats.misses == 1
        assert res.cache_stats.stores == 1
        assert res.results[0] == res.results[1] == res.results[2]
        assert isinstance(res.results[0], DesignPoint)


class TestEngineCache:
    def test_second_run_is_all_hits(self, tmp_path):
        qs = FAST.enumerate()
        cold = evaluate(qs, jobs=1, cache=ResultCache(tmp_path))
        assert cold.cache_stats.misses == len(qs)
        assert cold.cache_stats.stores == len(qs)

        warm = evaluate(qs, jobs=1, cache=ResultCache(tmp_path))
        assert warm.cache_stats.hits == len(qs)
        assert warm.cache_stats.hit_rate >= 0.9
        assert warm.results == cold.results

    def test_partial_hit_fills_only_the_gap(self, tmp_path):
        qs = FAST.enumerate()
        evaluate(qs[:2], jobs=1, cache=ResultCache(tmp_path))
        mixed = evaluate(qs, jobs=1, cache=ResultCache(tmp_path))
        assert mixed.cache_stats.hits == 2
        assert mixed.cache_stats.misses == len(qs) - 2

    def test_reused_cache_reports_per_run_stats(self, tmp_path):
        qs = FAST.enumerate()
        cache = ResultCache(tmp_path)
        evaluate(qs, jobs=1, cache=cache)
        warm = evaluate(qs, jobs=1, cache=cache)  # same instance
        assert warm.cache_stats.hits == len(qs)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate == 1.0

    def test_cached_skips_replay(self, tmp_path):
        q = DesignQuery("wavelet", "squash", ds=4)
        evaluate([q], jobs=1, cache=ResultCache(tmp_path))
        warm = evaluate([q], jobs=1, cache=ResultCache(tmp_path))
        assert warm.cache_stats.hits == 1
        assert isinstance(warm.results[0], SkipRecord)


class TestAgainstSerialPath:
    """The engine must reproduce compile_variants point-for-point."""

    def test_matches_compile_variants(self, iir_result):
        from repro.analysis.loops import find_kernel_nests
        from repro.nimble import compile_variants
        from repro.workloads import benchmark_by_name

        bm = benchmark_by_name("iir")
        prog = bm.build(**bm.eval_kwargs)
        vs = compile_variants(prog, find_kernel_nests(prog)[0],
                              factors=(2,))
        iir_result.attach_base_ii()
        by_label = {q.label: r for q, r in iir_result.pairs()}
        for point in vs.all_points():
            assert by_label[point.label] == point


#: The Table 6.1 kernels, in the table's order.
SUITE = ("skipjack-mem", "skipjack-hw", "des-mem", "des-hw", "iir")


def _suite_queries(target, kernels=SUITE):
    return DesignSpace(kernels=kernels,
                       variants=("pipelined", "squash", "jam"),
                       factors=(2, 4), target_specs=(target,),
                       schedulers=("modulo", "backtrack")).enumerate()


def _kernel_runs(qs, batch):
    """The batch's kernels in dispatch order, one entry per run of
    consecutive queries of one kernel."""
    runs = []
    for p in batch:
        if not runs or runs[-1] != qs[p].kernel:
            runs.append(qs[p].kernel)
    return runs


class TestBatching:
    """Dispatch groups by (kernel, variant), joins the groups of one
    scheduling class, and sends the heaviest batch first."""

    def test_batches_group_by_kernel_variant(self):
        from repro.explore.engine import _batched
        qs = [DesignQuery("iir", "squash", ds=2),
              DesignQuery("iir", "jam", ds=2),
              DesignQuery("iir", "squash", ds=4),
              DesignQuery("des-mem", "squash", ds=2)]
        assert _batched(qs) == [[0, 2], [1], [3]]

    def test_large_groups_split_to_honour_jobs(self):
        from repro.explore.engine import _batched
        qs = [DesignQuery("iir", "squash", ds=f)
              for f in (2, 4, 8, 16, 32, 64)]
        assert _batched(qs) == [[0, 1, 2, 3, 4, 5]]
        assert _batched(qs, jobs=3) == [[0, 1], [2, 3], [4, 5]]
        assert _batched(qs, jobs=100) == [[i] for i in range(6)]

    def test_vliw4_joins_the_mem_and_hw_groups(self):
        from repro.explore.engine import _batched
        qs = _suite_queries("vliw4")
        batches = _batched(qs)
        # three scheduling classes (skipjack, des, iir) x three variants
        assert len(batches) == 9
        runs = sorted(_kernel_runs(qs, b) for b in batches)
        assert runs == sorted(3 * [["skipjack-mem", "skipjack-hw"],
                                   ["des-mem", "des-hw"], ["iir"]])
        for batch in batches:
            assert len({qs[p].variant for p in batch}) == 1
            for kernel in {qs[p].kernel for p in batch}:
                # the kernel's queries keep their relative order: its
                # modulo queries, then its backtrack queries
                own = [p for p in batch if qs[p].kernel == kernel]
                assert own == sorted(own)
                scheds = [qs[p].scheduler for p in own]
                assert scheds == sorted(scheds, key=("modulo",
                                                     "backtrack").index)

    def test_acev_keeps_one_kernel_per_batch(self):
        from repro.explore.engine import _batched
        qs = _suite_queries("acev")
        batches = _batched(qs)
        assert len(batches) == 15
        assert all(len(_kernel_runs(qs, b)) == 1 for b in batches)

    def test_iir_and_lang_kernels_are_never_built_or_joined(self):
        import repro
        from repro.explore.engine import _batched
        from repro.lang.loader import lang_spec
        from repro.nimble.compiler import _kernel_program

        clamp = lang_spec("examples/clamp.lang")
        qs = _suite_queries("vliw4", kernels=("iir", clamp, "des-mem",
                                              "des-hw"))
        repro.clear_caches(memory_only=True)
        batches = _batched(qs)
        # only the two des kernels were built, to compare their classes
        assert _kernel_program.cache_info().currsize == 2
        for batch in batches:
            kernels = _kernel_runs(qs, batch)
            if "iir" in kernels or clamp in kernels:
                assert len(kernels) == 1

    def test_heaviest_batch_dispatches_first(self):
        from repro.explore.engine import _batched
        qs = [DesignQuery("iir", "squash", ds=8),        # weight 1
              DesignQuery("iir", "jam", ds=2),           # 2
              DesignQuery("iir", "jam+squash", ds=2, jam=4),  # 4
              DesignQuery("iir", "pipelined"),           # 1
              DesignQuery("iir", "jam", ds=4),           # jam: 2 + 4
              DesignQuery("iir", "original")]            # 1
        assert _batched(qs) == [[1, 4], [2], [0], [3], [5]]

    def test_dispatch_weights_do_not_follow_the_kernel_order(self):
        from repro.explore.engine import _batched, _weight

        def weights(kernels):
            qs = _suite_queries("vliw4", kernels)
            return [sum(_weight(qs[p]) for p in batch)
                    for batch in _batched(qs)]

        forward = weights(SUITE)
        assert forward == sorted(forward, reverse=True)
        assert weights(SUITE[::-1]) == forward

    def test_single_kernel_factor_sweep_parallel_matches_serial(self):
        space = DesignSpace(kernels=("iir",), variants=("squash",),
                            factors=(2, 4, 8))
        ser = evaluate(space.enumerate(), jobs=1)
        par = evaluate(space.enumerate(), jobs=3)
        assert par.results == ser.results

    def test_batch_payload_shape(self):
        from repro.nimble.compiler import compile_query_batch
        payload = compile_query_batch([DesignQuery("iir", "original"),
                                       DesignQuery("iir", "pipelined")])
        assert set(payload) == {"results", "metrics"}
        assert len(payload["results"]) == 2
        assert all(isinstance(r, DesignPoint) for r in payload["results"])

    def test_stage_seconds_cover_fresh_compiles_only(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        def stage_histograms(jobs):
            before = obs_metrics.registry().snapshot()
            evaluate(qs, jobs=jobs, cache=ResultCache(tmp_path))
            delta = obs_metrics.registry().delta_since(before)
            return {name for name in delta["histograms"]
                    if name.startswith("stage.")}

        qs = FAST.enumerate()
        assert stage_histograms(2) >= {"stage.analyze", "stage.schedule"}
        # all hits: no worker time lands in the registry
        assert stage_histograms(2) == set()

    def test_batched_parallel_matches_serial_with_mixed_cache(self,
                                                             tmp_path):
        # half the space pre-cached: the batch layer must stitch cached
        # and fresh results back into query order
        qs = FAST.enumerate()
        evaluate(qs[::2], jobs=1, cache=ResultCache(tmp_path))
        mixed = evaluate(qs, jobs=2, cache=ResultCache(tmp_path))
        serial = evaluate(qs, jobs=1)
        assert mixed.results == serial.results


class TestLabels:
    def test_jam_squash_point_label_unambiguous(self):
        # factor alone is ambiguous: jam(4)+squash(2) and jam(2)+squash(4)
        # both have factor 8 — squash_ds disambiguates
        kw = dict(kernel="k", variant="jam+squash", ii=1, op_rows=1,
                  registers=1, reg_rows=1.0, rec_mii=0, res_mii=0,
                  outer_trip=0, inner_trip=0)
        assert DesignPoint(factor=8, squash_ds=2, **kw).label == \
            "jam(4)+squash(2)"
        assert DesignPoint(factor=8, squash_ds=4, **kw).label == \
            "jam(2)+squash(4)"


class TestReports:
    def test_summary_counts(self, iir_result):
        text = format_summary(iir_result)
        assert "4 evaluated, 0 skipped" in text and "cache:" in text

    def test_pareto_contains_original(self, iir_result):
        text = format_pareto(iir_result)
        assert "Pareto frontier" in text
        assert "original" in text and "speedup" in text

    def test_best_designs_ranking(self, iir_result):
        ranked = best_designs(iir_result, "speedup")
        norms = ranked[("iir", "acev")]
        speedups = [n.speedup for n in norms]
        assert speedups == sorted(speedups, reverse=True)
        # a transformed design beats the original baseline (speedup 1.0)
        assert norms[0].point.variant in ("squash", "jam")
        assert norms[0].speedup > 1.0
        assert format_best(iir_result)
