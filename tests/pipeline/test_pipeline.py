"""Tests for the staged CompilationPipeline: artifacts, shared analysis,
scheduler resolution, and error provenance."""

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.errors import LegalityError, ScheduleError, VerifyError
from repro.explore import DesignQuery, ResultCache, evaluate
from repro.hw.listsched import ListSchedule
from repro.hw.modulo import ModuloSchedule
from repro.hw.schedulers import _REGISTRY, register_scheduler, \
    scheduler_by_name
from repro.ir import ProgramBuilder, U32
from repro.nimble import compile_original, compile_squash, compile_variants
from repro.obs import metrics as obs_metrics
from repro.pipeline import (
    VARIANT_PLANS, AnalyzedDFG, BuiltKernel, CompilationPipeline,
    PipelineRun, ScheduledDesign, TransformedNest, analysis_cache,
    variant_label,
)
from tests.conftest import ShiftedSink, ShortMakespan, build_fig21, \
    build_fig41, memo_traffic


@pytest.fixture
def fig41_nest():
    prog = build_fig41(m=32, n=16)
    return prog, find_loop_nests(prog)[0]


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches()
    yield
    repro.clear_caches()


def build_illegal_nest():
    """Inner trip count depends on the outer IV: squash-illegal."""
    b = ProgramBuilder("badkernel")
    out = b.array("out", (8,), U32, output=True)
    x = b.local("x", U32)
    b.assign(x, 0)
    with b.loop("i", 0, 8) as i:
        with b.loop("j", 0, i):
            b.assign(x, b.var("x") + 1)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


class TestStageArtifacts:
    def test_run_returns_full_artifact_trail(self, fig41_nest):
        prog, nest = fig41_nest
        run = CompilationPipeline().run(prog, nest, "squash", ds=4)
        assert isinstance(run, PipelineRun)
        assert isinstance(run.built, BuiltKernel)
        assert isinstance(run.transformed, TransformedNest)
        assert isinstance(run.analyzed, AnalyzedDFG)
        assert isinstance(run.scheduled, ScheduledDesign)
        assert run.point.variant == "squash" and run.point.factor == 4

    def test_original_is_list_scheduled(self, fig41_nest):
        prog, nest = fig41_nest
        run = CompilationPipeline().run(prog, nest, "original")
        assert run.scheduled.scheduler == "list"
        assert isinstance(run.scheduled.schedule, ListSchedule)
        assert not run.scheduled.pipelined
        assert run.point.rec_mii == 0 and run.point.res_mii == 0

    def test_pipelined_uses_modulo_by_default(self, fig41_nest):
        prog, nest = fig41_nest
        run = CompilationPipeline().run(prog, nest, "pipelined")
        assert run.scheduled.scheduler == "modulo"
        assert isinstance(run.scheduled.schedule, ModuloSchedule)
        assert run.scheduled.pipelined

    def test_squash_carries_stages_chains_edges(self, fig41_nest):
        prog, nest = fig41_nest
        run = CompilationPipeline().run(prog, nest, "squash", ds=4)
        a = run.analyzed
        assert a.stages is not None and a.stages.ds == 4
        assert a.chains is not None and a.edges is not None

    def test_jam_transform_defers_to_analysis(self, fig41_nest):
        # the transform stage defers and the fused analysis is derived
        # from the untransformed nest by replication (repro.core.jamdfg)
        prog, nest = fig41_nest
        run = CompilationPipeline().run(prog, nest, "jam", ds=2)
        assert run.transformed.derived_jam
        assert run.transformed.program is prog
        assert run.transformed.outer_trip == 32   # pre-transform trips
        assert run.transformed.inner_trip == 16

    def test_jam_transform_rewrites_program(self):
        # a second nest shares the outer IV: the renames cannot tell the
        # nests apart, so the transform stage jams the whole program
        b = ProgramBuilder("twonests")
        inp = b.array("in", (32,), U32)
        out = b.array("out", (32,), U32, output=True)
        x = b.local("x", U32)
        for scale in (1, 3):
            with b.loop("i", 0, 32) as i:
                b.assign(x, inp[i])
                with b.loop("j", 0, 16) as j:
                    b.assign(x, b.var("x") * scale + j)
                out[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        run = CompilationPipeline().run(prog, nest, "jam", ds=2)
        assert not run.transformed.derived_jam
        assert run.transformed.program is not prog
        assert run.transformed.outer_trip == 32   # pre-transform trips
        assert run.transformed.inner_trip == 16

    def test_every_variant_has_a_plan(self):
        from repro.explore.space import VARIANTS
        assert set(VARIANT_PLANS) == set(VARIANTS)

    def test_unknown_variant_rejected(self, fig41_nest):
        prog, nest = fig41_nest
        with pytest.raises(ValueError, match="unknown variant"):
            CompilationPipeline().compile(prog, nest, "unrolled")

    def test_variant_label(self):
        assert variant_label("original") == "original"
        assert variant_label("squash", ds=8) == "squash(8)"
        assert variant_label("jam+squash", ds=4, jam=2) == \
            "jam(2)+squash(4)"


class TestSharedAnalysis:
    def test_variants_share_one_base_analysis(self, fig41_nest):
        prog, nest = fig41_nest
        traffic = memo_traffic("analysis")
        pipe = CompilationPipeline()
        runs = [pipe.run(prog, nest, "original"),
                pipe.run(prog, nest, "pipelined"),
                pipe.run(prog, nest, "squash", ds=2),
                pipe.run(prog, nest, "squash", ds=4)]
        dfgs = {id(r.analyzed.dfg) for r in runs}
        assert len(dfgs) == 1      # one shared DFG across all variants
        assert traffic() == (3, 1)

    def test_clear_caches_drops_shared_analysis(self, fig41_nest):
        prog, nest = fig41_nest
        pipe = CompilationPipeline()
        a = pipe.run(prog, nest, "pipelined").analyzed.dfg
        repro.clear_caches()
        assert len(analysis_cache()) == 0
        b = pipe.run(prog, nest, "pipelined").analyzed.dfg
        assert a is not b

    def test_env_toggle_disables_sharing(self, fig41_nest, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        prog, nest = fig41_nest
        pipe = CompilationPipeline()
        a = pipe.run(prog, nest, "pipelined").analyzed.dfg
        b = pipe.run(prog, nest, "pipelined").analyzed.dfg
        assert a is not b

    def test_sharing_does_not_change_results(self, fig41_nest, monkeypatch):
        prog, nest = fig41_nest
        shared = compile_variants(prog, nest, factors=(2, 4))
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        repro.clear_caches()
        unshared = compile_variants(prog, nest, factors=(2, 4))
        assert [p.__dict__ for p in shared.all_points()] == \
            [p.__dict__ for p in unshared.all_points()]

    def test_lru_bound_holds(self, fig41_nest):
        from repro.pipeline import AnalysisCache
        cache = AnalysisCache(maxsize=2)
        progs = [build_fig41(m=8 * (i + 1)) for i in range(3)]
        for p in progs:
            nest = find_loop_nests(p)[0]
            cache.get_or_build(p, nest)
        assert len(cache) == 2     # oldest entry evicted

    def test_illegal_nest_failure_is_cached(self):
        prog, nest = build_illegal_nest()
        traffic = memo_traffic("analysis")
        pipe = CompilationPipeline()
        for _ in range(2):
            with pytest.raises(LegalityError):
                pipe.compile(prog, nest, "original")
        assert traffic() == (1, 1)


class TestErrorProvenance:
    def test_legality_error_names_kernel_and_variant(self):
        prog, nest = build_illegal_nest()
        with pytest.raises(LegalityError) as exc:
            compile_squash(prog, nest, 4)
        msg = str(exc.value)
        assert "badkernel" in msg and "squash(4)" in msg
        assert "target=acev" in msg
        assert exc.value.reasons  # structured reasons preserved

    def test_schedule_error_names_scheduler(self, fig41_nest):
        class Failing:
            name = "failing"
            pipelined = True

            def schedule(self, dfg, lib, edges=None, max_ii=None):
                raise ScheduleError("no schedule found (synthetic)")

        register_scheduler(Failing())
        try:
            prog, nest = fig41_nest
            pipe = CompilationPipeline(scheduler="failing")
            with pytest.raises(ScheduleError) as exc:
                pipe.compile(prog, nest, "pipelined")
            msg = str(exc.value)
            assert "fig41/pipelined" in msg
            assert "scheduler=failing" in msg
            assert "no schedule found" in msg
        finally:
            _REGISTRY.pop("failing", None)

    def test_provenance_not_stacked_twice(self):
        prog, nest = build_illegal_nest()
        with pytest.raises(LegalityError) as exc:
            compile_squash(prog, nest, 4)
        assert str(exc.value).count("badkernel") == 1

    def test_non_pipelined_strategy_rejected_for_pipelined(self, fig41_nest):
        prog, nest = fig41_nest
        pipe = CompilationPipeline(scheduler="list")
        with pytest.raises(ScheduleError, match="not a pipelined strategy"):
            pipe.compile(prog, nest, "pipelined")

    def test_unresolvable_scheduler_is_schedule_error(self, fig41_nest):
        # a strategy missing from this process's registry (e.g. custom
        # one under spawn workers) must skip structurally, not crash
        prog, nest = fig41_nest
        pipe = CompilationPipeline(scheduler="not-registered-here")
        with pytest.raises(ScheduleError, match="unknown scheduler"):
            pipe.compile(prog, nest, "pipelined")


class TestAlwaysOnScheduleCheck:
    """With ``REPRO_VERIFY`` unset, the validate stage still runs the
    independent re-verifier: a planted scheduler bug is rejected as a
    compiler fault, never reported as a design or cached as a skip."""

    @pytest.fixture(autouse=True)
    def _verify_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)

    def test_precedence_break_is_rejected(self, fig41_nest, plant_scheduler):
        plant_scheduler(ShiftedSink("shifted", scheduler_by_name("modulo")))
        prog, nest = fig41_nest
        with pytest.raises(VerifyError) as exc:
            CompilationPipeline(scheduler="shifted").compile(
                prog, nest, "squash", ds=4)
        assert exc.value.findings[0].checker == "schedule.precedence"
        assert exc.value.provenance == \
            "fig41/squash(4) [target=acev, scheduler=shifted]"

    def test_rejected_design_is_quarantined_not_cached(self, tmp_path,
                                                       plant_scheduler):
        plant_scheduler(ShiftedSink("shifted", scheduler_by_name("modulo")))
        q = DesignQuery("iir", "squash", ds=2, scheduler="shifted")
        result = evaluate([q], jobs=1, cache=ResultCache(tmp_path),
                          retries=0)
        assert not result.points() and not result.skips()
        [fail] = result.fails()
        assert fail.query == q and "schedule.precedence" in fail.reason
        assert ResultCache(tmp_path).get(q) is None

    def test_short_modulo_makespan_is_rejected(self, fig41_nest,
                                               plant_scheduler):
        plant_scheduler(ShortMakespan("short", scheduler_by_name("modulo")))
        prog, nest = fig41_nest
        with pytest.raises(VerifyError) as exc:
            CompilationPipeline(scheduler="short").compile(
                prog, nest, "pipelined")
        assert [f.checker for f in exc.value.findings] == ["schedule.length"]

    def test_short_list_makespan_is_rejected(self, fig41_nest,
                                             plant_scheduler):
        # the original design's II is its list schedule's makespan
        plant_scheduler(ShortMakespan("list", scheduler_by_name("list")))
        prog, nest = fig41_nest
        with pytest.raises(VerifyError) as exc:
            CompilationPipeline().compile(prog, nest, "original")
        assert [f.checker for f in exc.value.findings] == ["schedule.length"]
        assert "scheduler=list" in exc.value.provenance


class _Logged:
    """``base`` under its own name, appending one line per schedule call
    to ``path`` (appends survive forked pool workers)."""

    def __init__(self, base, path):
        self.name, self.base, self.pipelined = base.name, base, base.pipelined
        self.path = path

    def schedule(self, dfg, lib, edges=None, max_ii=None, min_ii=None):
        with open(self.path, "a") as fh:
            fh.write(f"{self.name}\n")
        return self.base.schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                  min_ii=min_ii)


class TestVerifyFaultQuarantine:
    """A ``VerifyError`` is deterministic: the design is quarantined after
    one compile, its batch neighbours compile once and are cached, and
    nothing is retried or bisected (retrying a 3-design batch twice and
    then bisecting it costs 15 schedule calls)."""

    @pytest.fixture(autouse=True)
    def _verify_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)

    def _sweep(self, queries, jobs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        retries = obs_metrics.counter("supervise.retries")
        before = retries.value
        result = evaluate(queries, jobs=jobs, cache=cache, retries=2)
        assert retries.value == before
        assert result.supervision["retries"] == 0
        assert result.supervision["bisections"] == 0
        return result, ResultCache(tmp_path / "cache")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lone_culprit(self, jobs, tmp_path, plant_scheduler):
        log = tmp_path / "calls.txt"
        plant_scheduler(ShiftedSink(
            "shifted", _Logged(scheduler_by_name("modulo"), log)))
        culprit = DesignQuery("iir", "squash", ds=2, scheduler="shifted")
        other = DesignQuery("iir", "original")   # a batch of its own
        result, cache = self._sweep([culprit, other], jobs, tmp_path)
        [fail] = result.fails()
        assert (fail.query, fail.kind, fail.attempts) == (culprit, "verify", 1)
        assert "schedule.precedence" in fail.reason
        assert log.read_text().splitlines() == ["modulo"]
        assert result.supervision["quarantined"] == 1
        assert cache.get(culprit) is None
        assert cache.get(other) == result.results[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_planted_backtrack_spares_its_modulo_twin(self, jobs, tmp_path,
                                                      plant_scheduler):
        log = tmp_path / "calls.txt"
        plant_scheduler(_Logged(scheduler_by_name("modulo"), log))
        plant_scheduler(ShiftedSink(
            "backtrack", _Logged(scheduler_by_name("backtrack"), log)))
        # two (kernel, variant) batches, so jobs=2 splits neither
        queries = [DesignQuery("iir", variant, ds=2, scheduler=s)
                   for variant in ("squash", "jam")
                   for s in ("modulo", "backtrack")]
        result, cache = self._sweep(queries, jobs, tmp_path)
        assert sorted(log.read_text().splitlines()) == \
            ["backtrack", "backtrack", "modulo", "modulo"]
        assert [f.query for f in result.fails()] == queries[1::2]
        assert all(f.kind == "verify" and f.attempts == 1
                   for f in result.fails())
        assert result.supervision["quarantined"] == 2
        for q, r in zip(queries, result.results):
            if q.scheduler == "modulo":
                assert r.ii > 0 and cache.get(q) == r
            else:
                assert cache.get(q) is None


class TestThinWrappers:
    def test_wrappers_match_pipeline(self, fig41_nest):
        prog, nest = fig41_nest
        pipe = CompilationPipeline()
        assert compile_original(prog, nest).__dict__ == \
            pipe.compile(prog, nest, "original").__dict__
        assert compile_squash(prog, nest, 4).__dict__ == \
            pipe.compile(prog, nest, "squash", ds=4).__dict__

    def test_compile_query_scheduler_threading(self):
        from repro.explore.space import DesignQuery
        from repro.nimble.compiler import compile_query
        q = DesignQuery("iir", "squash", ds=2, scheduler="backtrack")
        point = compile_query(q)
        base = compile_query(DesignQuery("iir", "squash", ds=2))
        assert point.ii <= base.ii

    def test_scheduler_choice_flows_from_target(self):
        prog = build_fig21(m=8, n=4)
        nest = find_loop_nests(prog)[0]
        from repro.nimble.target import decode_target
        t = decode_target("acev::scheduler=backtrack")
        run = CompilationPipeline(t).run(prog, nest, "pipelined")
        assert run.scheduled.scheduler == "backtrack"
