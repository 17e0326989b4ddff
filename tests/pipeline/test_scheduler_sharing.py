"""One design's scheduling state serves every scheduler of that design.

A squash or jam+squash design's analysis is memoized by (program, nest,
DS, operator library), so ``modulo`` and ``backtrack`` get the same
:class:`~repro.pipeline.artifacts.AnalyzedDFG` and, through its object
identity, the same II-search context: dense problem, MII bounds and the
topological order's placement outcome per II.  These tests pin the
sharing itself and that it never changes a result.
"""

import pytest

import repro
from repro.explore.space import DesignQuery
from repro.hw.report import DesignPoint
from repro.nimble.compiler import _kernel_program, compile_query
from repro.nimble.target import decode_target
from repro.obs import metrics as obs_metrics
from repro.pipeline import AnalysisCache
from repro.pipeline.analysis import squash_analyzed_dfg
from tests.conftest import memo_traffic

SCHEDULERS = ("modulo", "backtrack")

#: squash, jam and jam+squash (J 2) at DS 2/4/8
DESIGNS = tuple((variant, ds, 2 if variant == "jam+squash" else 1)
                for variant in ("squash", "jam", "jam+squash")
                for ds in (2, 4, 8))


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches()
    yield
    repro.clear_caches()


def _query(kernel, variant, ds, jam, target, scheduler):
    return DesignQuery(kernel, variant, ds=ds, jam=jam, target_spec=target,
                       scheduler=scheduler)


def _repair_rounds() -> int:
    return obs_metrics.counter("sched_kernel_numpy_attempts").value


class TestSquashAnalysisMemo:
    def test_repeated_query_returns_the_same_object(self):
        prog, nest = _kernel_program("iir")
        cache = AnalysisCache()
        delay = decode_target("acev").library.delay
        first = squash_analyzed_dfg(prog, nest, 4, delay_fn=delay,
                                    cache=cache)
        again = squash_analyzed_dfg(prog, nest, 4, delay_fn=delay,
                                    cache=cache)
        assert again is first
        assert squash_analyzed_dfg(prog, nest, 2, delay_fn=delay,
                                   cache=cache) is not first

    def test_each_library_gets_its_own_analysis(self):
        prog, nest = _kernel_program("iir")
        cache = AnalysisCache()
        acev = squash_analyzed_dfg(
            prog, nest, 4, delay_fn=decode_target("acev").library.delay,
            cache=cache)
        vliw = squash_analyzed_dfg(
            prog, nest, 4, delay_fn=decode_target("vliw4").library.delay,
            cache=cache)
        assert vliw is not acev
        assert vliw.dfg is acev.dfg          # one shared base graph

    def test_sharing_off_builds_a_fresh_analysis(self, monkeypatch):
        prog, nest = _kernel_program("iir")
        cache = AnalysisCache()
        delay = decode_target("acev").library.delay
        shared = squash_analyzed_dfg(prog, nest, 4, delay_fn=delay,
                                     cache=cache)
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        fresh = squash_analyzed_dfg(prog, nest, 4, delay_fn=delay,
                                    cache=cache)
        assert fresh is not shared
        view = [[(s.nid, d.nid, dist) for s, d, dist in a.edges]
                for a in (fresh, shared)]
        assert view[0] == view[1]


class TestBacktrackReusesModulo:
    @pytest.mark.parametrize("variant,jam", [("squash", 1),
                                             ("jam+squash", 2)])
    def test_backtrack_adds_no_analysis_or_context_miss(self, variant, jam):
        compile_query(_query("iir", variant, 4, jam, "vliw4", "modulo"))
        squash = memo_traffic("squash_analysis")
        ctx = memo_traffic("search_ctx")
        compile_query(_query("iir", variant, 4, jam, "vliw4", "backtrack"))
        assert squash() == (1, 0)
        assert ctx()[1] == 0

    def test_backtrack_replays_no_first_ii_placement(self):
        """Where modulo's topological placement succeeded at the first
        candidate II, backtrack returns it without placing anything."""
        replayed = 0
        for kernel in ("iir", "des-mem", "skipjack-hw"):
            for ds in (2, 4, 8):
                point = compile_query(
                    _query(kernel, "squash", ds, 1, "acev", "modulo"))
                assert isinstance(point, DesignPoint)
                if point.ii != max(point.rec_mii, point.res_mii):
                    continue
                before = _repair_rounds()
                again = compile_query(
                    _query(kernel, "squash", ds, 1, "acev", "backtrack"))
                assert _repair_rounds() == before, (kernel, ds)
                assert again.ii == point.ii
                replayed += 1
        assert replayed > 0


@pytest.mark.parametrize("target", ["acev", "vliw4"])
@pytest.mark.parametrize("kernel", ["iir", "des-mem", "skipjack-hw"])
def test_shared_schedules_equal_each_query_alone(kernel, target):
    """Every design under modulo and then backtrack in one process, each
    record compared with the same query compiled from empty caches."""
    shared = {}
    for variant, ds, jam in DESIGNS:
        for scheduler in SCHEDULERS:
            q = _query(kernel, variant, ds, jam, target, scheduler)
            shared[q] = compile_query(q)
    for q, record in shared.items():
        repro.clear_caches()
        assert compile_query(q) == record, q.label
