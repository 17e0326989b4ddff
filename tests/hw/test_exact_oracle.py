"""Differential testing: the exact scheduler as the heuristics' oracle.

Every Table 6.1 workload x pipelined variant is replayed through
``exact``, ``modulo``, and ``backtrack``; the oracle certifies the
minimum II, so the heuristics must never beat it, every emitted
schedule must replay cleanly through the (fixed) simulator, and the
known heuristic gaps — e.g. the iterative scheduler losing 3 cycles on
``des-mem``'s pipelined design — stay pinned.

The fast half sweeps factors (2, 4); the ``slow`` half (excluded from
tier-1, run as a separate non-blocking CI job) widens to the full
factor set, the combined jam+squash variant, and random nests.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.explore import DesignSpace, evaluate, format_pareto
from repro.hw import ACEV_LIBRARY, squash_distances
from repro.hw.exact import exact_modulo_schedule
from repro.hw.mii import default_edge_view
from repro.hw.schedulers import backtracking_modulo_schedule, \
    modulo_schedule
from repro.ir.randgen import random_squashable_nest
from repro.obs import metrics as obs_metrics
from repro.verify import reverify_modulo
from repro.workloads import table_6_1_benchmarks

SCHEDULERS = ("modulo", "backtrack", "exact")
PIPELINED_VARIANTS = ("pipelined", "squash", "jam")


def _kernels():
    return tuple(bm.name for bm in table_6_1_benchmarks())


def _grouped(result):
    """(kernel, variant, ds, jam) -> {scheduler: DesignPoint}."""
    groups = {}
    for q, p in result.pairs():
        groups.setdefault((q.kernel, q.variant, q.ds, q.jam), {})[
            q.scheduler] = p
    return groups


def _oracle_space(factors, variants=PIPELINED_VARIANTS, jam_factors=(2,)):
    return DesignSpace(kernels=_kernels(), variants=variants,
                       factors=factors, jam_factors=jam_factors,
                       schedulers=SCHEDULERS)


@pytest.fixture(scope="module")
def oracle_result():
    space = _oracle_space(factors=(2, 4))
    return evaluate(space.enumerate(), jobs=None)


class TestOracle:
    def test_every_design_schedules_under_all_strategies(self, oracle_result):
        assert not oracle_result.skips(), \
            [(s.label, s.reason) for s in oracle_result.skips()]
        # 5 kernels x (pipelined + 2 squash + 2 jam) x 3 schedulers
        assert len(oracle_result.points()) == 5 * 5 * 3

    def test_heuristics_never_beat_exact(self, oracle_result):
        for key, by_sched in _grouped(oracle_result).items():
            exact = by_sched["exact"]
            for name in ("modulo", "backtrack"):
                assert by_sched[name].ii >= exact.ii, \
                    f"{key}: {name} II {by_sched[name].ii} beats " \
                    f"certified optimum {exact.ii}"

    def test_every_exact_point_is_certified(self, oracle_result):
        for (kernel, variant, ds, jam), by_sched in \
                _grouped(oracle_result).items():
            exact = by_sched["exact"]
            assert exact.exact_ii == exact.ii, \
                f"{kernel}/{variant}({ds}) fell back uncertified"

    def test_known_heuristic_gaps_stay_pinned(self, oracle_result):
        """The oracle's reason to exist: real suboptimality it caught."""
        groups = _grouped(oracle_result)
        des = groups[("des-mem", "pipelined", 1, 1)]
        assert des["exact"].ii == 16
        assert des["modulo"].ii == 19       # iterative IMS loses 3 cycles
        assert des["backtrack"].ii == 16    # slack orders recover them
        sq2 = groups[("des-mem", "squash", 2, 1)]
        assert (sq2["modulo"].ii, sq2["exact"].ii) == (10, 8)

    def test_gap_propagates_across_scheduler_axis(self, oracle_result):
        oracle_result.attach_exact_ii()
        groups = _grouped(oracle_result)
        des = groups[("des-mem", "pipelined", 1, 1)]
        assert des["modulo"].exact_ii == 16
        assert des["modulo"].optimality_gap == 3
        assert des["backtrack"].optimality_gap == 0

    def test_pareto_report_shows_gap_column(self, oracle_result):
        text = format_pareto(oracle_result)
        assert "gap" in text.splitlines()[2], \
            "gap column missing from the Pareto table header"

    def test_gap_propagates_across_target_spec_scheduler_modifier(self):
        # the scheduler can also ride in the target spec; that names the
        # same physical design, so the certified optimum must still flow
        from repro.explore import DesignQuery
        queries = [DesignQuery("des-mem", "pipelined",
                               target_spec="acev::scheduler=exact"),
                   DesignQuery("des-mem", "pipelined",
                               target_spec="acev")]
        result = evaluate(queries, jobs=1)
        result.attach_exact_ii()
        exact_pt, modulo_pt = result.results
        assert exact_pt.exact_ii == exact_pt.ii == 16
        assert modulo_pt.exact_ii == 16
        assert modulo_pt.optimality_gap == 3


class TestOracleReplay:
    """Re-derive a sample of schedules in-process and replay them
    through the fixed simulator with a window covering every distance."""

    @pytest.mark.parametrize("kernel", ["iir", "des-mem"])
    @pytest.mark.parametrize("ds", [1, 4])
    def test_schedules_replay_clean(self, kernel, ds):
        bm = next(b for b in table_6_1_benchmarks() if b.name == kernel)
        prog = bm.build(**bm.eval_kwargs)
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None
        view = edges or default_edge_view(dfg)
        exact = exact_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        for sched in (exact,
                      modulo_schedule(dfg, ACEV_LIBRARY, edges=edges),
                      backtracking_modulo_schedule(dfg, ACEV_LIBRARY,
                                                   edges=edges)):
            assert sched.ii >= exact.ii
            assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []
            for s, d, dist in view:
                assert sched.time[d.nid] + sched.ii * dist >= \
                    sched.time[s.nid] + ACEV_LIBRARY.delay(s)

    @given(seed=st.integers(0, 2000), ds=st.sampled_from([1, 2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_random_nests_exact_never_worse(self, seed, ds):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None
        exact = exact_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert exact.ii <= modulo_schedule(dfg, ACEV_LIBRARY,
                                           edges=edges).ii
        assert reverify_modulo(dfg, ACEV_LIBRARY, exact, edges) == []


class TestIncrementalSearchParity:
    """The incremental II search (shared preds/topo, memoized RecMII,
    skipped refuted candidates, reused exact certificates) must be
    observationally identical to the from-scratch search — same IIs,
    same start times, same certificates — across the whole oracle
    space (memo-warm, or over analyses read back from the disk store)
    and on direct scheduler calls."""

    def test_whole_suite_matches_from_scratch(self, monkeypatch, tmp_path):
        space = _oracle_space(factors=(2, 4))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # empty store
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "1")  # sharing on
        repro.clear_caches(memory_only=True)  # so the first run fills them
        incremental = evaluate(space.enumerate(), jobs=1)
        replay = evaluate(space.enumerate(), jobs=1)  # memo-warm replay
        # a fresh process against the populated analysis store: the
        # in-process tiers are dropped, the analyses on disk are kept and
        # must be read back (and their DFGs rebuilt)
        repro.clear_caches(memory_only=True)
        analysis = obs_metrics.counter("analysis_disk_hits")
        before = analysis.value
        recompile = evaluate(space.enumerate(), jobs=1)
        assert analysis.value > before
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")  # memo fully off
        scratch = evaluate(space.enumerate(), jobs=1)
        assert incremental.results == scratch.results
        assert replay.results == scratch.results
        assert recompile.results == scratch.results

    @pytest.mark.parametrize("kernel", ["iir", "des-mem"])
    @pytest.mark.parametrize("ds", [1, 2])
    def test_memo_replay_bit_identical_schedules(self, monkeypatch,
                                                 tmp_path, kernel, ds):
        from repro.hw import iimemo

        bm = next(b for b in table_6_1_benchmarks() if b.name == kernel)
        prog = bm.build(**bm.eval_kwargs)
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None

        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        scratch = {
            "modulo": modulo_schedule(dfg, ACEV_LIBRARY, edges=edges),
            "backtrack": backtracking_modulo_schedule(dfg, ACEV_LIBRARY,
                                                      edges=edges),
            "exact": exact_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges),
        }

        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        iimemo.MEMO.clear()
        memo_hits = obs_metrics.counter("iimemo_mem_hits")
        before = memo_hits.value
        for attempt in ("populate", "replay"):
            replay = {
                "modulo": modulo_schedule(dfg, ACEV_LIBRARY, edges=edges),
                "backtrack": backtracking_modulo_schedule(
                    dfg, ACEV_LIBRARY, edges=edges),
                "exact": exact_modulo_schedule(dfg, ACEV_LIBRARY,
                                               edges=edges),
            }
            for name, sched in replay.items():
                want = scratch[name]
                assert sched.ii == want.ii, (attempt, name)
                assert sched.time == want.time, (attempt, name)
                assert (sched.rec_mii, sched.res_mii) == \
                    (want.rec_mii, want.res_mii), (attempt, name)
                assert sched.length == want.length, (attempt, name)
            assert replay["exact"].certified == scratch["exact"].certified
            assert replay["exact"].failed == scratch["exact"].failed
        # the replay round must actually have used the memo
        assert memo_hits.value > before

    def test_memo_replays_schedule_failure_identically(self, monkeypatch,
                                                       tmp_path):
        from repro.errors import ScheduleError
        from repro.hw import iimemo

        # cap the II search below des-mem's feasible range: the search
        # fails, and the failure (message included) must replay
        # identically through the memo
        bm = next(b for b in table_6_1_benchmarks() if b.name == "des-mem")
        prog = bm.build(**bm.eval_kwargs)
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                          delay_fn=ACEV_LIBRARY.delay)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        iimemo.MEMO.clear()
        memo_hits = obs_metrics.counter("iimemo_mem_hits")
        before = memo_hits.value
        with pytest.raises(ScheduleError) as cold:
            modulo_schedule(dfg, ACEV_LIBRARY, max_ii=3)
        with pytest.raises(ScheduleError) as warm:
            modulo_schedule(dfg, ACEV_LIBRARY, max_ii=3)
        assert str(cold.value) == str(warm.value)
        assert memo_hits.value > before


@pytest.mark.slow
class TestExhaustiveOracle:
    """The full design space, including jam+squash and all factors —
    minutes of exact search, run as a separate non-blocking CI job."""

    @pytest.fixture(scope="class")
    def full_result(self):
        space = _oracle_space(
            factors=(2, 4, 8, 16),
            variants=("pipelined", "squash", "jam", "jam+squash"))
        return evaluate(space.enumerate(), jobs=None)

    def test_no_skips_and_full_coverage(self, full_result):
        assert not full_result.skips(), \
            [(s.label, s.reason) for s in full_result.skips()]
        # 5 kernels x (pipelined + 4 squash + 4 jam + 4 jam+squash) x 3
        assert len(full_result.points()) == 5 * 13 * 3

    def test_heuristics_never_beat_exact_anywhere(self, full_result):
        for key, by_sched in _grouped(full_result).items():
            exact = by_sched["exact"]
            assert exact.exact_ii == exact.ii, f"{key} uncertified"
            for name in ("modulo", "backtrack"):
                assert by_sched[name].ii >= exact.ii, key

    @given(seed=st.integers(0, 5000), ds=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_random_nests_wide_sweep(self, seed, ds):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None
        exact = exact_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        bt = backtracking_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert exact.ii <= bt.ii
        assert reverify_modulo(dfg, ACEV_LIBRARY, exact, edges) == []
