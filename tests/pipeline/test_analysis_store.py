"""The two-tier analysis cache: LRU bounds, disk round-trips of the
stored form, and the content keys that make cross-process sharing
sound."""

import pytest

from repro.analysis.loops import find_kernel_nests, find_loop_nests
from repro.caches import Memo
from repro.core.legality import PreparedSquash, classify_squash
from repro.pipeline.analysis import (
    AnalysisCache, BaseAnalysis, content_key,
)
from tests.conftest import build_fig21, build_fig41, memo_traffic


def _nest(prog):
    return find_loop_nests(prog)[0]


class TestLRUEviction:
    def test_maxsize_actually_bounds_entries(self):
        """The satellite guarantee: ``maxsize`` bounds memory."""
        cache = AnalysisCache(maxsize=3)
        programs = [build_fig41(m=6 + i) for i in range(8)]
        for prog in programs:
            cache.get_or_build(prog, _nest(prog))
        assert len(cache) <= 3

    def test_eviction_is_lru_ordered(self):
        cache = AnalysisCache(maxsize=2)
        p1, p2, p3 = (build_fig41(m=6 + i) for i in range(3))
        cache.get_or_build(p1, _nest(p1))
        cache.get_or_build(p2, _nest(p2))
        cache.get_or_build(p1, _nest(p1))   # refresh p1
        cache.get_or_build(p3, _nest(p3))   # evicts p2, not p1
        traffic = memo_traffic("analysis")
        cache.get_or_build(p1, _nest(p1))
        assert traffic() == (1, 0)  # p1 survived

    def test_pinning_lru_bound_under_churn(self):
        lru = Memo("test_churn", maxsize=4)
        for i in range(100):
            lru.get(i, lambda: i * 2)
            assert len(lru) <= 4
        assert lru.get(99, lambda: -1) == 198
        assert lru.get(0, lambda: -1) == -1   # evicted: recomputed


class TestDiskTier:
    def test_fresh_cache_hits_disk_not_rebuild(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.store import analysis_store
        prog = build_fig21()
        nest = _nest(prog)
        AnalysisCache().get_or_build(prog, nest)
        before = analysis_store().stats.hits
        # a different AnalysisCache (fresh process stand-in), same content
        clone = build_fig21()
        base = AnalysisCache().get_or_build(clone, _nest(clone))
        assert analysis_store().stats.hits > before
        assert isinstance(base, BaseAnalysis)
        assert base.dfg is not None

    def test_prepared_check_round_trips(self, monkeypatch, tmp_path):
        # the stored base keeps the legality preparation: one read back
        # from disk classifies every DS as the fresh one does
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        prog = build_fig21()
        prep = AnalysisCache().get_or_build(prog, _nest(prog)).prep
        assert isinstance(prep, PreparedSquash)
        clone = build_fig21()
        loaded = AnalysisCache().get_or_build(clone, _nest(clone)).prep
        assert loaded is not prep
        for ds in (1, 2, 4):
            a, b = classify_squash(prep, ds), classify_squash(loaded, ds)
            assert (a.ok, a.reasons) == (b.ok, b.reasons)
            assert a.outer_trip == b.outer_trip
        assert loaded.base_failures == prep.base_failures


class TestContentKey:
    def test_same_content_same_key_across_builds(self):
        p1, p2 = build_fig41(), build_fig41()
        assert content_key(p1, _nest(p1)) == content_key(p2, _nest(p2))

    def test_different_programs_differ(self):
        p1, p2 = build_fig41(m=8), build_fig41(m=9)
        assert content_key(p1, _nest(p1)) != content_key(p2, _nest(p2))

    def test_foreign_nest_has_no_key(self):
        p1, p2 = build_fig41(), build_fig21()
        assert content_key(p1, _nest(p2)) is None


class TestCheckEquivalence:
    """classify(prepare(...)) must equal the monolithic check everywhere,
    including on designs the compiler rejects."""

    @pytest.mark.parametrize("ds", [1, 2, 4, 8])
    def test_wavelet_rejection_reasons_identical(self, ds):
        from repro.core.legality import (
            check_squash, classify_squash, prepare_squash,
        )
        from repro.workloads import benchmark_by_name
        bm = benchmark_by_name("wavelet")
        prog = bm.build(**bm.eval_kwargs)
        nest = find_loop_nests(prog)[0]
        mono = check_squash(prog, nest, ds)
        split = classify_squash(prepare_squash(prog, nest), ds)
        assert mono.ok == split.ok
        assert mono.reasons == split.reasons
        assert (mono.outer_trip, mono.inner_trip) == \
            (split.outer_trip, split.inner_trip)


class TestSquashMonotone:
    def test_a_check_legal_at_ds_is_legal_at_ds_1(self):
        """Squash legality is monotone in DS: no reason DS=1 fails for
        is DS-specific, so a squash analysis always finds its base's
        graph (``squash_case(dist, 1)`` never classifies a hazard)."""
        from repro.core.legality import prepare_squash

        legal = 0
        for name, build in _pool_and_suite():
            prog = build()
            nest = (find_kernel_nests(prog) or find_loop_nests(prog))[0]
            prep = prepare_squash(prog, nest)
            at_one = classify_squash(prep, 1).ok
            for ds in (2, 4, 8, 16, 32):
                if classify_squash(prep, ds).ok:
                    legal += 1
                    assert at_one, f"{name}: legal at DS={ds} only"
        assert legal > 100


def _pool_and_suite():
    """(name, build) pairs: the ``lang-resume`` benchmark pool (64
    kernels drawn by :mod:`repro.lang.fuzz` from
    ``random.Random("lang-resume")``) and the five Table 6.1 kernels."""
    import random

    from repro.lang import compile_source
    from repro.lang.fuzz import SourceNestSpec, random_source_nest
    from repro.workloads import benchmark_by_name

    rng = random.Random("lang-resume")
    for i in range(64):
        text = random_source_nest(rng, SourceNestSpec.sample(rng))
        yield f"pool[{i}]", lambda text=text: compile_source(text)
    for name in ("skipjack-mem", "skipjack-hw", "des-mem", "des-hw", "iir"):
        bm = benchmark_by_name(name)
        yield name, lambda bm=bm: bm.build(**bm.eval_kwargs)


class TestBasePickle:
    def test_two_builds_pickle_to_equal_bytes(self):
        """Two builds of one program's base write the same
        ``base-*.pkl`` bytes, and their DFGs (which the stored form
        leaves out) pickle alike too: ``DFG.stmt_nodes`` is keyed by
        statement position, not by the statement's address."""
        import pickle

        from repro.pipeline.analysis import _build_base

        bases = []
        for _ in range(2):
            prog = _eval_build("iir")
            bases.append(_build_base(prog, find_kernel_nests(prog)[0]))
        assert _pickled(bases[0]) == _pickled(bases[1])
        assert pickle.dumps(bases[0].dfg) == pickle.dumps(bases[1].dfg)

    def test_stored_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Two processes with different string-hash seeds store the same
        ``base-*.pkl`` bytes: the liveness and scalar-conflict sets
        pickle as sorted lists."""
        import os
        import subprocess
        import sys

        code = ("from repro.analysis.loops import find_kernel_nests\n"
                "from repro.pipeline.analysis import AnalysisCache\n"
                "from repro.workloads import benchmark_by_name\n"
                "for name in ('iir', 'des-mem'):\n"
                "    bm = benchmark_by_name(name)\n"
                "    prog = bm.build(**bm.eval_kwargs)\n"
                "    AnalysisCache().get_or_build(\n"
                "        prog, find_kernel_nests(prog)[0])\n")
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stored = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       REPRO_CACHE_DIR=str(tmp_path / seed))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(root, "src"), root,
                            env.get("PYTHONPATH")) if p)
            subprocess.run([sys.executable, "-c", code], env=env,
                           check=True)
            stored.append({p.name: p.read_bytes() for p in
                           (tmp_path / seed).glob("analysis/*/base-*.pkl")})
        assert len(stored[0]) == 2
        assert stored[0] == stored[1]

    def test_stages_of_a_base_read_back_from_the_store(
            self, monkeypatch, tmp_path):
        """``StageAssignment.of_stmt`` over a base read back from disk
        gives the stages of a freshly built one."""
        from repro.core.stages import assign_stages
        from repro.store import analysis_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = analysis_store()
        prog = _eval_build("iir")
        fresh = AnalysisCache().get_or_build(prog, find_kernel_nests(prog)[0])
        hits = store.stats.hits
        prog = _eval_build("iir")
        reread = AnalysisCache().get_or_build(prog,
                                              find_kernel_nests(prog)[0])
        assert store.stats.hits == hits + 1   # the base itself, from disk
        assert reread is not fresh

        def stages(base):
            sa = assign_stages(base.dfg, 4)
            return [sa.of_stmt(base.dfg, k)
                    for k in range(len(base.ssa.stmts))]
        assert set(reread.dfg.stmt_nodes) == set(range(len(reread.ssa.stmts)))
        assert stages(reread) == stages(fresh)


class TestStoredForm:
    def test_read_back_base_rebuilds_the_fresh_dfg(self, monkeypatch,
                                                   tmp_path):
        """A ``base-*.pkl`` holds the legality preparation and the SSA
        block only (asserted on the decompressed pickle, where a DFG
        would name its module); a base read back in a fresh process
        stand-in classifies its DS=1 check again and rebuilds the DFG of
        a fresh build, and its memory-tier entry stays full."""
        import pickle
        import zlib

        import repro
        from repro.pipeline.analysis import _build_base
        from repro.store import analysis_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = analysis_store()
        for label, build in _suite_nests():
            prog, nest = build()
            fresh = _build_base(prog, nest)
            AnalysisCache().get_or_build(prog, nest)
            blob = zlib.decompress(
                store._path(f"base-{content_key(prog, nest)}").read_bytes())
            stored = pickle.loads(blob)
            assert stored.ssa is not None, label
            assert stored.prep is not None and stored.check1.ok, label
            assert (stored.dfg, stored.carried, stored.invariant) == \
                (None, None, None), label
            assert b"repro.core.dfg" not in blob, label
            repro.clear_caches(memory_only=True)
            hits = store.stats.hits
            prog, nest = build()
            cache = AnalysisCache()
            reread = cache.get_or_build(prog, nest)
            assert store.stats.hits == hits + 1, label
            assert _dfg_shape(reread) == _dfg_shape(fresh), label
            again = cache.get_or_build(prog, nest)
            assert again is reread and again.dfg is reread.dfg, label


def _suite_nests():
    """(label, build) pairs, ``build()`` returning a fresh (program,
    nest): the five Table 6.1 kernels and the jam+squash jammed nest of
    des-mem at J=4."""
    from repro.core.squash import locate_jammed_nest
    from repro.transforms.unroll_and_jam import unroll_and_jam

    def kernel(name):
        prog = _eval_build(name)
        return prog, find_kernel_nests(prog)[0]

    for name in ("skipjack-mem", "skipjack-hw", "des-mem", "des-hw", "iir"):
        yield name, lambda name=name: kernel(name)

    def jammed():
        prog, nest = kernel("des-mem")
        fused = unroll_and_jam(prog, nest, 4)
        return fused, locate_jammed_nest(fused, nest, 4)
    yield "des-mem jam(4)", jammed


def _dfg_shape(base: BaseAnalysis) -> tuple:
    """Everything a DFG consumer reads, with each node's statement as
    its position in the base's own SSA block."""
    dfg = base.dfg
    at = {id(stmt): k for k, stmt in enumerate(base.ssa.stmts)}
    nodes = [(n.nid, n.kind, n.op, n.name, n.array, n.ty,
              None if n.stmt is None else at[id(n.stmt)])
             for n in dfg.nodes]
    edges = [(e.src.nid, e.dst.nid, e.dist, e.kind) for e in dfg.edges]
    maps = [[(k, v.nid) for k, v in table.items()]
            for table in (dfg.regs, dfg.defs, dfg.stmt_nodes)]
    iv_inc = None if dfg.iv_inc is None else dfg.iv_inc.nid
    return (nodes, edges, maps, iv_inc, sorted(base.carried),
            sorted(base.invariant))


def _eval_build(name):
    from repro.workloads import benchmark_by_name

    bm = benchmark_by_name(name)
    return bm.build(**bm.eval_kwargs)


def _pickled(base: BaseAnalysis) -> bytes:
    import pickle

    return pickle.dumps(base, protocol=pickle.HIGHEST_PROTOCOL)
