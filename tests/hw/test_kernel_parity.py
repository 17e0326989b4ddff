"""Bit-identity of the shipped scheduler core vs the frozen reference.

``repro.hw.sched_kernel`` runs the placement/probe/repair loops over
dense arrays; ``tests/hw/sched_reference.py`` keeps the sequential
pure-Python loops it replaced.  These tests pin the contract that the
two are *bit-identical* — same II, same per-node start cycles, same
reservation tables, same makespans — across seed-pinned random DFGs
(``ir.randgen`` and ``lang.fuzz`` programs), both targets, all scheduler
strategies, whole pipeline runs, and every crossing of the II-search
memo (off/warm) with the core that wrote it.
"""

import random

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.hw import sched_kernel
from repro.hw.mii import _scc_arcs
from repro.hw.schedulers import register_scheduler, scheduler_by_name
from repro.ir.randgen import SquashNestSpec, ValueDomain, \
    random_squashable_nest
from repro.nimble.target import decode_target
from repro.obs import metrics as obs_metrics
from repro.pipeline import CompilationPipeline
from repro.pipeline.analysis import base_analyzed_dfg, squash_analyzed_dfg
from tests.hw import sched_reference


@pytest.fixture(autouse=True)
def _fresh(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    repro.clear_caches()
    yield
    repro.clear_caches()


def _sched_record(s):
    if hasattr(s, "ii"):
        return {"ii": s.ii, "time": s.time, "rt": s.rt,
                "length": s.length, "rec_mii": s.rec_mii,
                "res_mii": s.res_mii}
    return {"time": s.time, "length": s.length, "ru": s.resource_usage}


def _random_nest(seed):
    rng = random.Random(seed)
    prog, outer = random_squashable_nest(rng, SquashNestSpec(), ValueDomain())
    nest = next(n for n in find_loop_nests(prog) if n.outer is outer)
    return prog, nest


def _attempts() -> int:
    return obs_metrics.counter("sched_kernel_numpy_attempts").value


def _schedule_both(analyzed, lib, sname):
    """(shipped record, reference record, shipped-core passes)."""
    repro.clear_caches()
    before = _attempts()
    shipped = scheduler_by_name(sname).schedule(analyzed.dfg, lib,
                                                edges=analyzed.edges)
    passes = _attempts() - before
    repro.clear_caches()
    before = _attempts()
    ref = sched_reference.SCHEDULERS[sname].schedule(analyzed.dfg, lib,
                                                     edges=analyzed.edges)
    assert _attempts() == before  # the oracle never touches the array core
    return _sched_record(shipped), _sched_record(ref), passes


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tspec", ["acev", "vliw4"])
    def test_randgen_schedules_identical(self, seed, tspec):
        prog, nest = _random_nest(seed)
        lib = decode_target(tspec).library
        for variant_ds in (1, 2, 4):
            if variant_ds == 1:
                analyzed = base_analyzed_dfg(prog, nest)
            else:
                analyzed = squash_analyzed_dfg(prog, nest, variant_ds,
                                               delay_fn=lib.delay)
            for sname in ("list", "modulo", "backtrack"):
                shipped, ref, passes = _schedule_both(analyzed, lib, sname)
                assert shipped == ref, f"seed {seed} ds {variant_ds} {sname}"
                if sname != "list":
                    assert passes > 0   # the array core really ran

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fuzz_source_schedules_identical(self, seed):
        from repro.analysis.loops import find_kernel_nests
        from repro.lang import compile_source
        from repro.lang.fuzz import SourceNestSpec, random_source_nest

        rng = random.Random(seed)
        text = random_source_nest(rng, SourceNestSpec.sample(rng))
        prog = compile_source(text, filename=f"<parity:{seed}>")
        nest = find_kernel_nests(prog)[0]
        for tspec in ("acev", "vliw4"):
            lib = decode_target(tspec).library
            analyzed = base_analyzed_dfg(prog, nest)
            for sname in ("modulo", "backtrack"):
                shipped, ref, _ = _schedule_both(analyzed, lib, sname)
                assert shipped == ref, f"seed {seed} {tspec} {sname}"

    @pytest.mark.parametrize("kernel", ["skipjack-mem", "skipjack-hw",
                                        "des-mem", "des-hw", "iir"])
    def test_suite_kernel_schedules_identical(self, kernel):
        """The Table 6.1 kernels: memory-port and issue-slot contention
        the small random nests rarely produce."""
        from repro.nimble.compiler import _kernel_program

        prog, nest = _kernel_program(kernel)
        analyzed = base_analyzed_dfg(prog, nest)
        for tspec in ("acev", "vliw4"):
            lib = decode_target(tspec).library
            for sname in ("list", "modulo", "backtrack"):
                shipped, ref, _ = _schedule_both(analyzed, lib, sname)
                assert shipped == ref, f"{kernel} {tspec} {sname}"

    @pytest.mark.parametrize("seed", range(5))
    def test_recmii_probe_verdicts_identical(self, seed):
        """Every lambda, not only the ones a binary search visits."""
        prog, nest = _random_nest(seed)
        lib = decode_target("acev").library
        for ds in (2, 4):
            analyzed = squash_analyzed_dfg(prog, nest, ds,
                                           delay_fn=lib.delay)
            for nids, arcs in _scc_arcs(list(analyzed.edges), lib.delay):
                probe = sched_kernel.make_probe(nids, arcs)
                hi = sum({u: d for u, _, d, _ in arcs}.values()) + 1
                for lam in range(1, hi + 1):
                    assert probe(lam) == sched_reference._probe_exceeding(
                        nids, arcs, lam), (seed, ds, lam)

    def test_design_points_identical(self, monkeypatch):
        from repro.hw import schedulers
        from tests.conftest import build_fig41

        prog = build_fig41(m=16, n=8)
        nest = find_loop_nests(prog)[0]
        designs = (("original", 1), ("pipelined", 1), ("squash", 2),
                   ("jam", 2))

        def points():
            repro.clear_caches()
            pipe = CompilationPipeline(target=decode_target("vliw4"))
            return [pipe.run(prog, nest, variant, ds=ds).point
                    for variant, ds in designs]

        shipped = points()
        # route the whole pipeline (register-pressure bumps included)
        # through the oracle; the registry is restored on teardown
        monkeypatch.setattr(schedulers, "_REGISTRY",
                            dict(schedulers._REGISTRY))
        for ref in sched_reference.SCHEDULERS.values():
            register_scheduler(ref, replace=True)
        before = _attempts()
        assert points() == shipped
        assert _attempts() == before

    def test_memo_by_kernel_crossing_identical(self, monkeypatch):
        """2x2 sweep: II-memo (off/warm) x core (shipped/reference).

        The memo signature is core-independent — a warm memo written by
        one core must replay bit-identically under the other — so all
        four crossings (plus the warm second run of each memo-on leg)
        must agree exactly.
        """
        prog, nest = _random_nest(99)
        lib = decode_target("vliw4").library
        analyzed = base_analyzed_dfg(prog, nest)
        cores = (scheduler_by_name("backtrack"),
                 sched_reference.SCHEDULERS["backtrack"])
        records = []
        memo_hits = obs_metrics.counter("iimemo_mem_hits")
        for cache_mode in ("0", "1"):
            for first_core, second_core in (cores, cores[::-1]):
                monkeypatch.setenv("REPRO_ANALYSIS_CACHE", cache_mode)
                repro.clear_caches()
                first = first_core.schedule(analyzed.dfg, lib,
                                            edges=analyzed.edges)
                # second search: memo-warm from the *other* core when
                # cache_mode enables it
                hits = memo_hits.value
                second = second_core.schedule(analyzed.dfg, lib,
                                              edges=analyzed.edges)
                warm = memo_hits.value > hits
                assert warm == (cache_mode == "1")
                records.append(_sched_record(first))
                records.append(_sched_record(second))
        assert all(r == records[0] for r in records[1:])
