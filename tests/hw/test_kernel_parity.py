"""Bit-identity of the shipped scheduler core vs the frozen reference.

``repro.hw.sched_kernel`` runs the placement/probe/repair loops over
flat lists with bitmask slot probing; ``tests/hw/sched_reference.py``
keeps the sequential loops it replaced.  These tests pin the contract
that the two are *bit-identical* — same II, same per-node start cycles,
same reservation tables, same makespans, same RecMII probe verdicts and
slack levels — across seed-pinned random DFGs (``ir.randgen`` and
``lang.fuzz`` programs), the suite's largest graphs, both targets, all
scheduler strategies, whole pipeline runs, and every crossing of the
II-search memo (off/warm) with the core that wrote it.
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
    assert _attempts() == before  # the oracle never touches the core
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
                    assert passes > 0   # the shipped core really ran

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


def _largest_suite_graphs(kernel):
    """jam(32) and jam+squash J4 at DS 32 on acev and vliw4: the biggest
    DFGs and edge views of the suite sweep (the latter where DS 32 is
    legal), as ``(label, library, dfg, edges)``."""
    from repro.core.squash import locate_jammed_nest
    from repro.errors import LegalityError
    from repro.hw.mii import default_edge_view
    from repro.nimble.compiler import _kernel_program
    from repro.pipeline.analysis import jam_analyzed_dfg
    from repro.transforms.unroll_and_jam import unroll_and_jam

    prog, nest = _kernel_program(kernel)
    jam = jam_analyzed_dfg(prog, nest, 32).dfg
    jammed = unroll_and_jam(prog, nest, 4)
    jnest = locate_jammed_nest(jammed, nest, 4)
    out = []
    for tspec in ("acev", "vliw4"):
        lib = decode_target(tspec).library
        out.append((f"jam(32) @ {tspec}", lib, jam, default_edge_view(jam)))
        try:
            a = squash_analyzed_dfg(jammed, jnest, 32, delay_fn=lib.delay)
        except LegalityError:
            continue
        out.append((f"jam+squash(4, 32) @ {tspec}", lib, a.dfg,
                    list(a.edges)))
    return out


class TestLargestSuiteGraphs:
    """The list-based probes and slack passes against the oracle on the
    graphs a suite sweep schedules that the random nests never reach."""

    @pytest.mark.parametrize("kernel", ["skipjack-mem", "skipjack-hw",
                                        "des-mem", "des-hw", "iir"])
    def test_slack_levels_and_probe_verdicts(self, kernel):
        graphs = _largest_suite_graphs(kernel)
        assert len(graphs[0][2].nodes) > 900
        for label, lib, dfg, edges in graphs:
            dmap = {n.nid: lib.delay(n) for n in dfg.nodes}
            asap, alap = sched_kernel.slack_levels(dfg, edges, dmap)
            ref_asap, ref_alap = sched_reference.slack_levels(
                dfg, edges, dmap, dfg.topo_order())
            assert asap == [ref_asap[n.nid] for n in dfg.nodes], label
            assert alap == [ref_alap[n.nid] for n in dfg.nodes], label
            for nids, arcs in _scc_arcs(edges, lib.delay):
                probe = sched_kernel.make_probe(nids, arcs)
                hi = sum({u: d for u, _, d, _ in arcs}.values()) + 1
                # every lambda on the squashed views; around each
                # component's answer on jam(32), whose copies repeat
                lo, top = 1, hi
                while lo < top:
                    mid = (lo + top) // 2
                    if sched_reference._probe_exceeding(nids, arcs, mid):
                        lo = mid + 1
                    else:
                        top = mid
                lams = (range(1, hi + 1) if "squash" in label
                        else {1, lo - 1, lo, lo + 1, hi} - {0})
                for lam in lams:
                    assert probe(lam) == sched_reference._probe_exceeding(
                        nids, arcs, lam), (label, lam)


class TestSlackLevels:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_dags_match_reference(self, seed):
        """Random delays and fan-in, so a node's longest predecessor path
        is rarely the last one a topological pass reaches."""
        from repro.core.dfg import DFG
        from repro.ir import U32

        rng = random.Random(seed)
        g = DFG()
        nodes = [g.add_node(kind="binop", ty=U32, op="add", name=f"n{i}")
                 for i in range(rng.randrange(2, 40))]
        edges = []
        for _ in range(rng.randrange(1, 3 * len(nodes))):
            a, b = sorted(rng.sample(range(len(nodes)), 2))
            dist = 0 if rng.random() < 0.8 else rng.randrange(1, 3)
            if rng.random() < 0.2:
                a, b = b, a       # a backedge; carried, so off the DAG
                dist = max(dist, 1)
            g.add_edge(nodes[a], nodes[b], dist)
            edges.append((nodes[a], nodes[b], dist))
        dmap = {n.nid: rng.randrange(0, 6) for n in nodes}
        asap, alap = sched_kernel.slack_levels(g, edges, dmap)
        ref_asap, ref_alap = sched_reference.slack_levels(
            g, edges, dmap, g.topo_order())
        assert asap == [ref_asap[n.nid] for n in nodes]
        assert alap == [ref_alap[n.nid] for n in nodes]


def _counted_probes(monkeypatch) -> list:
    """Route ``make_probe`` through a wrapper that logs every probe's
    lambda, one list per component."""
    made = sched_kernel.make_probe
    log: list = []

    def make(nids, arcs):
        probe, calls = made(nids, arcs), []
        log.append(calls)

        def counted(lam):
            calls.append(lam)
            return probe(lam)
        return counted

    monkeypatch.setattr(sched_kernel, "make_probe", make)
    return log


def _cycle(g, delays, dist):
    from repro.ir import U32
    nodes = [g.add_node(kind="binop", ty=U32, op="add", name=f"n{d}")
             for d in delays]
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        g.add_edge(a, b, dist if b is nodes[0] else 0)
    return {n.nid: d for n, d in zip(nodes, delays)}


class TestRecMII:
    """``repro.hw.mii.rec_mii`` skips the components that cannot raise
    the running bound after one probe; its values stay the reference's
    per-component binary search."""

    @pytest.mark.parametrize("kernel", ["skipjack-mem", "skipjack-hw",
                                        "des-mem", "des-hw", "iir"])
    def test_suite_values_match_reference(self, kernel):
        from repro.hw.mii import rec_mii
        from repro.nimble.compiler import _kernel_program
        from repro.pipeline.analysis import jam_analyzed_dfg

        prog, nest = _kernel_program(kernel)
        lib = decode_target("acev").library
        views = [base_analyzed_dfg(prog, nest),
                 jam_analyzed_dfg(prog, nest, 2)]
        views += [squash_analyzed_dfg(prog, nest, ds, delay_fn=lib.delay)
                  for ds in (2, 4, 8)]
        if kernel in ("skipjack-mem", "des-mem", "iir"):
            views.append(jam_analyzed_dfg(prog, nest, 32))
        for a in views:
            assert rec_mii(a.dfg, lib.delay, a.edges) == \
                sched_reference.rec_mii(a.dfg, lib.delay, a.edges), kernel

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graph_values_match_reference(self, seed):
        """Random delays, distances and component order, so components
        below, at and above the running bound all occur."""
        from repro.core.dfg import DFG
        from repro.hw.mii import rec_mii

        rng = random.Random(seed)
        g, delay_of = DFG(), {}
        for _ in range(rng.randrange(1, 7)):
            delay_of.update(_cycle(
                g, [rng.randrange(1, 6) for _ in range(rng.randrange(1, 5))],
                rng.randrange(1, 4)))
        nodes = list(g.nodes)
        for _ in range(rng.randrange(0, 6)):   # arcs that merge cycles
            g.add_edge(rng.choice(nodes), rng.choice(nodes),
                       rng.randrange(0, 3))
        delay = (lambda n: delay_of[n.nid])
        assert rec_mii(g, delay) == sched_reference.rec_mii(g, delay)

    @pytest.mark.parametrize("seed", range(3))
    def test_randgen_values_match_reference(self, seed):
        from repro.hw.mii import rec_mii

        prog, nest = _random_nest(seed)
        lib = decode_target("vliw4").library
        for ds in (2, 4):
            a = squash_analyzed_dfg(prog, nest, ds, delay_fn=lib.delay)
            assert rec_mii(a.dfg, lib.delay, a.edges) == \
                sched_reference.rec_mii(a.dfg, lib.delay, a.edges)

    def test_component_that_cannot_raise_costs_one_probe(self, monkeypatch):
        """A delay-20 recurrence first, then three components whose
        budgets exceed 20 but whose cycles do not: one probe each, at
        the running bound."""
        from repro.core.dfg import DFG
        from repro.hw.mii import rec_mii

        g, delay_of = DFG(), {}
        delay_of.update(_cycle(g, [20], 1))
        for _ in range(3):
            delay_of.update(_cycle(g, [9, 9, 9], 2))   # RecMII 14
        log = _counted_probes(monkeypatch)
        assert rec_mii(g, lambda n: delay_of[n.nid]) == 20
        assert [len(calls) for calls in log][1:] == [1, 1, 1]
        assert [calls[0] for calls in log[1:]] == [20, 20, 20]

    def test_jam32_probe_counts(self, monkeypatch):
        """Probes per RecMII over the jam(32) DFGs on acev (a binary
        search from the running bound in every component takes 193, 98
        and 204)."""
        from repro.hw.mii import rec_mii
        from repro.nimble.compiler import _kernel_program
        from repro.pipeline.analysis import jam_analyzed_dfg

        lib = decode_target("acev").library
        log = _counted_probes(monkeypatch)
        counts = {}
        for kernel in ("des-mem", "skipjack-mem", "iir"):
            prog, nest = _kernel_program(kernel)
            dfg = jam_analyzed_dfg(prog, nest, 32).dfg
            log.clear()
            rec_mii(dfg, lib.delay)
            counts[kernel] = sum(len(calls) for calls in log)
        assert counts == {"des-mem": 39, "skipjack-mem": 37, "iir": 73}
