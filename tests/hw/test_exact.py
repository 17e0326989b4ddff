"""Unit tests for the exact (optimal) modulo scheduler.

Covers the constraint model (known-optimal IIs on the thesis figures),
the failed-II certificates, the budget / node-limit degradation to the
backtracking heuristic, and the optimality surface on
:class:`repro.hw.report.DesignPoint`.
"""

from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.core.dfg import DFG
from repro.hw import (
    ACEV_LIBRARY, ExactSchedule, IICertificate, exact_modulo_schedule,
    modulo_schedule, squash_distances,
)
from repro.hw.exact import _decide_ii, _Budget
from repro.hw.mii import default_edge_view
from repro.hw.ops import cached_delay_map
from repro.hw.schedulers import backtracking_modulo_schedule
from repro.ir.types import U32
from repro.verify import reverify_modulo
from tests.conftest import build_fig21, build_fig41


def _dfg(prog, ds=1, lib=ACEV_LIBRARY):
    nest = find_loop_nests(prog)[0]
    _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds, delay_fn=lib.delay)
    return dfg, sa


def _assert_legal(dfg, lib, sched, edges=None):
    edges = edges if edges is not None else default_edge_view(dfg)
    for s, d, dist in edges:
        assert sched.time[d.nid] + sched.ii * dist >= \
            sched.time[s.nid] + lib.delay(s), f"{s} -> {d} (dist {dist})"
    rows: dict[int, int] = {}
    for n in dfg.nodes:
        if lib.uses_mem_port(n):
            r = sched.time[n.nid] % sched.ii
            rows[r] = rows.get(r, 0) + 1
            assert rows[r] <= lib.mem_ports


def _gap_dfg() -> tuple[DFG, "ACEV_LIBRARY.__class__"]:
    """Two loads on a distance-2 cycle, one memory port.

    RecMII = ceil(4/2) = 2 and ResMII = 2, but at II=2 the tight cycle
    forces both loads onto the same even residue — a port collision —
    so the true optimum is 3.  The minimal instance where the MII bound
    is unachievable and only the complete search can prove it.
    """
    g = DFG()
    m1 = g.add_node(kind="load", ty=U32, array="a")
    m2 = g.add_node(kind="load", ty=U32, array="a")
    g.add_edge(m1, m2, 0)
    g.add_edge(m2, m1, 2)
    return g, ACEV_LIBRARY.with_ports(1)


class TestKnownOptima:
    def test_fig21_certifies_recmii(self):
        dfg, _ = _dfg(build_fig21())
        sched = exact_modulo_schedule(dfg, ACEV_LIBRARY)
        assert isinstance(sched, ExactSchedule)
        assert sched.ii == 2 == sched.rec_mii
        assert sched.certified and sched.fallback is None
        _assert_legal(dfg, ACEV_LIBRARY, sched)

    def test_fig41_certifies_known_ii(self):
        dfg, _ = _dfg(build_fig41())
        sched = exact_modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.ii == 5 and sched.certified
        _assert_legal(dfg, ACEV_LIBRARY, sched)

    def test_squash_relaxed_edges_supported(self):
        dfg, sa = _dfg(build_fig41(), ds=4)
        edges = squash_distances(dfg, sa)
        sched = exact_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert sched.certified
        assert sched.ii <= modulo_schedule(dfg, ACEV_LIBRARY,
                                           edges=edges).ii
        _assert_legal(dfg, ACEV_LIBRARY, sched, edges)
        assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []

    def test_memoryless_graph_needs_no_search(self):
        # fig21's kernel has no memory operations: the minimal solution
        # of the precedence system is the schedule, zero nodes explored
        dfg, _ = _dfg(build_fig21())
        sched = exact_modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.explored == 0 and sched.failed == ()


class TestGapInstance:
    """The hand-built instance where MII is provably unachievable."""

    def test_optimum_above_mii_with_certificate(self):
        dfg, lib = _gap_dfg()
        sched = exact_modulo_schedule(dfg, lib)
        assert sched.rec_mii == 2 and sched.res_mii == 2
        assert sched.ii == 3, "II=2 is infeasible, optimum is 3"
        assert sched.certified
        assert sched.failed == (
            IICertificate(ii=2, reason="search-exhausted",
                          explored=sched.failed[0].explored),)
        assert sched.failed[0].explored > 0
        _assert_legal(dfg, lib, sched)
        assert reverify_modulo(dfg, lib, sched) == []

    def test_budget_exhaustion_degrades_to_backtrack(self):
        dfg, lib = _gap_dfg()
        sched = exact_modulo_schedule(dfg, lib, budget=0)
        bt = backtracking_modulo_schedule(dfg, lib)
        assert not sched.certified and sched.fallback == "backtrack"
        assert sched.ii == bt.ii and sched.time == bt.time
        _assert_legal(dfg, lib, sched)

    def test_node_limit_skips_search_entirely(self):
        dfg, lib = _gap_dfg()
        sched = exact_modulo_schedule(dfg, lib, node_limit=1)
        assert not sched.certified and sched.fallback == "backtrack"
        assert sched.explored == 0

    def test_env_budget_override(self, monkeypatch):
        dfg, lib = _gap_dfg()
        monkeypatch.setenv("REPRO_EXACT_BUDGET", "0")
        assert not exact_modulo_schedule(dfg, lib).certified
        monkeypatch.setenv("REPRO_EXACT_BUDGET", "100000")
        assert exact_modulo_schedule(dfg, lib).certified

    def test_heuristic_at_mii_certifies_for_free(self):
        # when the backtracking II meets max(RecMII, ResMII), the bound
        # itself is the optimality proof: no search even at budget 0
        dfg, _ = _dfg(build_fig21())
        sched = exact_modulo_schedule(dfg, ACEV_LIBRARY, budget=0)
        assert sched.certified and sched.ii == 2 and sched.explored == 0


class TestCertificateReasons:
    def test_recurrence_certificate_below_recmii(self):
        dfg, _ = _dfg(build_fig21())
        edges = default_edge_view(dfg)
        dmap = cached_delay_map(dfg, ACEV_LIBRARY)
        time, reason = _decide_ii(dfg, edges, ACEV_LIBRARY, 1, dmap,
                                  _Budget(10_000))
        assert time is None and reason == "recurrence"

    def test_resource_certificate_below_resmii(self):
        # two independent loads, one port: no recurrence, but II=1 has a
        # single MRT row for two references — refuted by pigeonhole
        g = DFG()
        g.add_node(kind="load", ty=U32, array="a")
        g.add_node(kind="load", ty=U32, array="b")
        lib = ACEV_LIBRARY.with_ports(1)
        edges = default_edge_view(g)
        dmap = cached_delay_map(g, lib)
        time, reason = _decide_ii(g, edges, lib, 1, dmap, _Budget(10_000))
        assert time is None and reason == "resource"

    def test_feasible_ii_recovers_schedule(self):
        dfg, lib = _gap_dfg()
        edges = default_edge_view(dfg)
        dmap = cached_delay_map(dfg, lib)
        time, reason = _decide_ii(dfg, edges, lib, 3, dmap, _Budget(10_000))
        assert reason == "" and time is not None
        for s, d, dist in edges:
            assert time[d.nid] + 3 * dist >= time[s.nid] + dmap[s.nid]


class TestRegistryIntegration:
    def test_exact_registered_and_pipelined(self):
        from repro.hw.schedulers import (
            available_schedulers, scheduler_by_name,
        )
        assert "exact" in available_schedulers()
        strategy = scheduler_by_name("exact")
        assert strategy.pipelined
        dfg, _ = _dfg(build_fig21())
        assert strategy.schedule(dfg, ACEV_LIBRARY).ii == 2

    def test_target_spec_modifier(self):
        from repro.nimble.target import decode_target
        assert decode_target("acev::scheduler=exact").scheduler == "exact"

    def test_design_query_accepts_exact(self):
        from repro.explore import DesignQuery
        q = DesignQuery("iir", "squash", ds=2, scheduler="exact")
        assert q.label == "squash(2)@exact"


class TestDesignPointOptimality:
    def test_pipeline_stamps_certified_exact_ii(self):
        from repro.analysis import find_kernel_nests
        from repro.nimble import compile_pipelined
        prog = build_fig41()
        nest = find_kernel_nests(prog)[0]
        point = compile_pipelined(prog, nest, scheduler="exact")
        assert point.exact_ii == point.ii == 5
        assert point.certified_optimal and point.optimality_gap == 0

    def test_mii_bound_certifies_without_exact(self):
        from repro.analysis import find_kernel_nests
        from repro.nimble import compile_pipelined
        prog = build_fig21()
        nest = find_kernel_nests(prog)[0]
        point = compile_pipelined(prog, nest)  # default heuristic
        assert point.exact_ii is None
        assert point.ii == point.min_ii == 2
        assert point.certified_optimal and point.optimality_gap == 0

    def test_unknown_gap_is_none_not_zero(self):
        from repro.hw.report import DesignPoint
        p = DesignPoint(kernel="k", variant="pipelined", factor=1, ii=7,
                        op_rows=1, registers=1, reg_rows=1.0,
                        rec_mii=2, res_mii=1, outer_trip=0, inner_trip=0)
        assert p.min_ii == 2
        assert p.optimality_gap is None and not p.certified_optimal
        p.exact_ii = 5
        assert p.optimality_gap == 2 and not p.certified_optimal
