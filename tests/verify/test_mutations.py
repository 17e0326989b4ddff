"""Mutation corpus for the independent verifiers.

Each test seeds one deliberate corruption into a *real* pipeline
artifact (deep-copied, so the shared analysis cache never sees the
damage) and asserts the intended checker — and, where the corruption
is surgical enough, *only* that checker — rejects it with a located
diagnostic.  The unmutated artifacts verify clean first, so a failure
here is the checker's, not the pipeline's.
"""

import copy
import dataclasses

import numpy as np
import pytest

import repro
from repro.analysis import find_loop_nests
from repro.core.dfg import DFGEdge
from repro.errors import VerifyError
from repro.ir import ProgramBuilder, U32
from repro.nimble.target import decode_target
from repro.pipeline import CompilationPipeline
from repro.verify import (
    check_dfg, check_edge_view, check_ssa, crosscheck_pressure,
    independent_rec_mii, independent_res_mii, reverify_list,
    reverify_modulo, verify_analyzed, verify_design_point,
    verify_scheduled,
)
from tests.conftest import build_fig41


def checkers(findings):
    return {f.checker for f in findings}


def build_mem_kernel():
    """An inner kernel with loads and a store, so `mem` rows fill up."""
    b = ProgramBuilder("memk")
    src = b.array("src", (64,), U32,
                  init=np.arange(64, dtype=np.uint32))
    dst = b.array("dst", (64,), U32, output=True)
    acc = b.local("acc", U32)
    with b.loop("i", 0, 8) as i:
        b.assign(acc, 0)
        with b.loop("j", 0, 4, kernel=True) as j:
            b.assign(acc, acc + src[i * 8 + 2 * j] + src[i * 8 + 2 * j + 1])
            dst[i * 4 + j] = acc
    return b.build()


@pytest.fixture(scope="module")
def squash_run():
    """fig41 squash(4) on the default (acev) target, plus its library."""
    repro.clear_caches()
    prog = build_fig41(m=32, n=16)
    nest = find_loop_nests(prog)[0]
    pipe = CompilationPipeline()
    run = pipe.run(prog, nest, "squash", ds=4)
    return run, pipe.target.library


@pytest.fixture(scope="module")
def list_run():
    repro.clear_caches()
    prog = build_fig41(m=32, n=16)
    nest = find_loop_nests(prog)[0]
    pipe = CompilationPipeline()
    run = pipe.run(prog, nest, "original")
    return run, pipe.target.library


@pytest.fixture(scope="module")
def mem_run():
    """A pipelined schedule that actually occupies `mem` rows."""
    repro.clear_caches()
    prog = build_mem_kernel()
    nest = find_loop_nests(prog)[0]
    pipe = CompilationPipeline()
    run = pipe.run(prog, nest, "pipelined")
    return run, pipe.target.library


@pytest.fixture(scope="module")
def vliw_run():
    """fig41 pipelined on vliw4: finite register file -> pressure info."""
    repro.clear_caches()
    prog = build_fig41(m=32, n=16)
    nest = find_loop_nests(prog)[0]
    pipe = CompilationPipeline(decode_target("vliw4"))
    run = pipe.run(prog, nest, "squash", ds=2)
    return run, pipe.target.library


# ---------------------------------------------------------------------------
# Baseline: the real artifacts are clean
# ---------------------------------------------------------------------------

class TestUnmutatedClean:
    def test_analyzed_artifact_is_clean(self, squash_run):
        run, lib = squash_run
        a = run.analyzed
        assert check_dfg(a.dfg, lib) == []
        assert check_ssa(a.ssa) == []
        assert a.edges is not None  # squash staging relaxes distances
        assert check_edge_view(a.dfg, a.edges) == []
        verify_analyzed(a, lib, strict=True)

    def test_modulo_schedule_is_clean(self, squash_run):
        run, lib = squash_run
        s = run.scheduled
        assert reverify_modulo(s.analyzed.dfg, lib, s.schedule,
                               s.analyzed.edges) == []
        verify_scheduled(s, lib, strict=True)

    def test_list_schedule_is_clean(self, list_run):
        run, lib = list_run
        s = run.scheduled
        assert reverify_list(s.analyzed.dfg, lib, s.schedule) == []
        verify_scheduled(s, lib, strict=True)

    def test_accepted_ii_meets_independent_bounds(self, squash_run):
        run, lib = squash_run
        a = run.analyzed
        ii = run.scheduled.schedule.ii
        assert ii >= independent_rec_mii(a.dfg, lib.delay, a.edges)
        assert ii >= independent_res_mii(a.dfg, lib)


# ---------------------------------------------------------------------------
# DFG mutations
# ---------------------------------------------------------------------------

class TestDFGMutations:
    def test_shuffled_node_table(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        dfg.nodes[0], dfg.nodes[1] = dfg.nodes[1], dfg.nodes[0]
        findings = check_dfg(dfg, lib)
        assert checkers(findings) == {"dfg.node-index"}
        assert len(findings) == 2
        assert "index 0" in findings[0].message

    def test_negative_edge_distance(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        dfg.edges[0].dist = -1
        findings = check_dfg(dfg, lib)
        assert checkers(findings) == {"dfg.edge-distance"}
        assert "-1" in findings[0].message

    def test_unknown_edge_kind(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        dfg.edges[0].kind = "ctrl"
        findings = check_dfg(dfg, lib)
        assert checkers(findings) == {"dfg.edge-kind"}
        assert "'ctrl'" in findings[0].message

    def test_foreign_edge_endpoint(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        # a structurally identical clone is still a *different* node
        dfg.edges[0].src = copy.deepcopy(dfg.edges[0].src)
        findings = check_dfg(dfg, lib)
        assert checkers(findings) == {"dfg.edge-endpoint"}
        assert "source node" in findings[0].message

    def test_intra_iteration_reg_backedge(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        carried = [e for e in dfg.edges
                   if e.dst.kind == "reg" and e.dist >= 1]
        if not carried:  # fall back: forge a reg destination
            carried = [e for e in dfg.edges if e.dist >= 1]
            carried[0].dst.kind = "reg"
        carried[0].dist = 0
        findings = check_dfg(dfg)
        assert "dfg.reg-backedge" in checkers(findings)
        assert "loop-carried" in str(findings[0])

    def test_distance_zero_cycle(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        e = next(e for e in dfg.edges
                 if e.dist == 0 and e.src is not e.dst
                 and e.src.kind != "reg")
        dfg.edges.append(DFGEdge(e.dst, e.src, 0, "data"))
        findings = check_dfg(dfg, lib)
        assert "dfg.acyclic" in checkers(findings)
        assert "cycle" in findings[-1].message

    def test_defs_points_outside_graph(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        dfg.defs["ghost@99"] = copy.deepcopy(dfg.nodes[0])
        findings = check_dfg(dfg, lib)
        assert checkers(findings) == {"dfg.defs"}
        assert findings[0].where == "ghost@99"

    def test_unknown_operator_spec(self, squash_run):
        run, lib = squash_run
        dfg = copy.deepcopy(run.analyzed.dfg)
        n = next(n for n in dfg.nodes if n.kind == "binop")
        n.op = "frobnicate"
        findings = check_dfg(dfg, lib)
        assert "dfg.operator-spec" in checkers(findings)


# ---------------------------------------------------------------------------
# SSA mutations
# ---------------------------------------------------------------------------

class TestSSAMutations:
    def test_duplicated_definition(self, squash_run):
        run, _ = squash_run
        ssa = copy.deepcopy(run.analyzed.ssa)
        from repro.ir.nodes import Assign
        dup = next(s for s in ssa.stmts if isinstance(s, Assign))
        ssa.stmts.append(copy.deepcopy(dup))
        findings = check_ssa(ssa)
        assert checkers(findings) == {"ssa.single-def"}
        assert dup.var in findings[0].message

    def test_use_before_def(self, squash_run):
        run, _ = squash_run
        ssa = copy.deepcopy(run.analyzed.ssa)
        ssa.stmts.reverse()
        findings = check_ssa(ssa)
        assert "ssa.use-before-def" in checkers(findings)
        assert "before any definition" in findings[0].message

    def test_undefined_exit_version(self, squash_run):
        run, _ = squash_run
        ssa = copy.deepcopy(run.analyzed.ssa)
        ssa.exit["zz"] = "zz@7"
        findings = check_ssa(ssa)
        assert checkers(findings) == {"ssa.exit"}
        assert findings[0].where == "zz@7"

    def test_missing_version_type(self, squash_run):
        run, _ = squash_run
        ssa = copy.deepcopy(run.analyzed.ssa)
        victim = next(iter(ssa.types))
        del ssa.types[victim]
        findings = check_ssa(ssa)
        assert checkers(findings) == {"ssa.types"}
        assert findings[0].where == victim


# ---------------------------------------------------------------------------
# Edge-view mutations
# ---------------------------------------------------------------------------

class TestEdgeViewMutations:
    def test_dropped_dependence(self, squash_run):
        run, _ = squash_run
        a = run.analyzed
        view = list(a.edges)
        view.pop()
        findings = check_edge_view(a.dfg, view)
        assert checkers(findings) == {"view.edge-set"}
        assert "dropped" in findings[0].message

    def test_invented_dependence(self, squash_run):
        run, _ = squash_run
        a = run.analyzed
        view = list(a.edges) + [a.edges[0]]
        findings = check_edge_view(a.dfg, view)
        assert checkers(findings) == {"view.edge-set"}
        assert "invented" in findings[0].message

    def test_negative_relaxed_distance(self, squash_run):
        run, _ = squash_run
        a = run.analyzed
        s, d, _ = a.edges[0]
        view = [(s, d, -2)] + list(a.edges)[1:]
        findings = check_edge_view(a.dfg, view)
        assert checkers(findings) == {"view.distance"}

    def test_verify_analyzed_raises_with_findings(self, squash_run):
        run, lib = squash_run
        a = copy.deepcopy(run.analyzed)
        a.dfg.edges[0].dist = -1
        with pytest.raises(VerifyError, match="dfg.edge-distance") as ei:
            verify_analyzed(a, lib)
        assert ei.value.findings


# ---------------------------------------------------------------------------
# Schedule mutations
# ---------------------------------------------------------------------------

class TestScheduleMutations:
    def mutated(self, run):
        return copy.deepcopy(run.scheduled)

    def test_zero_ii(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        s.schedule.ii = 0
        findings = reverify_modulo(s.analyzed.dfg, lib, s.schedule,
                                   s.analyzed.edges)
        assert checkers(findings) == {"schedule.ii"}

    def test_missing_placement(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        victim = next(iter(s.schedule.time))
        del s.schedule.time[victim]
        findings = reverify_modulo(s.analyzed.dfg, lib, s.schedule,
                                   s.analyzed.edges)
        assert "schedule.placement" in checkers(findings)
        assert "no start cycle" in findings[0].message

    def test_shifted_slot_breaks_precedence(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        sched = s.schedule
        # pull a dependent op to its producer's issue cycle
        src, dst, _ = next(
            (a, b, d) for a, b, d in s.analyzed.edges
            if d == 0 and lib.delay(a) > 0)
        sched.time[dst.nid] = sched.time[src.nid]
        sched.rt = {}  # the claimed-table compare is not under test here
        findings = reverify_modulo(s.analyzed.dfg, lib, sched,
                                   s.analyzed.edges)
        assert "schedule.precedence" in checkers(findings)
        pre = next(f for f in findings
                   if f.checker == "schedule.precedence")
        assert repr(dst) in pre.where

    def test_oversubscribed_resource_row(self, mem_run):
        run, lib = mem_run
        s = self.mutated(run)
        sched = s.schedule
        mem_nodes = [n for n in s.analyzed.dfg.nodes if n.is_memory]
        cap = lib.resource_slots()["mem"]
        assert len(mem_nodes) > cap
        # cram every memory reference into one modulo row
        for n in mem_nodes:
            sched.time[n.nid] = (
                sched.time[n.nid] - sched.time[n.nid] % sched.ii)
        sched.rt = {}
        findings = reverify_modulo(s.analyzed.dfg, lib, sched,
                                   s.analyzed.edges)
        res = [f for f in findings if f.checker == "schedule.resources"]
        assert res and "mem[row 0]" == res[0].where
        assert f"share {cap} slot(s)" in res[0].message

    def test_claimed_reservation_table_drift(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        sched = s.schedule
        assert sched.rt  # modulo schedules carry their table
        r = next(iter(sched.rt))
        row = next(iter(sched.rt[r]), 0)
        sched.rt[r][row] = sched.rt[r].get(row, 0) + 1
        findings = reverify_modulo(s.analyzed.dfg, lib, sched,
                                   s.analyzed.edges)
        assert checkers(findings) == {"schedule.reservation-table"}
        assert findings[0].where == r

    def test_understated_makespan(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        s.schedule.length = 0
        findings = reverify_modulo(s.analyzed.dfg, lib, s.schedule,
                                   s.analyzed.edges)
        assert checkers(findings) == {"schedule.length"}
        assert "completes at cycle" in findings[0].message

    def test_list_schedule_precedence(self, list_run):
        run, lib = list_run
        s = self.mutated(run)
        e = next(e for e in s.analyzed.dfg.edges
                 if e.dist == 0 and lib.delay(e.src) > 0)
        s.schedule.time[e.dst.nid] = s.schedule.time[e.src.nid]
        findings = reverify_list(s.analyzed.dfg, lib, s.schedule)
        assert "schedule.precedence" in checkers(findings)

    def test_list_schedule_length(self, list_run):
        run, lib = list_run
        s = self.mutated(run)
        s.schedule.length = 0
        findings = reverify_list(s.analyzed.dfg, lib, s.schedule)
        assert checkers(findings) == {"schedule.length"}

    def test_verify_scheduled_raises(self, squash_run):
        run, lib = squash_run
        s = self.mutated(run)
        s.schedule.length = 0
        with pytest.raises(VerifyError, match="schedule.length"):
            verify_scheduled(s, lib)


# ---------------------------------------------------------------------------
# Strict-mode re-derivation mutations
# ---------------------------------------------------------------------------

class TestStrictMutations:
    def test_stale_maxlive_claim(self, vliw_run):
        run, lib = vliw_run
        s = copy.deepcopy(run.scheduled)
        assert s.pressure is not None
        claimed = s.pressure.max_live
        s.pressure = dataclasses.replace(s.pressure, max_live=claimed + 3)
        findings = crosscheck_pressure(
            s.analyzed.dfg, lib, s.schedule, s.pressure,
            s.analyzed.edges)
        assert checkers(findings) == {"pressure.maxlive"}
        assert f"gives {claimed}" in findings[0].message
        with pytest.raises(VerifyError, match="pressure.maxlive"):
            verify_scheduled(s, lib, strict=True)

    def test_honest_maxlive_passes_strict(self, vliw_run):
        run, lib = vliw_run
        verify_scheduled(run.scheduled, lib, strict=True)

    def test_inflated_pressure_floor(self, vliw_run, monkeypatch):
        """A floor above what the schedule really keeps live is unsound:
        the recount catches it."""
        from repro.vliw import pressure

        run, lib = vliw_run
        s = run.scheduled
        honest = pressure.pressure_floor(
            s.analyzed.dfg, lib, s.analyzed.edges, s.schedule.ii)
        assert honest <= s.pressure.max_live
        monkeypatch.setattr(pressure, "pressure_floor",
                            lambda *a: s.pressure.max_live + 1)
        findings = crosscheck_pressure(
            s.analyzed.dfg, lib, s.schedule, s.pressure, s.analyzed.edges)
        assert checkers(findings) == {"pressure.floor"}
        assert f"recount {s.pressure.max_live} is below" \
            in findings[0].message
        with pytest.raises(VerifyError, match="pressure.floor"):
            verify_scheduled(s, lib, strict=True)

    def test_forged_exact_ii_certificate(self, squash_run):
        run, lib = squash_run
        a = run.analyzed
        rec = independent_rec_mii(a.dfg, lib.delay, a.edges)
        res = independent_res_mii(a.dfg, lib)
        assert max(rec, res) > 1  # fig41 carries a real recurrence
        point = copy.deepcopy(run.point)
        point.exact_ii = 1  # "certified optimal" below both bounds
        with pytest.raises(VerifyError, match="report.exact-ii") as ei:
            verify_design_point(point, a, lib)
        assert all(f.checker == "report.exact-ii"
                   for f in ei.value.findings)

    def test_unclaimed_exact_ii_is_ignored(self, squash_run):
        run, lib = squash_run
        point = copy.deepcopy(run.point)
        point.exact_ii = None
        verify_design_point(point, run.analyzed, lib)
