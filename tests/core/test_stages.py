"""Unit tests for stage assignment and register-chain accounting."""

import pytest

from repro.analysis import find_loop_nests
from repro.core import unroll_and_squash
from tests.conftest import build_fig21, build_fig41


def _result(prog_builder, ds, **kw):
    prog = prog_builder(**kw)
    nest = find_loop_nests(prog)[0]
    return unroll_and_squash(prog, nest, ds)


class TestStageAssignment:
    def test_monotone_along_dist0_edges(self):
        for ds in (2, 3, 4, 8):
            res = _result(build_fig41, ds)
            sa, dfg = res.stages, res.dfg
            for e in dfg.edges:
                if e.dist == 0:
                    assert sa.stage[e.src.nid] <= sa.stage[e.dst.nid], \
                        f"edge {e.src}->{e.dst} violates stage order (ds={ds})"

    def test_stage_bounds(self):
        for ds in (2, 4, 16):
            res = _result(build_fig41, ds)
            assert all(1 <= s <= ds for s in res.stages.stage.values())

    def test_fig21_two_stages(self):
        res = _result(build_fig21, 2)
        dfg, sa = res.dfg, res.stages
        f = next(n for n in dfg.nodes if n.op == "add")
        g = next(n for n in dfg.nodes if n.op == "xor")
        assert sa.stage[f.nid] == 1 and sa.stage[g.nid] == 2

    def test_critical_path(self):
        # fig41 chain: add -> sub -> and -> mul = 4 unit delays
        res = _result(build_fig41, 4)
        assert res.stages.critical_path == 4

    def test_stage_delay_shrinks_with_ds(self):
        d2 = max(_result(build_fig41, 2).stages.stage_delay.values())
        d4 = max(_result(build_fig41, 4).stages.stage_delay.values())
        assert d4 <= d2

    def test_more_stages_than_ops_allowed(self):
        # ds larger than the critical path: empty stages are fine (§4.3)
        res = _result(build_fig21, 8)
        assert res.emission is not None

    def test_invalid_ds(self):
        import pytest
        from repro.errors import LegalityError
        prog = build_fig21()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_squash(prog, nest, 0)


class TestRegisterChains:
    def test_fig21_matches_thesis_figure(self):
        # Fig 2.3: squash by 2 adds exactly two pipeline registers
        res = _result(build_fig21, 2)
        assert res.pipeline_registers == 2

    def test_chains_grow_with_ds(self):
        prev = 0
        for ds in (2, 4, 8, 16):
            regs = _result(build_fig41, ds).pipeline_registers
            assert regs > prev
            prev = regs

    def test_invariants_cost_ds_each(self):
        # fig41 has invariants i and k: each needs a DS-slot ring
        res = _result(build_fig41, 8)
        assert res.chains.chains["inv:i"] == 8
        assert res.chains.chains["inv:k"] == 8

    def test_growth_is_roughly_linear(self):
        r4 = _result(build_fig41, 4).pipeline_registers
        r8 = _result(build_fig41, 8).pipeline_registers
        r16 = _result(build_fig41, 16).pipeline_registers
        assert (r16 - r8) == pytest.approx(2 * (r8 - r4), rel=0.5)

    def test_consumer_distance_covered(self):
        # every dist-0 data edge's tick distance fits inside some chain
        res = _result(build_fig41, 4)
        sa, dfg = res.stages, res.dfg
        for e in dfg.edges:
            if e.dist == 0 and e.kind == "data" and e.src.kind not in (
                    "const", "reg"):
                delta = sa.stage[e.dst.nid] - sa.stage[e.src.nid]
                key = f"val:{e.src.name or e.src.nid}"
                assert res.chains.chains.get(key, 0) >= delta
