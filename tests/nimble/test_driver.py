"""Tests for the Nimble-style driver: profiling, kernels, variant compilation."""

import pytest

from repro.analysis import find_loop_nests
from repro.hw import normalize
from repro.ir import ProgramBuilder, U32
from repro.nimble import ACEV, GARP, compile_variants, target_by_name
from repro.nimble.kernel import extract_kernels, select_kernel
from repro.nimble.profile import profile_summary
from tests.conftest import build_fig21, build_fig41


class TestTargets:
    def test_lookup(self):
        assert target_by_name("acev") is ACEV
        assert target_by_name("garp") is GARP

    def test_unknown_target_is_a_repro_error_naming_the_choices(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="acev"):
            target_by_name("nope")

    def test_unknown_target_did_you_mean(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="did you mean 'garp'"):
            target_by_name("grap")

    def test_port_override(self):
        t = ACEV.with_mem_ports(1)
        assert t.mem_ports == 1 and ACEV.mem_ports == 2


class TestProfiler:
    def test_loops_dominate(self, fig21):
        s = profile_summary(fig21)
        assert s.n_loops == 2
        assert s.hot_share > 0.9      # nearly all cost is inside the nest

    def test_threshold_filters(self):
        b = ProgramBuilder("p")
        a = b.array("a", (64,), U32, output=True)
        x = b.local("x", U32)
        b.assign(x, 0)
        # one hot loop, one cold loop
        with b.loop("i", 0, 60) as i:
            a[i] = i * 3 + 1
        with b.loop("k", 0, 1) as k:
            b.assign(x, b.var("x") + 1)
        s = profile_summary(b.build(), threshold=0.5)
        assert s.n_loops == 2 and s.n_hot_loops == 1


class TestKernelSelection:
    def test_annotated_preferred(self, fig21):
        sel = select_kernel(fig21)
        assert sel.annotated and sel.feasible
        assert sel.nest.inner.annotations.get("kernel")

    def test_extract_reports_infeasible(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        acc = b.local("acc", U32)
        b.assign(acc, 1)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 4, kernel=True):
                b.assign(acc, b.var("acc") * 3)
            out[i] = b.var("acc")
        cands = extract_kernels(b.build())
        assert len(cands) == 1 and not cands[0].feasible


class TestVariantCompilation:
    @pytest.fixture(scope="class")
    def vs41(self):
        prog = build_fig41(m=32, n=16)
        nest = find_loop_nests(prog)[0]
        return compile_variants(prog, nest, factors=(2, 4, 8))

    def test_all_points_present(self, vs41):
        labels = [p.label for p in vs41.all_points()]
        assert labels == ["original", "pipelined", "squash(2)", "squash(4)",
                          "squash(8)", "jam(2)", "jam(4)", "jam(8)"]

    def test_squash_ii_monotone_nonincreasing(self, vs41):
        iis = [vs41.squash[k].ii for k in (2, 4, 8)]
        assert iis == sorted(iis, reverse=True)

    def test_squash_operators_constant(self, vs41):
        rows = {vs41.squash[k].op_rows for k in (2, 4, 8)}
        assert rows == {vs41.original.op_rows}

    def test_jam_operators_scale(self, vs41):
        assert vs41.jam[4].op_rows == pytest.approx(
            2 * vs41.jam[2].op_rows, rel=0.01)

    def test_squash_cheaper_than_jam(self, vs41):
        for k in (2, 4, 8):
            assert vs41.squash[k].area_rows < vs41.jam[k].area_rows

    def test_speedups(self, vs41):
        base = vs41.original
        sq = normalize(base, vs41.squash[4])
        jm = normalize(base, vs41.jam[4])
        assert sq.speedup > 1.5
        assert jm.speedup == pytest.approx(4.0, rel=0.01)
        # port-free kernel: squash efficiency beats jam efficiency
        assert sq.efficiency > jm.efficiency

    def test_total_cycles_consistency(self, vs41):
        base = vs41.original
        assert base.total_cycles == base.ii * 32 * 16

    def test_auto_kernel_selection(self):
        prog = build_fig21(m=8, n=4)
        vs = compile_variants(prog, factors=(2,))
        assert vs.squash[2].ii <= vs.original.ii


class TestMemoryCongestion:
    """The paper's central contrast: jam saturates on the memory bus."""

    @pytest.fixture(scope="class")
    def mem_variants(self):
        b = ProgramBuilder("membound")
        src = b.array("src", (256,), U32)
        out = b.array("out", (256,), U32, output=True)
        fin = b.array("fin", (32,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 32) as i:
            b.assign(x, src[i])
            with b.loop("j", 0, 8, kernel=True) as j:
                b.assign(x, b.var("x") * 3 + src[(i + j) & 255])
                out[i * 8 + j] = b.var("x")
            fin[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        return compile_variants(prog, nest, factors=(2, 4, 8))

    def test_jam_ii_grows_with_factor(self, mem_variants):
        iis = [mem_variants.jam[k].ii for k in (2, 4, 8)]
        assert iis[2] > iis[0]

    def test_squash_ii_never_grows(self, mem_variants):
        iis = [mem_variants.squash[k].ii for k in (2, 4, 8)]
        assert iis == sorted(iis, reverse=True)

    def test_jam_speedup_saturates(self, mem_variants):
        base = mem_variants.original
        s = [normalize(base, mem_variants.jam[k]).speedup for k in (2, 4, 8)]
        assert s[2] < 8  # sub-linear under congestion

    def test_squash_efficiency_wins_under_congestion(self, mem_variants):
        base = mem_variants.original
        sq = normalize(base, mem_variants.squash[8])
        jm = normalize(base, mem_variants.jam[8])
        assert sq.efficiency > jm.efficiency
