"""End-to-end integration: full pipelines from source nest to verified
transformed software plus priced hardware, across all workloads."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_kernel_nests
from repro.core import jam_then_squash, unroll_and_squash
from repro.hw import squash_distances, modulo_schedule
from repro.hw.simulate import simulate_modulo
from repro.ir import validate_program
from repro.ir.interp import run_program
from repro.ir.randgen import random_squashable_nest
from repro.nimble import ACEV, compile_variants
from repro.verify import reverify_modulo
from repro.workloads import skipjack, table_6_1_benchmarks


class TestFullPipelinePerKernel:
    """For each Table 6.1 kernel: transform, verify, price, simulate."""

    @pytest.mark.parametrize("bm", table_6_1_benchmarks(),
                             ids=lambda b: b.name)
    def test_squash_functional_and_priced(self, bm):
        prog = bm.build(**bm.small_kwargs)
        nest = find_kernel_nests(prog)[0]
        ref = run_program(prog, params=bm.params)

        res = unroll_and_squash(prog, nest, 4,
                                delay_fn=ACEV.library.delay)
        validate_program(res.program)
        got = run_program(res.program, params=bm.params)
        for name in prog.output_arrays():
            np.testing.assert_array_equal(ref.arrays[name],
                                          got.arrays[name], err_msg=bm.name)

        # price + timing-validate the squashed schedule
        edges = squash_distances(res.dfg, res.stages)
        sched = modulo_schedule(res.dfg, ACEV.library, edges=edges)
        assert reverify_modulo(res.dfg, ACEV.library, sched, edges) == [], \
            bm.name


class TestVariantConsistency:
    def test_speedup_formula_vs_simulation(self):
        """DesignPoint.total_cycles must agree with schedule replay."""
        prog = skipjack.build_program(m_blocks=8, variant="hw")
        nest = find_kernel_nests(prog)[0]
        vs = compile_variants(prog, nest, factors=(2,))
        p = vs.pipelined
        # replay M*N iterations of the pipelined schedule
        from repro.core import analyze_nest
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                          delay_fn=ACEV.library.delay)
        sched = modulo_schedule(dfg, ACEV.library)
        iters = p.outer_trip * p.inner_trip
        sim = simulate_modulo(dfg, ACEV.library, sched, iters)
        # formula counts II per iteration; replay adds the drain once
        assert abs(sim.total_cycles - p.total_cycles) <= sched.length

    def test_jam_then_squash_composes(self):
        prog = skipjack.build_program(m_blocks=8, variant="hw", n_rounds=8)
        nest = find_kernel_nests(prog)[0]
        res = jam_then_squash(prog, nest, 2, 2)
        ref = run_program(prog).arrays["data_out"]
        got = run_program(res.program).arrays["data_out"]
        assert list(ref) == list(got)


class TestRandomNestPipeline:
    @given(seed=st.integers(0, 500), ds=st.sampled_from([2, 3, 4]))
    @settings(max_examples=25, deadline=None)
    def test_full_pipeline_random(self, seed, ds):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_kernel_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds, delay_fn=ACEV.library.delay)
        # software equivalence
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)
        # hardware: schedule exists, meets its bounds, re-verifies clean
        edges = squash_distances(res.dfg, res.stages)
        sched = modulo_schedule(res.dfg, ACEV.library, edges=edges)
        assert sched.ii >= max(sched.rec_mii, sched.res_mii)
        assert reverify_modulo(res.dfg, ACEV.library, sched, edges) == []

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_squash_ii_never_worse_than_pipelined(self, seed):
        """The core performance claim, on random nests."""
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_kernel_nests(prog)[0]
        from repro.core import analyze_nest
        _, _, _, dfg0, _, _ = analyze_nest(prog, nest, 1,
                                           delay_fn=ACEV.library.delay)
        pipelined = modulo_schedule(dfg0, ACEV.library)
        _, _, _, dfg, stages, _ = analyze_nest(prog, nest, 4,
                                               delay_fn=ACEV.library.delay)
        edges = squash_distances(dfg, stages)
        squashed = modulo_schedule(dfg, ACEV.library, edges=edges)
        assert squashed.ii <= pipelined.ii
