"""Correctness tests for the unroll-and-squash transformation.

The headline property: for every legal nest and every factor DS,
``squash(DS)(P)`` computes exactly what ``P`` computes — including
non-divisible outer trip counts (peeling), IV/invariant use inside the
body, ROM lookups, and per-iteration memory traffic.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.core import check_squash, jam_then_squash, unroll_and_squash
from repro.errors import LegalityError
from repro.ir import (
    For, I32, ProgramBuilder, U32, compile_program, run_program,
    validate_program, walk_stmts,
)
from repro.ir.randgen import SquashNestSpec, random_squashable_nest
from tests.conftest import build_fig21, build_fig41


def _check_equiv(prog, ds, params=None, jam=None):
    nest = find_loop_nests(prog)[0]
    if jam:
        res = jam_then_squash(prog, nest, jam, ds)
    else:
        res = unroll_and_squash(prog, nest, ds)
    validate_program(res.program)
    ref = run_program(prog, params=params)
    got = run_program(res.program, params=params)
    for name in ref.arrays:
        np.testing.assert_array_equal(ref.arrays[name], got.arrays[name],
                                      err_msg=f"array {name} (ds={ds})")
    return res


class TestFigureNests:
    @pytest.mark.parametrize("ds", [2, 3, 4, 5, 8])
    def test_fig21(self, ds):
        _check_equiv(build_fig21(m=8, n=4), ds)

    @pytest.mark.parametrize("ds", [2, 4])
    @pytest.mark.parametrize("m,n", [(8, 1), (8, 2), (6, 5), (7, 3), (2, 4)])
    def test_fig21_shapes(self, ds, m, n):
        _check_equiv(build_fig21(m=m, n=n), ds)

    @pytest.mark.parametrize("ds", [2, 3, 4, 6, 16])
    def test_fig41(self, ds):
        _check_equiv(build_fig41(m=9, n=5), ds, params={"k": 3})

    def test_ds_exceeds_outer_trip(self):
        # everything is peeled into the tail loop
        res = _check_equiv(build_fig21(m=3, n=4), 8)
        assert res.emission.main_trips == 0

    def test_ds_equals_outer_trip(self):
        res = _check_equiv(build_fig21(m=4, n=4), 4)
        assert res.emission.main_trips == 4 and res.emission.peeled == 0

    def test_steady_tick_count(self):
        res = _check_equiv(build_fig21(m=8, n=4), 4)
        # §4.4: inner iteration count becomes DS*N - (DS-1)
        assert res.emission.steady_ticks == 4 * 4 - 3

    def test_squash_one_is_identity(self):
        prog = build_fig21()
        res = _check_equiv(prog, 1)
        from repro.ir import structurally_equal
        assert structurally_equal(res.program.body, prog.body)


class TestEmittedStructure:
    def test_single_steady_loop(self):
        res = _check_equiv(build_fig21(m=8, n=4), 4)
        outer = next(s for s in res.program.body.stmts if isinstance(s, For))
        inner_loops = [s for s in walk_stmts(outer.body) if isinstance(s, For)]
        assert len(inner_loops) == 1
        assert inner_loops[0].annotations.get("squash_ds") == 4

    def test_outer_step_scaled(self):
        res = _check_equiv(build_fig21(m=8, n=4), 4)
        outer = next(s for s in res.program.body.stmts if isinstance(s, For))
        assert outer.step == 4

    def test_tail_loop_on_remainder(self):
        res = _check_equiv(build_fig21(m=10, n=4), 4)
        fors = [s for s in res.program.body.stmts if isinstance(s, For)]
        assert len(fors) == 2
        from repro.analysis import trip_count
        assert trip_count(fors[1]) == 2

    def test_operator_count_constant_in_ds(self):
        """The squash selling point: operators do not grow with DS."""
        prog = build_fig41()
        nest = find_loop_nests(prog)[0]
        counts = []
        for ds in (2, 4, 8):
            res = unroll_and_squash(prog, nest, ds)
            counts.append(len(res.dfg.operator_nodes()))
        assert counts[0] == counts[1] == counts[2]

    def test_compiled_engine_agrees(self):
        prog = build_fig41(m=8, n=4)
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, 4)
        tree = run_program(res.program, params={"k": 5})
        fast = compile_program(res.program)(params={"k": 5})
        np.testing.assert_array_equal(tree.arrays["out"], fast.arrays["out"])


class TestLegality:
    def test_carried_scalar_rejected(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        acc = b.local("acc", U32)
        b.assign(acc, 1)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 4):
                b.assign(acc, b.var("acc") * 5 + 1)
            out[i] = b.var("acc")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        chk = check_squash(prog, nest, 2)
        assert not chk.ok
        with pytest.raises(LegalityError):
            unroll_and_squash(prog, nest, 2)

    def test_control_flow_in_inner_rejected(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, i)
            with b.loop("j", 0, 4) as j:
                with b.if_(b.var("x") < 5):
                    b.assign(x, b.var("x") + 1)
            out[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        chk = check_squash(prog, nest, 2)
        assert any("single basic block" in r for r in chk.reasons)

    def test_if_convert_then_squash(self):
        """§4.2: if-conversion makes conditional bodies squashable."""
        from repro.transforms import if_convert
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, i + 1)
            with b.loop("j", 0, 6) as j:
                with b.if_((b.var("x") & 1).eq(1)):
                    b.assign(x, b.var("x") * 3 + 1)
                with b.else_():
                    b.assign(x, b.var("x") >> 1)
            out[i] = b.var("x")
        prog = b.build()
        conv = if_convert(prog)
        nest = find_loop_nests(conv)[0]
        res = unroll_and_squash(conv, nest, 3)
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)

    def test_variable_inner_trip_rejected(self):
        b = ProgramBuilder("p")
        n = b.param("n", I32)
        out = b.array("out", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, i)
            with b.loop("j", 0, n):
                b.assign(x, b.var("x") + 1)
            out[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        chk = check_squash(prog, nest, 2)
        assert any("constant" in r for r in chk.reasons)

    def test_array_hazard_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,), U32, output=True)
        x = b.local("x", U32)
        b.assign(x, 0)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(x, a[i + 1] ^ 3)
            a[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_squash(prog, nest, 4)

    def test_zero_trip_inner_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, i)
            with b.loop("j", 0, 0):
                b.assign(x, b.var("x") + 1)
            a[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        chk = check_squash(prog, nest, 2)
        assert any("at least once" in r for r in chk.reasons)


class TestCombinedJamSquash:
    @pytest.mark.parametrize("jam,ds", [(2, 2), (2, 4), (4, 2)])
    def test_jam_then_squash(self, jam, ds):
        _check_equiv(build_fig21(m=16, n=4), ds, jam=jam)

    def test_combined_operator_count(self):
        """Ch. 2: jam(2)+squash(2) doubles operators, quadruples throughput."""
        prog = build_fig21(m=16, n=4)
        nest = find_loop_nests(prog)[0]
        plain = unroll_and_squash(prog, nest, 2)
        combo = jam_then_squash(prog, nest, 2, 2)
        n_plain = len([n for n in plain.dfg.operator_nodes()
                       if n.kind != "inc"])
        n_combo = len([n for n in combo.dfg.operator_nodes()
                       if n.kind != "inc"])
        assert n_combo == 2 * n_plain


class TestPropertySquash:
    @given(seed=st.integers(0, 4000), ds=st.sampled_from([2, 3, 4, 5, 8]))
    @settings(max_examples=60, deadline=None)
    def test_random_nests(self, seed, ds):
        rng = random.Random(seed)
        prog, _ = random_squashable_nest(rng)
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds)
        validate_program(res.program)
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)

    @given(seed=st.integers(0, 1000),
           m=st.integers(1, 9), n=st.integers(1, 6),
           ds=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_shape_sweep(self, seed, m, n, ds):
        rng = random.Random(seed)
        spec = SquashNestSpec(m=m, n=n, n_state=2, n_ops=4)
        prog, _ = random_squashable_nest(rng, spec)
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds)
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_memory_traffic_nests(self, seed):
        """Nests whose inner body loads/stores per-iteration array slots."""
        rng = random.Random(seed)
        b = ProgramBuilder("memnest")
        m, n = 8, 4
        src = b.array("src", (m,), U32,
                      init=np.arange(1, m + 1, dtype=np.uint32))
        scratch = b.array("scratch", (m,), U32, output=True)
        out = b.array("out", (m,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, m) as i:
            b.assign(x, src[i])
            with b.loop("j", 0, n) as j:
                scratch[i] = b.var("x") + j
                b.assign(x, scratch[i] * 2 + rng.randrange(1, 9))
            out[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        ds = rng.choice([2, 3, 4])
        res = unroll_and_squash(prog, nest, ds)
        ref = run_program(prog)
        got = run_program(res.program)
        for name in ("scratch", "out"):
            assert list(ref.arrays[name]) == list(got.arrays[name])
