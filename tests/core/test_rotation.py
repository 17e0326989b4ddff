"""Tests for rotation-mode emission (the thesis's §4.3 software form)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.core import unroll_and_squash
from repro.core.rotation import RotationUnsupported
from repro.ir import Assign, For, validate_program, walk_stmts
from repro.ir.interp import run_program
from repro.ir.randgen import random_squashable_nest
from repro.workloads import iir, skipjack
from tests.conftest import build_fig21, build_fig41


def _check(prog, ds, params=None, mode="rotation"):
    nest = find_loop_nests(prog)[0]
    res = unroll_and_squash(prog, nest, ds, emit_mode=mode)
    validate_program(res.program)
    ref = run_program(prog, params=params)
    got = run_program(res.program, params=params)
    for name in ref.arrays:
        np.testing.assert_array_equal(ref.arrays[name], got.arrays[name],
                                      err_msg=f"{name} ds={ds}")
    return res


class TestRotationEmission:
    @pytest.mark.parametrize("ds", [2, 3, 4, 8])
    def test_fig21(self, ds):
        _check(build_fig21(m=8, n=4), ds)

    @pytest.mark.parametrize("m,n", [(8, 1), (6, 5), (7, 3), (3, 4)])
    def test_fig21_shapes(self, m, n):
        _check(build_fig21(m=m, n=n), 2)

    @pytest.mark.parametrize("ds", [2, 4, 5])
    def test_fig41(self, ds):
        _check(build_fig41(m=10, n=5), ds, params={"k": 3})

    def test_steady_loop_is_single_uniform_tick(self):
        """Fig. 2.3's shape: one tick per steady iteration, DS*(N-1) trips."""
        res = _check(build_fig21(m=8, n=4), 2)
        loops = [s for s in walk_stmts(res.program.body)
                 if isinstance(s, For) and s.annotations.get("rotation")]
        assert len(loops) == 1
        from repro.analysis import trip_count
        assert trip_count(loops[0]) == 2 * (4 - 1)

    def test_rotation_statements_present(self):
        """The emitted steady body ends in shift/rotate register moves."""
        res = _check(build_fig21(m=8, n=4), 2)
        loop = next(s for s in walk_stmts(res.program.body)
                    if isinstance(s, For) and s.annotations.get("rotation"))
        tail = [s for s in loop.body.stmts if isinstance(s, Assign)]
        # at least one pure register-to-register move (the rotation)
        from repro.ir import Var
        moves = [s for s in tail if isinstance(s.expr, Var)]
        assert moves, "no rotation moves emitted"

    def test_multi_lap_recurrence_rejected(self):
        prog = iir.build_program(m_channels=4, n_points=6)
        nest = find_loop_nests(prog)[0]
        with pytest.raises(RotationUnsupported):
            unroll_and_squash(prog, nest, 4, emit_mode="rotation")

    def test_register_rotation_rejected(self):
        prog = skipjack.build_program(m_blocks=4, variant="hw")
        nest = find_loop_nests(prog)[0]
        with pytest.raises(RotationUnsupported):
            unroll_and_squash(prog, nest, 2, emit_mode="rotation")

    def test_auto_falls_back(self):
        prog = skipjack.build_program(m_blocks=4, variant="hw")
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, 2, emit_mode="auto")
        got = run_program(res.program).arrays["data_out"]
        exp = skipjack.reference_output(prog.arrays["data_in"].init)
        assert list(got) == list(exp)

    def test_unknown_mode_rejected(self):
        from repro.errors import LegalityError
        prog = build_fig21()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_squash(prog, nest, 2, emit_mode="bogus")

    def test_ds_one_unsupported(self):
        prog = build_fig21()
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, 1, emit_mode="auto")
        assert res.ds == 1  # identity path, no rotation attempted


class TestRotationProperty:
    @given(seed=st.integers(0, 1500), ds=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_random_nests_auto_mode(self, seed, ds):
        """auto mode must always be correct, whichever emitter ran."""
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds, emit_mode="auto")
        validate_program(res.program)
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)

    @given(seed=st.integers(0, 1500), ds=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_random_nests_rotation_when_supported(self, seed, ds):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        try:
            res = unroll_and_squash(prog, nest, ds, emit_mode="rotation")
        except RotationUnsupported:
            return
        validate_program(res.program)
        ref = run_program(prog).arrays["out"]
        got = run_program(res.program).arrays["out"]
        assert list(ref) == list(got)
