"""Compiled executor pinned to the tree-walking interpreter."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.interp import compile_program, run_program
from repro.ir.randgen import RandConfig, random_program


def _assert_same(prog, params=None):
    ref = run_program(prog, params=params)
    fast = compile_program(prog)(params=params)
    assert set(ref.arrays) == set(fast.arrays)
    for name in ref.arrays:
        np.testing.assert_array_equal(ref.arrays[name], fast.arrays[name],
                                      err_msg=f"array {name}")
    for name, v in ref.scalars.items():
        assert fast.scalars.get(name) == pytest.approx(v), f"scalar {name}"


class TestCompiledEngine:
    def test_fig21(self, fig21):
        _assert_same(fig21)

    def test_fig41(self, fig41):
        _assert_same(fig41, params={"k": 3})

    def test_source_attached(self, fig21):
        fn = compile_program(fig21)
        assert "def _program" in fn.source

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_programs_int(self, seed):
        prog = random_program(random.Random(seed))
        _assert_same(prog)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_deep(self, seed):
        cfg = RandConfig(max_depth=3, max_stmts=4, max_expr_depth=4)
        prog = random_program(random.Random(seed), cfg)
        _assert_same(prog)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_programs_float(self, seed):
        cfg = RandConfig(allow_float=True, allow_div=False)
        prog = random_program(random.Random(seed), cfg)
        _assert_same(prog)
