"""Unit tests for loop-nest discovery."""

import pytest

from repro.analysis import (
    all_loops, find_kernel_nests, find_loop_nests, trip_count,
)
from repro.ir import Const, For, I32, ProgramBuilder, U8


class TestTripCount:
    @pytest.mark.parametrize("lo,hi,step,expected", [
        (0, 10, 1, 10), (0, 10, 2, 5), (0, 11, 2, 6),
        (3, 3, 1, 0), (5, 3, 1, 0), (0, 7, 3, 3),
    ])
    def test_constant(self, lo, hi, step, expected):
        from repro.ir import Block
        f = For("i", Const(lo, I32), Const(hi, I32), Block(), step)
        assert trip_count(f) == expected

    def test_symbolic_is_none(self):
        from repro.ir import Block, Var
        f = For("i", Const(0, I32), Var("n", I32), Block())
        assert trip_count(f) is None


class TestNestDiscovery:
    def test_fig21_nest(self, fig21):
        nests = find_loop_nests(fig21)
        assert len(nests) == 1
        nest = nests[0]
        assert nest.outer_var == "i" and nest.inner_var == "j"
        assert nest.outer_trip() == 8 and nest.inner_trip() == 4

    def test_kernel_nests(self, fig21):
        assert len(find_kernel_nests(fig21)) == 1

    def test_pre_post_stmts(self, fig21):
        nest = find_loop_nests(fig21)[0]
        assert len(nest.pre_stmts()) == 1    # a = data_in[i]
        assert len(nest.post_stmts()) == 1   # data_out[i] = a

    def test_triple_nest_yields_two_pairs(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), U8, output=True)
        with b.loop("i", 0, 2) as i:
            with b.loop("j", 0, 2):
                with b.loop("k", 0, 2):
                    a[i] = a[i] + 1
        nests = find_loop_nests(b.build())
        assert {(n.outer_var, n.inner_var) for n in nests} == {("i", "j"), ("j", "k")}

    def test_two_inner_loops_not_a_nest(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), U8, output=True)
        with b.loop("i", 0, 2) as i:
            with b.loop("j", 0, 2):
                a[i] = a[i] + 1
            with b.loop("k", 0, 2):
                a[i] = a[i] + 2
        nests = find_loop_nests(b.build())
        assert all(n.outer_var != "i" for n in nests)

    def test_all_loops_count(self, fig41):
        assert len(all_loops(fig41)) == 2
