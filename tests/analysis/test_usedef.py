"""Unit tests for use/def and loop liveness."""

from repro.analysis import live_before, loop_liveness, stmt_uses
from repro.ir import Assign, BinOp, Block, Const, For, I32, If, Store, U8, Var
from tests.conftest import inner_loop, outer_loop


class TestStmtFacts:
    def test_assign(self):
        s = Assign("x", BinOp("add", Var("y", I32), Var("z", I32)))
        assert stmt_uses(s) == {"y", "z"}

    def test_store(self):
        s = Store("a", (Var("i", I32),), Var("v", I32))
        assert stmt_uses(s) == {"i", "v"}

    def test_for_bounds(self):
        f = For("i", Var("lo", I32), Var("hi", I32), Block())
        assert stmt_uses(f) == {"lo", "hi"}


class TestLiveBefore:
    def test_kill_then_use(self):
        blk = Block([
            Assign("x", Const(1, I32)),
            Assign("y", Var("x", I32)),
        ])
        assert live_before(blk, set()) == set()
        assert live_before(blk, {"y"}) == set()
        assert live_before(blk, {"z"}) == {"z"}

    def test_use_before_kill(self):
        blk = Block([
            Assign("y", Var("x", I32)),
            Assign("x", Const(1, I32)),
        ])
        assert live_before(blk, set()) == {"x"}

    def test_if_union(self):
        s = If(Var("c", U8) < 1,
               Block([Assign("x", Var("a", I32))]),
               Block([Assign("x", Var("b", I32))]))
        assert live_before(s, set()) == {"c", "a", "b"}

    def test_loop_backedge(self):
        # x is read then written inside the loop: live around the backedge
        loop = For("i", Const(0, I32), Const(4, I32), Block([
            Assign("t", Var("x", I32)),
            Assign("x", Var("t", I32)),
        ]))
        assert "x" in live_before(loop, set())

    def test_loop_kill_before_use_still_not_live(self):
        loop = For("i", Const(0, I32), Const(4, I32), Block([
            Assign("x", Const(0, I32)),
            Assign("t", Var("x", I32)),
        ]))
        assert "x" not in live_before(loop, set())


class TestLoopLiveness:
    def test_fig21_inner(self, fig21):
        inner = inner_loop(fig21)
        # after the inner loop, `a` is stored to data_out
        info = loop_liveness(inner, {"a"})
        assert info.live_in == {"a"}
        assert info.live_out == {"a"}
        assert info.carried == {"a"}
        assert info.invariant_reads == set()
        assert info.defined == {"a", "b"}

    def test_fig41_inner_sees_invariants(self, fig41):
        inner = inner_loop(fig41)
        info = loop_liveness(inner, {"a"})
        # body reads a (carried), i and k (invariant)
        assert info.carried == {"a"}
        assert info.invariant_reads == {"i", "k"}

    def test_outer_loop_not_carried(self, fig21):
        outer = outer_loop(fig21)
        info = loop_liveness(outer, set())
        # `a` is re-initialized from data_in[i] each outer iteration
        assert info.carried == set()
