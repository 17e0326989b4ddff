"""Unit tests for traversal/cloning/rewriting utilities."""

import random

from repro.ir import (
    Assign, BinOp, Block, Const, For, I32, U8, Var, clone_program,
    clone_stmt, map_exprs, rename_vars, structurally_equal, substitute,
    variables_read, variables_written, walk_exprs, walk_stmts,
)
from repro.ir.interp import run_program
from repro.ir.randgen import random_program


class TestWalk:
    def test_walk_exprs_preorder(self):
        e = BinOp("add", Var("x", I32), BinOp("mul", Var("y", I32), Const(2, I32)))
        kinds = [type(n).__name__ for n in walk_exprs(e)]
        assert kinds == ["BinOp", "Var", "BinOp", "Var", "Const"]

    def test_walk_stmts_counts(self, fig21):
        fors = [s for s in walk_stmts(fig21.body) if isinstance(s, For)]
        assert len(fors) == 2

    def test_fact_extraction(self, fig21):
        outer = fig21.body.stmts[0]
        assert "a" in variables_written(outer)
        assert "a" in variables_read(outer)


class TestClone:
    def test_clone_fresh_identity(self, fig21):
        c = clone_stmt(fig21.body)
        assert structurally_equal(c, fig21.body)
        orig = set(map(id, walk_stmts(fig21.body)))
        new = set(map(id, walk_stmts(c)))
        assert orig.isdisjoint(new)

    def test_clone_program_runs_identically(self, fig41):
        a = run_program(fig41, params={"k": 3})
        b = run_program(clone_program(fig41), params={"k": 3})
        assert list(a.arrays["out"]) == list(b.arrays["out"])

    def test_clone_random(self):
        prog = random_program(random.Random(7))
        assert structurally_equal(clone_program(prog).body, prog.body)


class TestRewrites:
    def test_substitute_replaces_reads_only(self):
        s = Block([Assign("y", BinOp("add", Var("x", I32), Const(1, I32))),
                   Assign("x", Var("y", I32))])
        out = substitute(s, {"x": Const(5, I32)})
        assert structurally_equal(
            out.stmts[0], Assign("y", BinOp("add", Const(5, I32), Const(1, I32))))
        # write target unchanged
        assert out.stmts[1].var == "x"

    def test_substitute_clones_replacement(self):
        big = BinOp("mul", Var("a", I32), Const(3, I32))
        s = Block([Assign("y", Var("x", I32)), Assign("z", Var("x", I32))])
        out = substitute(s, {"x": big})
        e1, e2 = out.stmts[0].expr, out.stmts[1].expr
        assert structurally_equal(e1, e2) and e1 is not e2

    def test_rename_vars_renames_writes(self):
        s = Block([Assign("x", Const(1, I32)),
                   Assign("y", Var("x", I32))])
        out = rename_vars(s, {"x": "x2"})
        assert out.stmts[0].var == "x2"
        assert out.stmts[1].expr.name == "x2"

    def test_rename_loop_var(self, fig21):
        outer = clone_stmt(fig21.body.stmts[0])
        out = rename_vars(outer, {"i": "ii"})
        assert out.var == "ii"
        reads = variables_read(out)
        assert "i" not in reads and "ii" in reads

    def test_map_exprs_bottom_up(self):
        # fold add(1,2) -> 3 via map
        def fold(e):
            if (isinstance(e, BinOp) and e.op == "add"
                    and isinstance(e.lhs, Const) and isinstance(e.rhs, Const)):
                return Const(e.lhs.value + e.rhs.value, e.ty)
            return e
        s = Assign("x", BinOp("add", Const(1, I32),
                              BinOp("add", Const(2, I32), Const(3, I32))))
        out = map_exprs(s, fold)
        assert isinstance(out.expr, Const) and out.expr.value == 6


class TestStructuralEquality:
    def test_detects_difference(self, fig21, fig41):
        assert not structurally_equal(fig21.body, fig41.body)

    def test_const_type_sensitive(self):
        assert not structurally_equal(Const(1, I32), Const(1, U8))
